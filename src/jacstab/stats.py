"""Work counters, always on.

``COUNTS["graphs.subsets"]`` is the number of connected subsets built, bumped
once per level by the level's size; a cached level is not counted again.
``COUNTS["stability.rows"]`` is the number of subcurve inequalities tested,
bumped once per scan of :func:`~jacstab.stability.check_stability`,
:func:`~jacstab.stability.is_balanced` or the enumeration search by the rows
that scan read.  ``COUNTS["pushforward.c1_terms"]`` is the number of terms of
each c1 class built.  ``COUNTS["pushforward.pushed_terms"]`` is the number of
degree-2 terms that :func:`~jacstab.pushforward.pushforward` or
:func:`~jacstab.pushforward.push_product` applied a ``PUSH_RULES`` row to: for
the fused push, the non-zero family terms the product would hold.
``COUNTS["pushforward.sum_updates"]`` is the number of updates of the walk's
sums per head in those pushes: the walk sums a run of consecutive terms with
equal heads before it writes the run once, so under ``PUSH_RULES`` one
boundary index (h, A) costs one update, not one per term.
``COUNTS["divisors.fold_terms"]`` is the number of terms the one fold of
divisor classes received: every term that
:func:`~jacstab.divisors.canonicalize` receives, and every non-zero sum per
term head that a push hands it.  ``COUNTS["cli.argparse_parses"]`` is the
number of command lines that :func:`~jacstab.cli.main` handed to argparse:
the lines that are not plain (help, usage errors and unusual forms; see
``cli._table_parse``).  ``COUNTS["twister.peel_steps"]`` is the number of
steps that ``twister._peel`` recorded, one per peeled leaf, zero sums
included.  The counts only grow; read a difference around the work.
"""

from collections import Counter

COUNTS: Counter = Counter()
