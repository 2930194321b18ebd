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
``COUNTS["divisors.fold_terms"]`` is the number of terms the one fold of
divisor classes received: every term that
:func:`~jacstab.divisors.canonicalize` receives, and every non-zero sum per
term head that a push hands it.  The counts only grow; read a difference
around the work.
"""

from collections import Counter

COUNTS: Counter = Counter()
