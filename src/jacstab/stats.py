"""Work counters, always on.

``COUNTS["graphs.subsets"]`` is the number of connected subsets built, bumped
once per level by the level's size; a cached level is not counted again.
``COUNTS["stability.rows"]`` is the number of subcurve inequalities tested,
bumped once per scan of :func:`~jacstab.stability.check_stability`,
:func:`~jacstab.stability.is_balanced` or the enumeration search by the rows
that scan read.  The counts only grow; read a difference around the work.
"""

from collections import Counter

COUNTS: Counter = Counter()
