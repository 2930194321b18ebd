"""Fixed pure-Python reference computation used to calibrate CPU times.

The CPU time of the same work varies by up to 2x on a shared machine, both
between processes and over a few seconds within one.  Timing this reference
right before and right after an operation measures the machine's speed at
that moment; the operation's CPU time is then scaled by
``NOMINAL_S / reference time``, i.e. expressed in units of a machine on which
the reference takes exactly ``NOMINAL_S``.

The reference does dict updates and ``Fraction`` arithmetic, like jacstab,
and imports nothing from it, so a change to jacstab cannot change it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The unit of calibrated times: a fixed number of CPU seconds within the
# range of one reference() call on the machine the README figures come from
# (medians of 0.48-0.95 ms per run there).
NOMINAL_S = 0.0006
EXPECTED = (Fraction(73925885483759, 896916477600), 31)


def reference() -> tuple[Fraction, int]:
    table: dict[int, int] = {}
    acc = Fraction(0)
    for i in range(200):
        key = i % 31
        table[key] = table.get(key, 0) + i
        acc += Fraction(i % 7 + 1, key + 2)
    return acc, len(table)


def timed_reference() -> float:
    """CPU seconds of one reference call."""
    start = time.process_time()
    result = reference()
    elapsed = time.process_time() - start
    if result != EXPECTED:
        raise RuntimeError(f"reference computation returned {result}")
    return elapsed
