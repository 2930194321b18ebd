"""Time one import of jacstab.cli in this fresh interpreter.

    python3 bench/import_probe.py <path to src>

The import is timed first, so that nothing it needs is loaded beforehand;
the reference computation of calib.py runs afterwards, a few times, to
calibrate it.  Prints {"import_s": ..., "ref_s": ...}.
"""

import sys
import time

start = time.process_time()
sys.path.insert(0, sys.argv[1])
import jacstab.cli  # noqa: E402,F401
elapsed = time.process_time() - start

import json  # noqa: E402
import statistics  # noqa: E402

import calib  # noqa: E402

refs = [calib.timed_reference() for _ in range(9)][3:]
print(json.dumps({"import_s": elapsed, "ref_s": statistics.median(refs)}))
