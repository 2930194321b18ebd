#!/usr/bin/env python3
"""Benchmark of the jacstab CLI: one workload, one single-threaded process.

    python3 bench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports jacstab from ``src/``.  A closed
loop with one client calls ``jacstab.cli.main(argv)`` with each input in turn
and checks every answer against ``oracle.py`` outside the timed region.

``--trace 0`` measures for ``--seconds`` seconds, in whole rounds, and reports
the end-to-end metrics.  ``--trace 1`` runs a fixed number of rounds, each
operation once untraced and once with the spans of ``tracing.py`` installed,
reports the per-layer metrics and writes a trace dump to ``bench/out/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; details for the README
figures go to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import calib
import tracing
import workloads
from oracle import Mismatch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 15
# The 90th percentile needs ten operations beyond it.
MIN_OPS = 100
WARMUP_OPS = 4
# Rounds of the traced run per second of --seconds.  The count must not depend
# on timing, so that the traced run's work counts repeat exactly.
TRACE_ROUNDS_PER_S = {"enumerate": 0.1, "derive": 0.07, "query": 0.7}


def load_cli():
    if not (SRC / "jacstab" / "cli.py").is_file():
        sys.exit(f"run.py: no jacstab source at {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import jacstab.cli
    return jacstab.cli


def call(cli, argv: list[str]) -> tuple[int | None, str, float, float]:
    """One operation between two reference timings.

    Returns the exit code (None when an exception escaped), the standard
    output, the operation's CPU seconds and the mean reference CPU seconds.
    """
    out, err = io.StringIO(), io.StringIO()
    before = calib.timed_reference()
    start = time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:                 # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else None
    except Exception:                         # an escaped error is a failed operation
        code = None
    elapsed = time.process_time() - start
    after = calib.timed_reference()
    return code, out.getvalue(), elapsed, (before + after) / 2


class Tally:
    """Outcomes of the measured operations.

    An operation that gives no answer of the expected kind is failed when its
    input is a known fault (``Op.known_fault``) and wrong otherwise, so that
    a regression that makes valid inputs raise or exit early reads
    ``correct: false`` rather than a cheaper operation.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.first_wrong: str | None = None
        self.failures: Counter = Counter()

    def record(self, op: workloads.Op, code: int | None, out: str) -> None:
        self.attempted += 1
        problem = outcome(op, code, out)
        if problem is None:
            return
        failed, message = problem
        if failed and op.known_fault:
            self.failed += 1
            self.failures[f"{op.command}: {message}"] += 1
        else:
            self.wrong += 1
            if self.first_wrong is None:
                self.first_wrong = f"{op.command}: {message}: {op.argv}"


def outcome(op: workloads.Op, code: int | None, out: str) -> tuple[bool, str] | None:
    """None for a right answer, else (no answer of the expected kind, message)."""
    if code is None:
        return True, "exception"
    if code not in op.exits:
        return True, f"exit {code}"
    try:
        payload = json.loads(out)
    except ValueError:
        return True, "output is not JSON"
    try:
        op.check(code, payload)
    except Mismatch as exc:
        return False, str(exc)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return False, f"unexpected answer shape: {exc!r}"
    return None


def calibrated(raw: float, ref: float) -> float:
    return raw * calib.NOMINAL_S / ref


def measure_setup() -> tuple[float, float]:
    """Median calibrated and raw seconds to import jacstab.cli in a fresh interpreter."""
    cal, raw = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, str(HERE / "import_probe.py"), str(SRC)],
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            sys.exit(f"run.py: import probe failed:\n{proc.stderr}")
        sample = json.loads(proc.stdout)
        raw.append(sample["import_s"])
        cal.append(calibrated(sample["import_s"], sample["ref_s"]))
    return statistics.median(cal), statistics.median(raw)


def warm_up(cli, name: str, seed: int, unique: workloads.Unique) -> None:
    """Lazy set-up and the interpreter's specialisation, before timing."""
    for op in itertools.islice(workloads.ROUNDS[name](seed, -1, unique), WARMUP_OPS):
        call(cli, op.argv)


def end_to_end(cli, name: str, seed: int, seconds: float) -> dict:
    setup_s, setup_raw = measure_setup()
    unique = workloads.Unique()
    warm_up(cli, name, seed, unique)
    tally = Tally()
    times, raws, refs = [], [], []
    deadline = time.perf_counter() + seconds
    rounds = 0
    while len(times) < MIN_OPS or time.perf_counter() < deadline:
        for op in workloads.ROUNDS[name](seed, rounds, unique):
            code, out, raw, ref = call(cli, op.argv)
            times.append(calibrated(raw, ref))
            raws.append(raw)
            refs.append(ref)
            tally.record(op, code, out)
        rounds += 1
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "ops_per_cpu_s": (len(times) / sum(times), "1/s"),
        "op_cpu_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_cpu_p90_ms": (statistics.quantiles(times, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (peak, "MiB"),
        "setup_s": (setup_s, "s"),
    }
    detail = {
        "rounds": rounds, "ops": len(times),
        "raw_ops_per_cpu_s": len(raws) / sum(raws),
        "raw_op_cpu_p50_ms": statistics.median(raws) * 1e3,
        "raw_op_cpu_p90_ms": statistics.quantiles(raws, n=10)[8] * 1e3,
        "raw_setup_s": setup_raw,
        "ref_ms_median": statistics.median(refs) * 1e3,
        "ref_ms_min": min(refs) * 1e3, "ref_ms_max": max(refs) * 1e3,
    }
    return report(tally, metrics, detail)


def traced_call(cli, tracer: tracing.Tracer, argv: list[str]):
    """call() with the tracer's wrappers installed for just this operation."""
    tracer.install()
    try:
        tracer.start_op()
        return call(cli, argv)
    finally:
        tracer.uninstall()


def traced(cli, name: str, seed: int, seconds: float) -> dict:
    rounds = max(1, round(seconds * TRACE_ROUNDS_PER_S[name]))
    unique = workloads.Unique()
    warm_up(cli, name, seed, unique)
    tracer = tracing.Tracer()
    tally = Tally()
    self_ms: Counter = Counter()
    incl_ms: Counter = Counter()
    overhead_ms = 0.0
    output_bytes = 0
    for r in range(rounds):
        for i, op in enumerate(workloads.ROUNDS[name](seed, r, unique)):
            # alternate which call goes first, so a second call's warmer
            # caches do not bias the overhead either way
            if i % 2:
                code_t, out_t, raw_t, ref_t = traced_call(cli, tracer, op.argv)
                code, out, raw, ref = call(cli, op.argv)
            else:
                code, out, raw, ref = call(cli, op.argv)
                code_t, out_t, raw_t, ref_t = traced_call(cli, tracer, op.argv)
            factor = 1e3 * calib.NOMINAL_S / ref_t
            for key, value in tracer.self_s.items():
                self_ms[key] += value * factor
            for key, value in tracer.incl_s.items():
                incl_ms[key] += value * factor
            overhead_ms += (calibrated(raw_t, ref_t) - calibrated(raw, ref)) * 1e3
            output_bytes += len(out.encode())
            tally.record(op, code, out)
            if (code_t, out_t) != (code, out):
                tally.wrong += 1
                tally.first_wrong = tally.first_wrong or f"{op.command}: tracing changed the output"
    ops = tally.attempted
    metrics = tracing.per_layer(self_ms, incl_ms, tracer.calls, tracer.counts, ops,
                                output_bytes, overhead_ms / ops)
    dump = {"workload": name, "seed": seed, "rounds": rounds, "ops": ops,
            "spans": {key: {"layer": tracing.LAYERS[key], "calls": tracer.calls[key],
                            "self_ms": self_ms[key], "incl_ms": incl_ms[key]}
                      for key in sorted(incl_ms)},
            "calls": dict(sorted(tracer.calls.items())),
            "counts": dict(sorted(tracer.counts.items())),
            "metrics": {key: value for key, (value, unit) in metrics.items()}}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{name}-{seed}.json").write_text(json.dumps(dump, indent=1) + "\n")
    return report(tally, metrics, {"rounds": rounds, "ops": ops})


def report(tally: Tally, metrics: dict, detail: dict) -> dict:
    detail = dict(detail, wrong=tally.wrong, first_wrong=tally.first_wrong,
                  failures=dict(tally.failures))
    print("detail: " + json.dumps(detail, sort_keys=True), file=sys.stderr)
    return {"correct": tally.wrong == 0, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {key: {"value": value, "unit": unit}
                        for key, (value, unit) in metrics.items()}}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    cli = load_cli()
    run = traced if args.trace else end_to_end
    print(json.dumps(run(cli, args.workload, args.seed, args.seconds)))


if __name__ == "__main__":
    main()
