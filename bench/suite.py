#!/usr/bin/env python3
"""Run the whole benchmark and summarise its spread.

    python3 bench/suite.py

Run it from the repository root.  Runs bench/run.py once per workload and
seed (seeds 1-10, run_seconds of BENCHMARK.json), one process at a time, then
twice per workload with --trace 1 on seed 1.  For every end-to-end metric it
prints the median of the runs and the spread, (third quartile - first
quartile) / median, next to the bound in BENCHMARK.json; the benchmark is
steady when every spread but setup_s's is below a third of its bound.  It
checks that every run is correct, that the share of failed operations is the
same in every run and that the traced runs' counts repeat exactly.
Everything, raw figures included, is written to bench/out/suite-<time>.json.
Single runs, or other seeds, go through bench/run.py directly.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)
TRACE_RUNS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    detail = next(line for line in proc.stderr.splitlines() if line.startswith("detail: "))
    return dict(json.loads(proc.stdout.splitlines()[-1]), workload=workload, seed=seed,
                trace=trace, detail=json.loads(detail[len("detail: "):]))


def spread(values: list[float]) -> tuple[float, float]:
    """Median and (Q3 - Q1) / median, quartiles as statistics.quantiles gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def summarise(runs: list[dict]) -> tuple[list[str], bool]:
    lines, steady = [], True
    shares = {run["failed"] / run["attempted"] for run in runs}
    if len(shares) != 1 or not all(run["correct"] for run in runs):
        steady = False
    lines.append(f"  runs {len(runs)}  correct {all(r['correct'] for r in runs)}  "
                 f"failed share {sorted(shares)}  ops {[r['attempted'] for r in runs]}")
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        median, share = spread([run["metrics"][name]["value"] for run in runs])
        ok = share < metric["bound"] / 3 or name == "setup_s"
        steady &= ok
        lines.append(f"  {name:15s} median {median:12.4f} {metric['unit']:4s} spread {share:6.1%}"
                     f"  bound {metric['bound']:.0%}  {'ok' if ok else 'WIDE'}")
    for name in ("raw_ops_per_cpu_s", "raw_op_cpu_p50_ms", "raw_op_cpu_p90_ms", "raw_setup_s"):
        median, share = spread([run["detail"][name] for run in runs])
        lines.append(f"  {name:19s} median {median:12.4f} spread {share:6.1%}  (uncalibrated)")
    return lines, steady


def main() -> None:
    seconds = SPEC["run_seconds"]
    results, steady = [], True
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
        results += runs
        lines, ok = summarise(runs)
        steady &= ok
        print(f"{workload}:", *lines, sep="\n", flush=True)
        traces = [run_once(workload, SEEDS[0], seconds, 1) for _ in range(TRACE_RUNS)]
        results += traces
        counts = [{k: v["value"] for k, v in t["metrics"].items()
                   if v["unit"] in ("count", "bytes", "ratio")} for t in traces]
        repeat = all(c == counts[0] for c in counts)
        steady &= repeat and all(t["correct"] for t in traces)
        print(f"  traced, seed {SEEDS[0]}: counts repeat {repeat}")
        for key, value in traces[0]["metrics"].items():
            values = [t["metrics"][key]["value"] for t in traces]
            print(f"    {key:30s} " + "  ".join(f"{v:12.4f}" for v in values)
                  + f"  {value['unit']}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"suite-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"seconds": seconds, "seeds": list(SEEDS),
                                "results": results}, indent=1) + "\n")
    print(f"{'steady' if steady else 'NOT steady'}; all runs in {path.relative_to(ROOT)}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
