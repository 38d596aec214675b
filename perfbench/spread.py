"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10                  # all workloads
    python3 perfbench/spread.py --seeds 1-5 --workloads family_limits
    python3 perfbench/spread.py --seeds 1-10 --write          # also BASELINE.json

For each workload and end-to-end metric it prints the median, the first and
third quartile (statistics.quantiles(values, n=4)) and their distance as a
share of the median, next to a third of the metric's bound in
BENCHMARK.json.  With --write it adds one traced run per workload and
writes perfbench/BASELINE.json: the machine, the per-seed values and
quartiles, the per-layer numbers, and the layer-to-metric predictions.
Workloads not run keep their entries from the existing file.
Runs go one at a time, so they do not compete for the processor.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import stats
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode:
        raise SystemExit(f"{workload} seed {seed} failed: {done.stderr.strip()}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(done.stdout, file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed requests")
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workloads", default="all")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--write", action="store_true", help="write perfbench/BASELINE.json")
    args = ap.parse_args()
    names = workloads.WORKLOADS if args.workloads == "all" else args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    path = HERE / "BASELINE.json"
    previous = json.loads(path.read_text())["workloads"] if path.exists() else {}
    baseline = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "implementation": platform.python_implementation(),
                    "system": platform.system(), "machine": platform.machine()},
        "run_seconds": args.seconds,
        "predictions": tracing.PREDICTIONS,
        "workloads": previous,
    }
    worst = 0.0
    for w in names:
        runs = [run_once(w, s, args.seconds, 0) for s in _seeds(args.seeds)]
        table = {}
        print(f"{w}: {len(runs)} seeds ({args.seeds}), {runs[0]['attempted']} requests in "
              f"the first run")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = stats.iqr_share(values)
            if name != "setup_s":
                worst = max(worst, share / bound)
            table[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                           "q1": q1, "q3": q3, "iqr_share": share, "values": values}
            print(f"  {name:16s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {share:6.3f}  bound/3 {bound / 3:6.3f}"
                  f"{'' if share < bound / 3 else '  WIDE'}", flush=True)
        entry = {"why": next(x["why"] for x in bench["workloads"] if x["name"] == w),
                 "seeds": _seeds(args.seeds), "end_to_end": table}
        if args.write:
            traced = run_once(w, _seeds(args.seeds)[0], args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        baseline["workloads"][w] = entry
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.3f}")
    if args.write:
        path.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
