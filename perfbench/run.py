"""The symlab benchmark: seeded CLI workloads, end-to-end and per-layer.

Run from the repository root:

    python3 perfbench/run.py --workload family_limits --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

--trace 0 measures the end-to-end metrics with tracing off: setup_s from
fresh interpreters, then a fresh worker process (worker.py) that replays the
workload's requests through symlab.cli.run for --seconds.  Times are
reported at reference speed (refspeed.py), with the wall-clock values
beside them.  --trace 1 makes a separate traced run (tracing.py) and
reports the per-layer metrics.  Every output is checked after the timed
section (checks.py); a failed check counts toward error_rate.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Full
results, and the spans of a traced run, are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import refspeed
import stats
import workloads

HERE = Path(__file__).resolve().parent
POOL_FILE = HERE / "refs" / "pool.json"
OUT_DIR = HERE / "out"
SETUP_RUNS = 15
WORKER_TIMEOUT_S = 170
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import symlab.cli\n"
    "symlab.cli.build_parser()\n"
    "setup = time.perf_counter() - t0\n"
    f"sys.path.insert(0, {str(HERE)!r})\n"
    "import refspeed, statistics\n"
    "blocks = [refspeed.timed_block() for _ in range(30)][10:]\n"
    "print(setup, statistics.median(blocks))\n"
)
END_TO_END = [
    ("requests_per_s", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
]


class BenchError(RuntimeError):
    pass


def _env(root: Path) -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(root / "src") + (os.pathsep + path if path else ""))


def load_pool() -> list[dict]:
    """The recorded pool, checked against the generator."""
    doc = json.loads(POOL_FILE.read_text())
    fresh = workloads.build_pool(doc["pool_seed"])
    recorded = [(r["id"], r["cat"], r["argv"], r["check"]) for r in doc["requests"]]
    if recorded != [(r["id"], r["cat"], r["argv"], r["check"]) for r in fresh]:
        raise BenchError("refs/pool.json does not match workloads.py; rerun record.py")
    return doc["requests"]


def measure_setup(root: Path) -> tuple[float, float]:
    """Median over fresh interpreters of the time to import symlab.cli and
    build its parser, timed inside each interpreter, at reference speed and
    as wall time.  Each interpreter then times refspeed's block to give its
    speed.  One untimed run first writes the bytecode cache, which a shell
    user pays only once."""
    times, walls = [], []
    for i in range(SETUP_RUNS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=_env(root),
                              capture_output=True, text=True, timeout=60)
        if done.returncode:
            raise BenchError(f"set-up interpreter failed: {done.stderr.strip()}")
        if i:
            setup, block = map(float, done.stdout.split())
            times.append(setup * refspeed.factor(block))
            walls.append(setup)
    return statistics.median(times), statistics.median(walls)


def run_worker(root: Path, requests, seconds: float, trace: int, spans: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--seconds", str(seconds),
           "--trace", str(trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        done = subprocess.run(cmd, cwd=root, env=_env(root), input=json.dumps(requests),
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ran past {WORKER_TIMEOUT_S} s") from None
    if done.returncode:
        raise BenchError(f"worker failed: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout)


def find_failures(requests, passes, golden_dir: Path) -> list[dict]:
    """One entry per failed request execution.  The first pass is checked in
    full; every later pass must give its exit codes and outputs again."""
    first = passes[0]
    failures = []
    for i, req in enumerate(requests):
        probs = [first["error"][i]] if first["error"][i] else checks.check_output(
            req, first["exit"][i], first["output"][i], golden_dir)
        for p, ps in enumerate(passes):
            again = [msg for msg, bad in (
                (ps["error"][i], ps["error"][i]),
                ("output differs from the first pass",
                 (ps["exit"][i], ps["sha256"][i]) != (first["exit"][i], first["sha256"][i])),
            ) if bad]
            if probs or again:
                failures.append({"id": req["id"], "pass": p, "argv": req["argv"],
                                 "problems": probs + again})
    return failures


def _timings(lat_ms: list[list[float]]) -> dict:
    """requests_per_s over the whole passes (requests completed over the sum
    of their latencies, so the number of passes does not bias it) and the
    percentiles of the latencies of all passes."""
    pooled = [x for ps in lat_ms for x in ps]
    return {"requests_per_s": len(pooled) * 1000 / sum(pooled),
            "latency_p50_ms": stats.percentile(pooled, 50),
            "latency_p90_ms": stats.percentile(pooled, 90)}


def run_workload(root: Path, pool, workload: str, seed: int, seconds: float, trace: int,
                 setup: tuple[float, float] | None) -> dict:
    requests = workloads.sample(pool, workload, seed)
    spans = OUT_DIR / f"spans-{workload}-s{seed}.jsonl.gz" if trace else None
    doc = run_worker(root, requests, seconds, trace, spans)
    passes = doc["passes"]
    failures = find_failures(requests, passes, root / "tests" / "golden")
    attempted = len(requests) * len(passes)
    if trace and not doc["restored"]:
        failures.append({"id": "*", "pass": 1, "problems": ["tracer left a wrapper in place"]})
    failed = min(len({(f["id"], f["pass"]) for f in failures}), attempted)
    result = {"workload": workload, "seed": seed, "trace": trace, "requests": len(requests),
              "passes": len(passes), "attempted": attempted, "failed": failed,
              "error_rate": failed / attempted, "failures": failures}
    if trace:
        result.update(metrics=doc["metrics"], spans=doc["spans"], spans_file=str(spans))
        return result
    # every latency at reference speed, from the block timed before it
    speed = refspeed.factors([b for ps in passes for b in ps["block_s"]])
    lat_ms, wall_ms, k = [], [], 0
    for ps in passes:
        wall_ms.append([x * 1000 for x in ps["latency_s"]])
        lat_ms.append([x * f for x, f in zip(wall_ms[-1], speed[k:])])
        k += len(requests)
    values = {**_timings(lat_ms), "peak_rss_mb": doc["peak_rss_mb"],
              "setup_s": setup[0]}
    wall = {**_timings(wall_ms), "setup_s": setup[1]}
    result.update(pass_wall_s=[ps["wall_s"] for ps in passes], latency_ms=lat_ms,
                  wall_latency_ms=wall_ms, speed_factor=statistics.median(speed),
                  samples=k, beyond_p90=stats.beyond(k, 90),
                  metrics={m: {"value": values[m], "unit": u} for m, u in END_TO_END},
                  wall_metrics=wall)
    return result


def report(result: dict):
    """Human-readable lines for one workload."""
    r = result
    print(f"workload {r['workload']}  seed {r['seed']}  trace {r['trace']}  "
          f"requests/pass {r['requests']}  passes {r['passes']}")
    if "samples" in r:
        note = "" if r["beyond_p90"] >= stats.MIN_BEYOND else "  (fewer than 10 beyond p90)"
        print(f"  latency samples {r['samples']}, {r['beyond_p90']} beyond p90{note}")
        print(f"  times at reference speed; machine speed factor {r['speed_factor']:.4f} "
              f"(wall time in brackets)")
    print(f"  error_rate {r['error_rate']:.4f} fraction ({r['failed']}/{r['attempted']})")
    if checks.sympy is None:
        print("  note: sympy is not installed; generic maps were not checked")
    for f in r["failures"][:10]:
        print(f"  FAILED {f['id']} pass {f['pass']}: {'; '.join(f['problems'])}")
    for name, m in r["metrics"].items():
        wall = r.get("wall_metrics", {}).get(name)
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}"
              + (f"  ({wall:.6g})" if wall is not None else ""))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    try:
        for need in (root / "src" / "symlab" / "cli.py", root / "tests" / "golden", POOL_FILE):
            if not need.exists():
                raise BenchError(f"{need} is missing; run from the repository root")
        pool = load_pool()
        OUT_DIR.mkdir(exist_ok=True)
        setup = None if args.trace else measure_setup(root)
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_workload(root, pool, w, args.seed, args.seconds, args.trace, setup)
                   for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for r in results:
        report(r)
        out = OUT_DIR / f"result-{r['workload']}-s{r['seed']}-t{r['trace']}.json"
        out.write_text(json.dumps(r, indent=1))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in results for m, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
