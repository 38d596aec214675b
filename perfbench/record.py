"""Record the reference outputs of the request pool.

    python3 perfbench/record.py

Builds the pool from workloads.POOL_SEED, runs every request once through
symlab.cli.run, and writes its exit code, output digest and time at
reference speed (refspeed.py), which workloads.sample stratifies by, to
refs/pool.json.  Before writing, every output must pass the checks the
benchmark applies (golden files, invariants, `error:` lines for malformed
input, exit 0 for the rest).  Rerun only at a commit whose outputs are
known to be right; a changed reference is a changed benchmark.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import checks
import refspeed
import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from symlab.cli import run

    pool = workloads.build_pool()
    bad, blocks, wall_ms = 0, [], []
    for req in pool:
        blocks.append(refspeed.timed_block())
        t0 = time.perf_counter()
        code, out = run(req["argv"])
        ms = (time.perf_counter() - t0) * 1000
        wall_ms.append(ms)
        req["exit"] = 1 if req["check"]["kind"] == "malformed" else 0
        req["sha256"] = checks.digest(out)
        probs = checks.check_output(req, code, out, root / "tests" / "golden")
        if probs:
            bad += 1
            print(f"{req['id']} {req['argv']}: {'; '.join(probs)}", file=sys.stderr)
        print(f"{ms:9.1f} ms  {req['id']}", file=sys.stderr)
    if bad:
        print(f"{bad} requests failed their checks; nothing written", file=sys.stderr)
        return 1
    for req, ms, factor in zip(pool, wall_ms, refspeed.factors(blocks)):
        req["ms"] = round(ms * factor, 1)
    lines = ",\n".join(json.dumps(r) for r in pool)
    (HERE / "refs").mkdir(exist_ok=True)
    (HERE / "refs" / "pool.json").write_text(
        f'{{"pool_seed": {workloads.POOL_SEED}, "requests": [\n{lines}\n]}}\n')
    print(f"recorded {len(pool)} requests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
