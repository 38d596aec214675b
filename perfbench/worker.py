"""Runs one workload's requests through symlab.cli.run in this process.

Started by run.py as a fresh interpreter, so that its peak RSS belongs to
the workload alone.  Reads the request list as JSON on stdin and writes one
JSON document to stdout.  One request runs at a time, with no threads; a
request that runs past the time limit is interrupted by SIGALRM.

Untraced (--trace 0): a short untimed warm-up, then whole passes over the
list until --seconds have passed and at least MIN_SAMPLES requests have
run; every request is timed, and refspeed's reference block is timed just
before it.  Traced (--trace 1): the warm-up, one untraced pass and one
traced pass, whose time ratio at reference speed is the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import signal
import sys
import time
from pathlib import Path

import refspeed
import stats

REQUEST_LIMIT_S = 20.0
WARM_UP_S = 3.0
MIN_SAMPLES = stats.min_samples(90)


class RequestTimeout(BaseException):
    """Raised by SIGALRM inside a request; not an Exception, so symlab's
    own handlers cannot swallow it."""


def _alarm(signum, frame):
    raise RequestTimeout()


def run_one(cli, argv):
    """[latency s, exit code or None, output, error or None, reference block
    s] of one request.  The reference block (refspeed.py) runs just before
    the request and outside its latency."""
    block_s = refspeed.timed_block()
    signal.setitimer(signal.ITIMER_REAL, REQUEST_LIMIT_S)
    t0 = time.perf_counter()
    try:
        code, out = cli.run(argv)
        err = None
    except RequestTimeout:
        code, out, err = None, "", f"timed out after {REQUEST_LIMIT_S:g} s"
    except Exception as exc:  # a traceback out of run() is a failed request
        code, out, err = None, "", f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return [time.perf_counter() - t0, code, out, err, block_s]


def run_pass(cli, requests, tracer=None):
    """Run every request once.  Returns (wall seconds, records)."""
    records = []
    wall0 = time.perf_counter()
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request_id = i
        records.append(run_one(cli, req["argv"]))
    return time.perf_counter() - wall0, records


def warm_up(cli, requests):
    """Run requests from the list for WARM_UP_S, untimed and unchecked.  The
    first pass of a fresh process runs about a fifth slower while the heap
    grows and each code path runs for the first time."""
    start = time.perf_counter()
    for req in itertools.cycle(requests):
        if time.perf_counter() - start >= WARM_UP_S:
            return
        run_one(cli, req["argv"])


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB.  VmHWM belongs to the
    address space and starts afresh at exec; getrusage's ru_maxrss does
    not, since Linux carries the parent's peak into a child across
    fork and exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _reference_s(records) -> float:
    """Summed request time of one pass at reference speed (refspeed.py)."""
    return sum(r[0] * f for r, f in zip(records, refspeed.factors([r[4] for r in records])))


def _summary(wall, records, keep_output=False):
    return {
        "wall_s": wall,
        "latency_s": [r[0] for r in records],
        "exit": [r[1] for r in records],
        "sha256": [hashlib.sha256(r[2].encode()).hexdigest() for r in records],
        "error": [r[3] for r in records],
        "block_s": [r[4] for r in records],
        **({"output": [r[2] for r in records]} if keep_output else {}),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default="", help="gzip JSON-lines file for the traced spans")
    args = ap.parse_args(argv)
    requests = json.load(sys.stdin)
    sys.path.insert(0, str(Path.cwd() / "src"))
    import symlab.cli as cli

    signal.signal(signal.SIGALRM, _alarm)
    if not args.trace:
        warm_up(cli, requests)
        passes = []
        start = time.perf_counter()
        # pool whole passes until --seconds have passed and at least
        # MIN_SAMPLES latencies are in, so that ten lie beyond p90
        while (time.perf_counter() - start < args.seconds
               or len(passes) * len(requests) < MIN_SAMPLES):
            passes.append(_summary(*run_pass(cli, requests), keep_output=not passes))
        doc = {"peak_rss_mb": peak_rss_mb(), "passes": passes}
    else:
        import tracing

        warm_up(cli, requests)
        plain = run_pass(cli, requests)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(cli, requests, tracer)
        finally:
            restored = tracer.remove()
        if args.spans:
            tracer.write_spans(args.spans)
        doc = {
            "restored": restored,
            "spans": len(tracer.spans),
            "metrics": tracer.metrics(_reference_s(traced[1]) / _reference_s(plain[1])),
            "passes": [_summary(*plain, keep_output=True), _summary(*traced)],
        }
    json.dump(doc, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
