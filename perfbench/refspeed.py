"""How fast the machine runs Python right now, from a fixed reference block.

The benchmark's machine may be shared: the same request can take a third
longer for minutes at a time while other tenants are busy, which moves every
timing of a run by the same factor.  The worker times `block()` (stdlib
integer, Fraction and dict work, none of it symlab code) just before every
request.  A request's wall time scaled by the median of the block times
around it (`factor`) is its time at reference speed: what it would take on a
machine that runs the block in NOMINAL_S.  A change to symlab moves the
request times and not the block, so it shows in full; a change in the
machine's speed moves both, and cancels.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Median time of one block on the machine that recorded BASELINE.json.
NOMINAL_S = 0.001

# Block times on each side of a request that its speed factor is taken from.
HALF_WINDOW = 5

# How strongly symlab's times follow the block's.  Across runs on the shared
# machine the block ran between 0.9 and 1.7 ms, and the workloads' wall-clock
# request rates moved as the block time to the power 0.6 (family_limits),
# 0.7 (finite_enum) and 0.85 (cli_mix): they wait on memory more than the
# block does, which clock-speed changes do not shorten.  Scaling by the full
# ratio overcorrected family_limits by up to a quarter.
SENSITIVITY = 0.7


def block() -> int:
    """Fixed work of about NOMINAL_S: integer, Fraction and dict
    arithmetic, the kinds of work symlab does most."""
    acc, total, table = Fraction(0), 0, {}
    for i in range(1, 340):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        total += i * i % 7
        key = (i % 5, i % 3)
        table[key] = table.get(key, 0) + i
    return total + acc.numerator + len(table)


def timed_block() -> float:
    """Wall seconds of one block, with the cyclic garbage collector off so
    that the size of symlab's heap does not leak into the reading."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        block()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factor(block_s: float) -> float:
    """The factor that takes a time measured while the block took `block_s`
    to reference speed."""
    return (NOMINAL_S / block_s) ** SENSITIVITY


def factors(block_s: list[float], half: int = HALF_WINDOW) -> list[float]:
    """Per-request speed factors from the block times, in run order, each
    from the median of the block times within `half` places either side."""
    out = []
    for i in range(len(block_s)):
        lo, hi = max(0, i - half), min(len(block_s), i + half + 1)
        out.append(factor(statistics.median(block_s[lo:hi])))
    return out
