"""A fixed computation that measures how fast the machine is right now.

On a shared host the CPU's speed drifts by a third or more within minutes
(clock boost, neighbours on the same core), and CPU time does not see that.
`run.py` times `reference_work` just before every library call and scales the
call by `REFERENCE_S` over the median of the nearby reference times, so a
figure reads as seconds on a machine where `reference_work` takes
`REFERENCE_S`.

The work is pure Python of the kinds the library does (tuples, dicts, sets,
sorting, GF(2) rows as int masks), uses no string hashing (its amount of
work is the same in every process) and nothing of `planarity_ht`, so a
change to the library never changes the yardstick.
"""

from __future__ import annotations

import gc
import random
from itertools import combinations

from tracing import clock

# reference_work's CPU time on the machine the benchmark was made on
# (2 shared vCPUs of an Intel Xeon at 2.1 GHz, Python 3.11.7)
REFERENCE_S = 0.0012


def reference_work() -> int:
    rng = random.Random(20181009)
    level = {v: v % 5 for v in range(40)}
    edges = sorted({(u, v) for u, v in ((rng.randrange(40), rng.randrange(40)) for _ in range(160))
                    if level[v] == level[u] + 1})
    pairs: dict[tuple, int] = {}
    for e, f in combinations(edges, 2):
        if e[0] != f[0] and e[1] != f[1]:
            pairs[(e, f)] = len(pairs)
    pivots: dict[int, tuple[int, int]] = {}
    for (e, f), i in pairs.items():
        mask = 1 << (i % 120) | 1 << ((i * 7 + e[0]) % 120) | 1 << ((f[1] * 13 + i) % 120)
        parity = (e[0] + f[1]) & 1
        while mask:
            low = mask & -mask
            if low not in pivots:
                pivots[low] = (mask, parity)
                break
            mask ^= pivots[low][0]
            parity ^= pivots[low][1]
    return len(pivots) + len(pairs)


def reference_seconds() -> float:
    """CPU seconds of one reference_work, with the cyclic collector off.

    The collector's cost grows with the library's heap; with it off, the
    reference measures the machine only.  reference_work makes no cycles.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        reference_work()
        return clock() - start
    finally:
        if enabled:
            gc.enable()
