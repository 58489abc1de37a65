"""The machine's current speed, read from a fixed reference loop.

The 2-vCPU virtual machine the benchmark was built on runs the same Python
code up to 1.5x slower for stretches of seconds to minutes. Timed beside the
program, a fixed loop of the work gpqm's simulator and planner do (heap, dict,
float and random-number work) slows with it: in a 90 s probe, the median ratio
of a `simulate` call to the loop timed right after it stayed within 0.290-0.304
per 5 s window while the call's own median moved between 21.6 and 28.6 ms.
So the benchmark scales every time it reports by UNIT_S over the loop's
measured time per unit: times read as seconds on the machine at its nominal
speed. Standard library only, so a fresh interpreter can time `import gpqm`
before anything else of the benchmark's is loaded.
"""

from __future__ import annotations

import heapq
import random
import time

UNIT_ITERS = 2000
UNIT_S = 3.0e-3  # nominal seconds per unit: about the loop's median on the machine


def unit_s(units: int) -> float:
    """Wall seconds per unit of the reference loop, over `units` units."""
    rng = random.Random(12345)
    heap: list = []
    table: dict = {}
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(units * UNIT_ITERS):
        heapq.heappush(heap, (rng.random(), i))
        table[i & 1023] = acc
        acc += (i * 0.5) ** 0.5
        if len(heap) > 64:
            heapq.heappop(heap)
    return (time.perf_counter() - t0) / units
