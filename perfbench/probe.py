"""Host-speed probe: a fixed piece of exact arithmetic timed before each request.

On a shared 2-core x86-64 host (Python 3.11) the CPU speed a process gets
drifted by tens of percent over seconds to minutes and moved every request
of a run together: over ten seeds the quartile spread of raw time metrics
reached 0.34 of their median.

On 40 runs (10 seeds x 4 workloads) the log of each run's time metrics
followed the log of this probe's median time with correlation 0.7-0.98 and
slope 0.45-0.77 for all metrics but the `bulk` tail (slope 0.18): smalg
requests feel the drift about half as much as the probe does. So a run
reports its time metrics at a reference host speed, multiplying latencies
by ``(REFERENCE_S / probe) ** EXPONENT`` and dividing rates by it. On 40
later runs not used for that fit, with a fixed round count, the raw spreads
were 0.06-0.25 and the scaled ones 0.03-0.14; scaling narrowed every
spread but the `bulk` tail's (0.12 raw, 0.14 scaled). The raw values are
kept in the result file. The probe is the benchmark's own elimination code
(perfbench.gauss), never smalg, so a change to smalg moves the scaled and
the raw values alike.
"""

from __future__ import annotations

import random
import time

from . import gauss as G

# Median probe time over those runs, and the measured typical slope.
REFERENCE_S = 0.002
EXPONENT = 0.5

_rng = random.Random(20240916)
MATRIX = [[G.g(_rng.randint(-3, 3), _rng.randint(-1, 1)) for _ in range(6)] for _ in range(6)]


def measure() -> float:
    """Seconds the rank of a fixed 6x6 Gaussian-rational matrix takes now."""
    start = time.perf_counter_ns()
    G.rank(MATRIX)
    return (time.perf_counter_ns() - start) / 1e9


def latency_scale(probe_s: float) -> float:
    """Factor taking latencies measured while the probe took ``probe_s``
    to the reference host speed."""
    return (REFERENCE_S / probe_s) ** EXPONENT
