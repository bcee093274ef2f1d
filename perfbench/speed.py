"""Machine speed probe: a fixed pure-Python loop, and the factor that scales
times measured beside it to a reference machine speed.

On the 2-vCPU Intel Xeon VM the benchmark was tuned on, the speed of
pure-Python code drifted by up to ~1.5x over minutes (other tenants' load).
The probe tracked it.  Over windows of 12 session-warm rounds, the IQR/median
of stream time was 0.10, and of stream time divided by probe time 0.02.
Over 6 runs with probes timed between requests, the IQR/median of ops_per_s
went from 0.17 to 0.06 on cli-startup and from 0.10 to 0.04 on cli-heavy.
"""

from __future__ import annotations

import statistics
import time

REF_S = 0.0017  # probe()'s median on the tuning VM


def probe() -> float:
    """Seconds taken by a fixed interpreter loop (about 2 ms)."""
    t0 = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i % 7
    return time.perf_counter() - t0


def scale(probes: list[float]) -> float:
    """Factor that brings a time measured while the probe took `probes` to
    the reference speed: t is reported as t * REF_S / mean(probes)."""
    return REF_S / statistics.fmean(probes)
