"""The reference probes that correct timings for the host's speed.

On a shared host the CPU's speed changes from one moment to the next (on
a 2-vCPU x86-64 VM, by up to ~1.8x between states lasting from a fraction
of a second to about a minute), and CPU time slows with wall time, so no
clock filters it.  The benchmark therefore runs this fixed piece of pure
Python (integer bit operations, dict updates, small strings) next to the timed calls and scales each timing by
``REF_S / probe time``.  Over 80 s of the same calls repeated, the
medians of 20 s windows differed by up to 48% in raw time and by up to
5% once scaled (queries and bounds operations, probes between chunks of
about 0.1 s).

A CLI call is mostly interpreter start-up, which tracks the compute probe
poorly (a 90 s trial: windows of raw call time differed by 21%, and by
22% over the compute probe, but by 3% over ``start_probe``, a bare
``python -c pass``).  The cli workload therefore scales by ``start_probe``
and ``START_REF_S``.

``REF_S`` and ``START_REF_S`` are the probes' times in the fast state of
that VM, so scaled figures read as seconds on such a host.  They only set
the scale: the same constants serve every commit, so comparisons between
commits hold on any host.
"""

from __future__ import annotations

import subprocess
import sys
import time

REF_S = 0.002
START_REF_S = 0.06
PROBE_N = 3200


def probe() -> float:
    """Seconds taken by the fixed reference work, now.

    It allocates no object the garbage collector tracks, so its time does
    not depend on how large the calling process's heap is.
    """
    t0 = time.perf_counter()
    counts = dict.fromkeys(range(64), 0)
    acc = 0
    for i in range(PROBE_N):
        m = (i * 2654435761) & 0xFFFFFFFFFFFF
        key = bin(m).count("1")
        counts[key] = counts[key] + 1
        acc ^= m & (m >> 3) | key
    return time.perf_counter() - t0


def start_probe(env: dict[str, str] | None = None) -> float:
    """Seconds taken by a bare interpreter start, now."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return time.perf_counter() - t0
