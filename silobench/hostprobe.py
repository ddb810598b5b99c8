"""Host-speed probe: a fixed piece of pure-Python work, timed.

On a shared host the same work can take 40% longer from one minute to
the next, while CPU time still equals wall time (other tenants slow the
core, they do not take it away).  The benchmark therefore times this
probe next to every measured piece and reports times scaled to a
reference host speed::

    normalized = measured * REFERENCE_S / probe_s

where ``probe_s`` is the probe's time at the moment of measurement and
``REFERENCE_S`` its typical time on the host the bounds were set on
(2 CPUs, Python 3.11).  The probe is benchmark code, so no change to
the simulator can move it.
"""

import statistics
import time

#: Probe time, in seconds, on the reference host.
REFERENCE_S = 0.0095

PROBE_ITERATIONS = 40_000


def probe():
    """Seconds taken by the fixed probe work (dict and integer
    operations, the simulator's own mix)."""
    t0 = time.perf_counter()
    table = {}
    acc = 0
    for i in range(PROBE_ITERATIONS):
        key = (i * 2654435761) & 4095
        value = table.get(key)
        if value is None:
            table[key] = i
        else:
            acc += value
    return time.perf_counter() - t0


def probe_min(count=2):
    """Fastest of ``count`` back-to-back probes (a probe interrupted by
    the scheduler reads slow; the minimum drops that)."""
    return min(probe() for _ in range(count))


def factor(probes):
    """Scale from measured to reference-host time for a piece of work
    bracketed by ``probes``."""
    return REFERENCE_S / statistics.mean(probes)
