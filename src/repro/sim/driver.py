"""Run driver: feeds per-core traces through a System and returns a
:class:`RunResult` -- the live system plus the run's
:class:`~repro.sim.engine.RunSummary`.

Cores are interleaved in slices of :data:`CHUNK` events (coherence
interactions between cores happen at that granularity, which is far
finer than any reuse distance that matters here).  Each core keeps an
approximate local clock -- base CPI plus its exposed stall cycles --
which also timestamps memory-controller bank occupancy.
"""

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.obs import session as _obs_session
from repro.obs.profile import clock
from repro.sim.system import System

#: Core-interleave grain in events: a constant, so in no request key.
CHUNK = 200


class EventLanes:
    """First-class pre-decoded event lanes of one trace: the write and
    ifetch flags split out and the stall-time multiplier
    (ifetch_stall_factor for ifetches, 1/mlp for data) resolved per
    event.

    The decode is vectorized with numpy and done once per
    trace+params; warmup and measure phases -- and any later run over
    the same trace -- reuse it (memoized on the trace by
    :func:`_decoded_lanes`).  The hot loop indexes plain Python lists
    (``tolist()``), which CPython reads faster than numpy scalars.
    Values are bit-identical to the original per-event ``iff if fl & 2
    else inv_mlp`` decode: both multiplier operands are the same two
    Python floats either way.
    """

    __slots__ = ("blocks", "writes", "ifetches", "lat_mul")

    def __init__(self, trace, params):
        flags = np.asarray(trace.flags, dtype=np.int64)
        ifetch_bits = flags & 2
        self.blocks = trace.blocks
        self.writes = (flags & 1).tolist()
        self.ifetches = ifetch_bits.tolist()
        self.lat_mul = np.where(ifetch_bits != 0,
                                params.ifetch_stall_factor,
                                1.0 / params.mlp).tolist()


def _decoded_lanes(trace, params):
    """The trace's :class:`EventLanes`, memoized on the trace object
    (keyed by the CoreParams that shaped them)."""
    cached = getattr(trace, "cached_lanes", None)
    if cached is not None and cached[0] == params:
        return cached[1]
    lanes = EventLanes(trace, params)
    trace.cached_lanes = (params, lanes)
    return lanes


def _per_core_state(system, traces):
    """Per-core hot-loop state: core id, the cycles retired per event
    and the decoded :class:`EventLanes`, so ``_drive`` does no
    per-event flag tests or attribute lookups."""
    out = []
    for tr in traces:
        p = system.cores[tr.core_id].params
        out.append((tr.core_id, tr.instr_per_event * p.base_cpi,
                    _decoded_lanes(tr, p)))
    return out


# silolint: hotpath
def _drive(system, per_core, starts, ends, times, chunk, sampler=None):
    """Interleave cores in ``chunk``-sized slices from per-core start to
    per-core end positions (positions may differ when prewarm prefixes
    have different lengths).  Every event goes through
    ``System.access``; the core's clock advances by its per-event base
    cycles plus the exposed latency scaled by the event's stall
    multiplier.

    ``sampler`` is an optional
    :class:`repro.obs.telemetry.TelemetrySampler` ticked once per
    interleave *round* (not per event) with the cumulative driven
    count; disabled telemetry costs one ``is not None`` test per round.
    """
    access = system.access
    positions = list(starts)
    remaining = sum(e - s for s, e in zip(starts, ends))
    total = remaining
    while remaining > 0:
        for idx, (core, cpi_ev, lanes) in enumerate(per_core):
            pos = positions[idx]
            hi = min(pos + chunk, ends[idx])
            if pos >= hi:
                continue
            blocks = lanes.blocks
            writes = lanes.writes
            ifetches = lanes.ifetches
            lat_mul = lanes.lat_mul
            t = times[core]
            for i in range(pos, hi):
                lat = access(core, blocks[i], writes[i], ifetches[i], t)
                t += cpi_ev
                if lat:
                    t += lat * lat_mul[i]
            times[core] = t
            remaining -= hi - pos
            positions[idx] = hi
        if sampler is not None:
            sampler.tick(total - remaining)


@dataclass
class RunResult:
    """One finished run: the live ``System``, its
    :class:`~repro.sim.engine.RunSummary` (every metric and the
    manifest) and the measure-phase telemetry sampler (or None)."""

    system: System
    summary: object
    telemetry: Optional[object] = None


def run_system(system, traces, warmup_events, measure_events, seed=None,
               request_key=""):
    """Warm up (prewarm prefix + ``warmup_events``), reset statistics,
    measure ``measure_events`` per core; returns a RunResult whose
    summary is stamped with ``seed`` and ``request_key``.

    Both phases are wall-clock timed (the simulator's self-profiling
    throughput meter).  If an observation session is open (CLI
    ``--stats/--trace/--manifest``), a tracer is attached before
    driving and a provenance record is deposited after.
    """
    from repro.sim.engine import summarize

    warm_ends = []
    for tr in traces:
        end = tr.prewarm_events + warmup_events
        if len(tr) < end + measure_events:
            raise ValueError("trace for core %d has %d events, need %d"
                             % (tr.core_id, len(tr),
                                end + measure_events))
        warm_ends.append(end)
    session = _obs_session.current_session()
    profiler = session.profiler if session is not None else None
    telemetry_every = (session.telemetry_every if session is not None
                       else 0)
    if session is not None:
        session.attach(system)
    if profiler is not None:
        from repro.obs.profile import instrument
        instrument(profiler, system)
    sampler = None
    if telemetry_every > 0:
        # built here (the registry walk is the expensive part) and
        # re-armed after the warmup-boundary reset, so the timed
        # measure window only pays the per-window sampling cost
        from repro.obs.telemetry import TelemetrySampler
        sampler = TelemetrySampler(system, telemetry_every)
    times = [0.0] * system.num_cores
    per_core = _per_core_state(system, traces)
    system.measuring = False
    t0 = clock()
    with (profiler.region("warmup") if profiler is not None
          else nullcontext()):
        _drive(system, per_core, [0] * len(traces), warm_ends, times,
               CHUNK)
    t1 = clock()
    system.reset_stats()
    system.measuring = True
    if sampler is not None:
        sampler.start()
    with (profiler.region("measure") if profiler is not None
          else nullcontext()):
        _drive(system, per_core, warm_ends,
               [e + measure_events for e in warm_ends], times, CHUNK,
               sampler)
    t2 = clock()
    if sampler is not None:
        sampler.finish(measure_events * len(traces))
    for tr in traces:
        system.cores[tr.core_id].retire(
            int(measure_events * tr.instr_per_event))
    summary = summarize(system, [tr.core_id for tr in traces],
                        warmup_events, measure_events, t1 - t0, t2 - t1,
                        seed=seed, request_key=request_key)
    result = RunResult(system=system, summary=summary, telemetry=sampler)
    if profiler is not None:
        profiler.add_events(summary.driven_events())
    if session is not None:
        session.note_run(result)
    return result


def simulate(config, spec, plan, seed=0, track_sharing=False, faults=None):
    """Convenience wrapper: run ``spec`` on every core of ``config``
    through :func:`repro.sim.engine.execute_request` and return the
    RunResult.  ``faults`` is an optional
    :class:`repro.faults.FaultPlan`, taken as given (an ambient
    :func:`repro.faults.use_plan` does not apply); inactive plans
    attach nothing (bit-identical to fault-free)."""
    from repro.sim.engine import RunRequest, execute_request

    return execute_request(RunRequest(
        config=config,
        placements=((spec, tuple(range(config.num_cores))),),
        plan=plan, seed=seed, track_sharing=track_sharing,
        faults=faults))
