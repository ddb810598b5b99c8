"""Hierarchical wall-clock self-profiler (``--profile``).

Answers "where does the *simulator* spend its time" -- not simulated
time -- with explicit regions for every architectural layer: the drive
loop (``warmup``/``measure``), L1/vault/NUCA lookup, coherence, the
directory, the NoC, memory and ECC recovery.  The per-region report
(inclusive/exclusive seconds, calls, events/sec) gives the per-layer
cost split from live measurements instead of a hand-timed run.

Off-state cost is exactly zero on the hot path: nothing is wrapped and
``_drive``/``System.access`` run byte-for-byte unmodified.  When a
session enables profiling, :func:`instrument` monkey-patches *instance*
attributes of one System (``system.access``, the miss paths, the
coherence helpers, ``memory.access``, the mesh latency method) with
timed closures; the class methods -- and every uninstrumented System --
are untouched.  Wrapping
only ever *reads* simulator state plus the wall clock, so profiled runs
stay bit-identical (tests/test_obs_inert.py).

This module also owns :data:`clock`, the one sanctioned wall-clock
source for simulator code: silolint SL008 flags raw ``time.time()`` /
``time.perf_counter()`` / ``time.monotonic()`` calls in ``sim/``,
``caches/``, ``coherence/`` and ``noc/`` so that every measurement a
run records flows through the same clock the profiler uses.
"""

import time
from contextlib import contextmanager

#: The sanctioned wall-clock for simulator self-measurement.  Simulator
#: packages import this instead of calling ``time.perf_counter()``
#: directly (silolint SL008), so profiler regions and the driver's
#: throughput meter are guaranteed to read the same clock.
clock = time.perf_counter


class Region:
    """One node of the region tree: cumulative wall clock and call
    count for a named region, with children keyed by region name."""

    __slots__ = ("name", "calls", "total_s", "child_s", "children")

    def __init__(self, name):
        self.name = name
        self.calls = 0
        self.total_s = 0.0
        #: Seconds spent inside child regions (exclusive = total - child).
        self.child_s = 0.0
        self.children = {}


class Profiler:
    """Stack-based hierarchical region profiler.

    A region entered while another is open becomes its child, so the
    tree mirrors the dynamic call structure (``measure`` > ``access``
    > ``vault`` > ``memory``).  Inclusive time is a node's total;
    exclusive time subtracts the time attributed to its children.
    """

    def __init__(self):
        self.root = Region("session")
        self._current = self.root
        self._t0 = clock()
        self._stop_t = None
        #: Measured events driven while this profiler was active
        #: (fed by ``run_system``; the events/sec denominators).
        self.driven_events = 0

    # -- region entry ---------------------------------------------------

    def _child(self, name):
        cur = self._current
        node = cur.children.get(name)
        if node is None:
            node = cur.children[name] = Region(name)
        return node

    @contextmanager
    def region(self, name):
        """Time the block as a region nested under the current one."""
        parent = self._current
        node = self._child(name)
        self._current = node
        t0 = clock()
        try:
            yield node
        finally:
            dt = clock() - t0
            node.calls += 1
            node.total_s += dt
            parent.child_s += dt
            self._current = parent

    def wrap(self, name, fn):
        """A timed closure over ``fn``: each call runs inside a region
        named ``name`` nested under whatever region is open when the
        call happens.  Used by :func:`instrument` to patch instance
        attributes; the class methods stay untouched."""
        def timed(*args, **kwargs):
            parent = self._current
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = Region(name)
            self._current = node
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                node.calls += 1
                node.total_s += dt
                parent.child_s += dt
                self._current = parent
        return timed

    # -- accounting hooks ----------------------------------------------

    def add_events(self, n):
        """Credit ``n`` measured driven events (events/sec numerator)."""
        self.driven_events += n

    # -- lifecycle / report --------------------------------------------

    def stop(self):
        """Freeze the wall clock (idempotent; called when the owning
        observation session closes)."""
        if self._stop_t is None:
            self._stop_t = clock()

    def wall_s(self):
        """Seconds from construction to :meth:`stop` (or to now)."""
        return (self._stop_t if self._stop_t is not None
                else clock()) - self._t0

    def report(self):
        """The full profile as plain data: per-region inclusive and
        exclusive seconds, call counts, percentage of wall clock,
        microseconds per driven event, plus the covered fraction
        (top-level region time over wall clock -- the >= 95% acceptance
        gate)."""
        wall = self.wall_s()
        events = self.driven_events
        regions = []

        def walk(node, path, depth):
            excl = node.total_s - node.child_s
            regions.append({
                "path": path,
                "name": node.name,
                "depth": depth,
                "calls": node.calls,
                "inclusive_s": node.total_s,
                "exclusive_s": excl,
                "inclusive_pct": (100.0 * node.total_s / wall
                                  if wall > 0 else 0.0),
                "exclusive_pct": (100.0 * excl / wall
                                  if wall > 0 else 0.0),
                "us_per_event": (1e6 * node.total_s / events
                                 if events else 0.0),
            })
            for child in node.children.values():
                walk(child, path + "." + child.name, depth + 1)

        covered = 0.0
        for child in self.root.children.values():
            covered += child.total_s
            walk(child, child.name, 0)
        return {
            "wall_s": wall,
            "driven_events": events,
            "events_per_sec": events / wall if wall > 0 else 0.0,
            "covered_s": covered,
            "covered_fraction": covered / wall if wall > 0 else 0.0,
            "regions": regions,
        }


def render_report(report):
    """Human-readable profile table (the per-layer cost split):
    one indented row per region with inclusive/exclusive time and the
    share of measured wall clock."""
    lines = []
    lines.append("# self-profile: %.3fs wall, %d events, %.0f ev/s, "
                 "%.1f%% covered"
                 % (report["wall_s"], report["driven_events"],
                    report["events_per_sec"],
                    100.0 * report["covered_fraction"]))
    header = "%-34s %10s %10s %7s %7s %10s" % (
        "region", "incl_s", "excl_s", "incl%", "excl%", "calls")
    lines.append(header)
    lines.append("-" * len(header))
    for r in report["regions"]:
        name = "  " * r["depth"] + r["name"]
        lines.append("%-34s %10.4f %10.4f %6.1f%% %6.1f%% %10d"
                     % (name, r["inclusive_s"], r["exclusive_s"],
                        r["inclusive_pct"], r["exclusive_pct"],
                        r["calls"]))
    return "\n".join(lines)


def _wrap_attr(profiler, obj, attr, region):
    """Patch ``obj.<attr>`` with a timed closure; silently skip seams
    an object cannot carry (``__slots__`` without the name)."""
    try:
        setattr(obj, attr, profiler.wrap(region, getattr(obj, attr)))
    except AttributeError:
        pass


def instrument(profiler, system):
    """Install per-region timing on one System's instance seams.

    Region map: ``access`` is
    ``System.access`` (its exclusive time = L1 lookup plus per-event
    bookkeeping), ``nuca``/``vault`` are the shared/private miss
    paths, ``coherence`` covers upgrades, peer invalidations and MOESI
    downgrades, ``directory`` the sharer-table/duplicate-tag lookups,
    ``noc`` the mesh latency calls, ``memory`` main-memory access,
    ``ecc`` the fault-recovery paths.  The miss paths inline their
    common hops and the demand memory read, so that time counts in
    the miss-path region, not in ``noc``/``memory``: on SILO runs the
    home-node hop in ``vault``, on shared runs the home-bank and
    memory-port hops in ``nuca``.  Only instance attributes are
    written; an uninstrumented System shares none of them.
    """
    _wrap_attr(profiler, system, "access", "access")
    if system.sharer_table is not None:
        _wrap_attr(profiler, system, "_miss_shared", "nuca")
        _wrap_attr(profiler, system.sharer_table, "owner", "directory")
    if system.directory is not None:
        _wrap_attr(profiler, system, "_miss_private", "vault")
        _wrap_attr(profiler, system.directory, "holder_states",
                   "directory")
    for name in ("_write_upgrade", "_invalidate_peer_l1s",
                 "_invalidate_peer_vaults", "_downgrade_supplier"):
        _wrap_attr(profiler, system, name, "coherence")
    _wrap_attr(profiler, system.memory, "access", "memory")
    _wrap_attr(profiler, system.mesh, "latency", "noc")
    if system.faults is not None:
        for name in ("_vault_hit_faults", "_directory_faults",
                     "_shared_llc_fault"):
            _wrap_attr(profiler, system, name, "ecc")


def trace_events(report, pid=1):
    """Chrome-tracing ``X`` events for a profile report: a synthetic
    timeline where each region occupies a span sized by its inclusive
    time and children are laid out sequentially inside their parent
    (Perfetto renders it as a flame chart)."""
    events = [{"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
               "args": {"name": "self-profile (aggregate)"}}]
    by_path = {r["path"]: r for r in report["regions"]}
    offsets = {}
    cursor = [0.0]

    def start_of(path):
        if path in offsets:
            return offsets[path]
        parent, _, _ = path.rpartition(".")
        if parent:
            base = start_of(parent)
            sibling_end = base
            for other, off in offsets.items():
                if (other.rpartition(".")[0] == parent
                        and other != path):
                    end = off + by_path[other]["inclusive_s"]
                    if end > sibling_end:
                        sibling_end = end
            offsets[path] = sibling_end
        else:
            offsets[path] = cursor[0]
            cursor[0] += by_path[path]["inclusive_s"]
        return offsets[path]

    for r in report["regions"]:
        ts = start_of(r["path"]) * 1e6
        events.append({
            "ph": "X", "name": r["name"], "cat": "profile",
            "pid": pid, "tid": 0, "ts": ts,
            "dur": r["inclusive_s"] * 1e6,
            "args": {"calls": r["calls"],
                     "exclusive_s": r["exclusive_s"]},
        })
    return events
