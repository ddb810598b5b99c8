"""Outside-in span tracer for the benchmark's traced run.

The tracer replaces functions and class methods of the ``repro``
package with wrappers that record one span per call: layer, start,
end, thread and the span that was open when the call began (the parent
link).  Nothing under ``src/`` is edited; the wrappers are installed
from here and removed afterwards.

Spans are reduced online into per-layer records, because the simulator
makes tens of millions of wrapped calls per grid and a list of every
span would not fit in memory.  For each layer the record holds::

    calls         invocations (a coroutine counts once)
    spans         spans (a coroutine makes one span per resumption)
    dur_ns        summed span durations
    child_ns      summed durations of the spans' direct children
    child_spans   number of direct children

Self time is ``dur_ns - child_ns``.  Summed over all layers it equals the
summed duration of the root spans exactly, which :func:`check_conservation`
asserts.  The first ``span_cap`` spans are also kept verbatim, with
their parent ids, so nesting can be checked (:func:`check_nesting`) and
written out.

Coroutine functions (the job server's connection handler) are traced
one resumption at a time: each step between two suspensions is a span
on the event-loop thread, so time spent suspended is never charged to
the coroutine, and spans still nest per thread.

The wrapper itself costs time.  :func:`calibrate` measures the part of
that cost that falls inside a span (``inner_ns``, charged to the
callee) and the part outside it (``outer_ns``, charged to the caller),
and :meth:`Tracer.report` subtracts both per span.
"""

import functools
import importlib
import inspect
import itertools
import statistics
import sys
import threading
import time

#: Record fields (see the module docstring).
CALLS, SPANS, DUR, CHILD, CHILD_SPANS = range(5)

#: Wrap every public method the class itself defines.
PUBLIC = "public"


#: What the traced run wraps, layer by layer.  Each target is
#: ``(module, class or None, methods)``: with a class, ``methods`` is a
#: tuple of method names or PUBLIC; without one it names module-level
#: functions.  Layer names are the ``repro`` module names.
LAYERS = (
    ("sim.driver", (("repro.sim.driver", None, ("run_system",)),)),
    # Only ``access``, so the layer's call count is the exact number of
    # events the fast-path kernel did not retire.
    ("sim.system", (("repro.sim.system", "System", ("access",)),)),
    ("caches.sram_cache",
     (("repro.caches.sram_cache", "SetAssocCache", PUBLIC),)),
    ("caches.nuca", (("repro.caches.nuca", "SharedNUCA", PUBLIC),)),
    ("coherence.sharer_table",
     (("repro.coherence.sharer_table", "SharerTable", PUBLIC),)),
    ("caches.dram_cache",
     (("repro.caches.dram_cache", "PageDRAMCache", PUBLIC),)),
    ("caches.vault_cache",
     (("repro.caches.vault_cache", "VaultCache", PUBLIC),)),
    ("coherence.dup_tag_directory",
     (("repro.coherence.dup_tag_directory", "DupTagDirectory",
       PUBLIC),)),
    ("noc.mesh", (("repro.noc.mesh", "Mesh2D", PUBLIC),)),
    ("memory.main_memory",
     (("repro.memory.main_memory", "MainMemory", PUBLIC),)),
    ("memory.controller",
     (("repro.memory.controller", "ClosedPageController", PUBLIC),)),
    ("cores.perf_model",
     (("repro.cores.perf_model", "CoreModel",
       ("record_data", "record_ifetch")),)),
    ("workloads.generator",
     (("repro.workloads.generator", None, ("generate_traces",)),)),
    ("sim.engine",
     (("repro.sim.engine", "RunEngine", ("run",)),
      ("repro.sim.engine", None,
       ("execute_request", "summarize", "code_fingerprint")),
      ("repro.sim.engine", "RunRequest", ("key",)),
      ("repro.sim.engine", "RunCache", ("get", "put")))),
    ("analytic.estimator",
     (("repro.analytic.estimator", None, ("estimate_to_summary",)),)),
    # The connection handler, the per-request router and the
    # dispatcher are where the server does its request work; they are
    # private coroutines, so they are named here next to the public
    # methods.
    ("serve.server",
     (("repro.serve.server", "JobServer",
       ("_handle_conn", "_route", "_dispatch_loop", "health",
        "metrics_text",
        "queue_depth", "dedup_ratio")),)),
)

LAYER_NAMES = tuple(name for name, _targets in LAYERS)


class _ThreadState:
    """One thread's open-span stack and its per-layer records."""

    __slots__ = ("stack", "recs", "tid")

    def __init__(self, num_layers, tid):
        # The sentinel frame collects the root spans' durations.
        self.stack = [[0, 0, 0]]
        self.recs = [[0, 0, 0, 0, 0] for _ in range(num_layers)]
        self.tid = tid


class Tracer:
    """Per-layer span recorder (see the module docstring).

    ``layers`` lists layer names; wrappers refer to a layer by its
    index.  ``span_cap`` bounds the verbatim span buffer."""

    def __init__(self, layers=LAYER_NAMES, span_cap=20_000,
                 clock=time.perf_counter_ns):
        self.layers = tuple(layers)
        self.span_cap = span_cap
        self.clock = clock
        self.spans = []
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches = []

    # -- per-thread state ------------------------------------------------

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self.layers), len(self._states))
                self._states.append(st)
            self._local.st = st
        return st

    def records(self):
        """Per-layer records merged over threads:
        ``{layer: [calls, spans, dur_ns, child_ns, child_spans]}``."""
        out = {name: [0, 0, 0, 0, 0] for name in self.layers}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, rec in zip(self.layers, st.recs):
                acc = out[name]
                for i in range(5):
                    acc[i] += rec[i]
        return out

    def root_ns(self):
        """Summed duration of root spans over all threads."""
        with self._lock:
            return sum(st.stack[0][0] for st in self._states)

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, layer):
        """Traced version of ``fn`` charged to ``layer`` (a name in
        ``self.layers``); coroutine functions get a per-step tracer."""
        idx = self.layers.index(layer)
        if inspect.iscoroutinefunction(fn):
            return self._wrap_coroutine(fn, idx)
        return self._wrap_sync(fn, idx)

    def _wrap_sync(self, fn, idx):
        local = self._local
        state = self._state
        clock = self.clock
        ids = self._ids
        spans = self.spans
        cap = self.span_cap

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = getattr(local, "st", None) or state()
            stack = st.stack
            parent = stack[-1]
            frame = [0, 0, next(ids)]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                # CALLS, SPANS, DUR, CHILD, CHILD_SPANS as literals: the
                # hot path avoids global lookups.
                rec = st.recs[idx]
                rec[0] += 1
                rec[1] += 1
                rec[2] += d
                rec[3] += frame[0]
                rec[4] += frame[1]
                parent[0] += d
                parent[1] += 1
                if len(spans) < cap:
                    spans.append((frame[2], parent[2], idx, st.tid,
                                  t0, t1))
        return traced

    def _wrap_coroutine(self, fn, idx):
        tracer = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            tracer._state().recs[idx][CALLS] += 1
            return await _Steps(tracer, fn(*args, **kwargs), idx)
        return traced

    # -- installation --------------------------------------------------------

    def install(self, layers=LAYERS):
        """Wrap every target of ``layers`` (see :data:`LAYERS`).
        Module-level functions are replaced in every loaded ``repro``
        module that holds them, so ``from x import f`` aliases are
        traced too."""
        for layer, targets in layers:
            for modname, clsname, names in targets:
                module = importlib.import_module(modname)
                if clsname is None:
                    for name in names:
                        self._patch_function(module, name, layer)
                else:
                    self._patch_class(getattr(module, clsname), names,
                                      layer)

    def _patch_function(self, module, name, layer):
        original = getattr(module, name)
        traced = self.wrap(original, layer)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "repro" or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)
                    self._patches.append((mod, attr, original))

    def _patch_class(self, cls, names, layer):
        if names == PUBLIC:
            names = [n for n, v in vars(cls).items()
                     if not n.startswith("_") and inspect.isfunction(v)]
        for name in names:
            original = vars(cls)[name]
            setattr(cls, name, self.wrap(original, layer))
            self._patches.append((cls, name, original))

    def uninstall(self):
        """Restore every patched attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------------

    def report(self, inner_ns=0.0, outer_ns=0.0):
        """Per-layer ``{"calls", "spans", "self_ns", "raw_self_ns"}``.
        ``self_ns`` has the wrapper cost removed: ``inner_ns`` per own
        span and ``outer_ns`` per direct child span."""
        out = {}
        for name, rec in self.records().items():
            raw = rec[DUR] - rec[CHILD]
            out[name] = {
                "calls": rec[CALLS],
                "spans": rec[SPANS],
                "raw_self_ns": raw,
                "self_ns": max(0.0, raw - inner_ns * rec[SPANS]
                               - outer_ns * rec[CHILD_SPANS]),
            }
        return out


class _Steps:
    """Awaitable that drives a coroutine one step at a time, recording
    each step as a span on the running thread."""

    __slots__ = ("tracer", "coro", "idx")

    def __init__(self, tracer, coro, idx):
        self.tracer = tracer
        self.coro = coro
        self.idx = idx

    def __await__(self):
        tracer, coro, idx = self.tracer, self.coro, self.idx
        clock = tracer.clock
        value, error = None, None
        while True:
            st = tracer._state()
            stack = st.stack
            parent = stack[-1]
            frame = [0, 0, next(tracer._ids)]
            stack.append(frame)
            t0 = clock()
            done, result = False, None
            try:
                if error is not None:
                    yielded = coro.throw(error)
                else:
                    yielded = coro.send(value)
            except StopIteration as stop:
                done, result = True, stop.value
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                rec = st.recs[idx]
                rec[SPANS] += 1
                rec[DUR] += d
                rec[CHILD] += frame[0]
                rec[CHILD_SPANS] += frame[1]
                parent[0] += d
                parent[1] += 1
                if len(tracer.spans) < tracer.span_cap:
                    tracer.spans.append((frame[2], parent[2], idx,
                                         st.tid, t0, t1))
            if done:
                return result
            try:
                value, error = (yield yielded), None
            except BaseException as exc:      # re-raised into coro
                value, error = None, exc


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_conservation(tracer):
    """Self times over all layers must sum to the root spans' summed
    duration exactly (integer nanoseconds).  Returns the difference."""
    raw = sum(rec[DUR] - rec[CHILD] for rec in tracer.records().values())
    return raw - tracer.root_ns()


def check_nesting(spans):
    """Problems in the kept spans: a child that is on another thread
    than its parent or outside the parent's interval.  Returns a list
    of messages (empty when the spans nest)."""
    by_id = {s[0]: s for s in spans}
    problems = []
    for sid, parent_id, _idx, tid, t0, t1 in spans:
        if t1 < t0:
            problems.append("span %d ends before it starts" % sid)
        parent = by_id.get(parent_id)
        if parent is None:
            continue
        if parent[3] != tid:
            problems.append("span %d crosses threads" % sid)
        elif not (parent[4] <= t0 and t1 <= parent[5]):
            problems.append("span %d escapes parent %d" % (sid, parent_id))
    return problems


def self_times_from_spans(spans, layers):
    """Per-layer self time recomputed offline from a complete span
    list: each span's duration minus its children's."""
    child = {}
    for _sid, parent_id, _idx, _tid, t0, t1 in spans:
        child[parent_id] = child.get(parent_id, 0) + (t1 - t0)
    out = {name: 0 for name in layers}
    for sid, _parent_id, idx, _tid, t0, t1 in spans:
        out[layers[idx]] += (t1 - t0) - child.get(sid, 0)
    return out


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


def _noop():
    return None


def _time_calls(fn, n, clock):
    t0 = clock()
    for _ in range(n):
        fn()
    return clock() - t0


def _time_loop(n, clock):
    t0 = clock()
    for _ in range(n):
        pass
    return clock() - t0


def calibrate(n=20_000, repeats=7, clock=time.perf_counter_ns):
    """Per-span wrapper cost ``(inner_ns, outer_ns)``, medians over
    ``repeats`` rounds of ``n`` calls to a traced no-op.

    ``inner_ns`` is the span duration minus the no-op's own call cost;
    ``outer_ns`` is the rest of the traced call's extra cost."""
    inner, outer = [], []
    for _ in range(repeats):
        tracer = Tracer(layers=("calibration",), span_cap=0, clock=clock)
        traced = tracer.wrap(_noop, "calibration")
        loop = _time_loop(n, clock)
        direct = _time_calls(_noop, n, clock)
        wrapped = _time_calls(traced, n, clock)
        rec = tracer.records()["calibration"]
        call_ns = (direct - loop) / n
        extra_ns = (wrapped - direct) / n
        in_ns = rec[DUR] / n - call_ns
        inner.append(in_ns)
        outer.append(extra_ns - in_ns)
    return statistics.median(inner), statistics.median(outer)
