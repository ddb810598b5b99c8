"""One run of one benchmark workload, in a fresh process.

``run.py`` starts this file with a scrubbed environment and ``src`` on
``PYTHONPATH``; it prints one JSON document as its last stdout line.

A workload is one LLC organization family, exercised in two phases:

* **sim** -- the fig10 scale-out suite on that family's systems,
  resolved by one cold, serial ``RunEngine(jobs=1, cache=None)`` with
  default flags;
* **serve** -- design-space-exploration traffic against a
  ``python -m repro.serve`` job server with a fresh ``--cache-dir``:
  estimate-mode requests for ``candidate_designs()`` of the same
  organization crossed with the scale-out suite, first as an open loop
  at a fixed rate, then as a closed loop on the same connections.

Modes: ``--probe`` stops once the process could issue its first
request (the set-up time sample); ``--trace 1`` runs the sim grid once
untraced and once traced, and the serve phase against an in-thread
server, all under :mod:`tracing`.
"""

import argparse
import gc
import hashlib
import http.client
import json
import math
import os
import queue
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import hostprobe  # noqa: E402  (the benchmark's own modules)
import tracing  # noqa: E402

#: Simulation grid size.  fig10's ``--sampling quick`` at scale 64
#: takes about 60 s on a 2-CPU host; a run, and a traced run, must fit
#: a time budget, so the same 25 points run at scale 256 with a third
#: of the quick plan's events.
SIM_SCALE = 256
SIM_PLAN = (8000, 4000)

#: Systems of each workload's sim grid, and the LLC organization of
#: its design-space candidates.  Together the two grids are the whole
#: fig10 system set.
WORKLOADS = {
    "shared_llc": (("baseline", "baseline_dram", "vaults_sh"), "shared"),
    "private_vault": (("silo", "silo_co"), "private_vault"),
}

#: Serve traffic: open-loop rate (below the host's saturation), client
#: connections, and the slices of ``--seconds`` given to the open and
#: closed loops.
OPEN_RATE = 60.0
CONNECTIONS = 2
OPEN_SHARE = 0.4
CLOSED_SHARE = 0.25
#: Positions, in every ten requests, of new points; the other 70%
#: repeat an earlier point.  A fixed pattern instead of a random draw
#: keeps bursts of new points, whose queueing moves the medians, the
#: same from seed to seed.
NEW_SLOTS = (0, 3, 6)
#: Points sent, untimed, before the open loop, so its first repeats
#: have points to repeat.
PRIMED_POINTS = 10
#: A repeated point is picked among points first sent at least this
#: long ago, so it has completed and the repeat is a memo read.
REPEAT_AFTER_S = 0.5
REQUEST_TIMEOUT_S = 10.0
#: Percentile reported as the latency tail.  p99 would need 1000
#: samples per class (ten beyond it); p95 needs 200.
TAIL = 0.95

DIGESTS_PATH = os.path.join(BENCH_DIR, "digests.json")


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def point_digest(summary):
    """Digest of the numbers a figure is made from: performance, level
    counts, the LLC breakdown and the latency percentiles."""
    doc = {"performance": summary.performance(),
           "level_counts": list(summary.level_counts()),
           "llc_breakdown": list(summary.llc_breakdown()),
           "latency_percentiles": summary.latency_percentiles()}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def invariant_problems(name, summary):
    """Checks every simulated point must pass whatever its seed."""
    problems = []
    perf = summary.performance()
    if not (math.isfinite(perf) and perf > 0):
        problems.append("%s: performance %r" % (name, perf))
    if sum(summary.level_counts()) != summary.driven_events():
        problems.append("%s: level counts do not sum to the %d measured "
                        "references" % (name, summary.driven_events()))
    if min(summary.llc_breakdown()) < 0:
        problems.append("%s: negative LLC breakdown" % name)
    return problems


def load_digests(path=DIGESTS_PATH):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def check_grid(names, summaries, expected):
    """Compare a grid's points with their recorded digests (``expected``
    maps point name to digest, empty when the seed was never
    recorded).  Returns ``(failed_points, messages)``."""
    failed, messages = set(), []
    for name, summary in zip(names, summaries):
        problems = invariant_problems(name, summary)
        want = expected.get(name)
        if want is not None and point_digest(summary) != want:
            problems.append("%s: digest %s, recorded %s"
                            % (name, point_digest(summary), want))
        if problems:
            failed.add(name)
            messages.extend(problems)
    return failed, messages


# ---------------------------------------------------------------------------
# sim phase
# ---------------------------------------------------------------------------


def sim_grid(workload, seed):
    """``(names, requests)`` of a workload's sim grid."""
    from repro.core.systems import system_config
    from repro.sim.engine import RunRequest
    from repro.sim.sampling import SamplingPlan
    from repro.workloads.scaleout import SCALEOUT_WORKLOADS

    systems, _org = WORKLOADS[workload]
    plan = SamplingPlan(*SIM_PLAN)
    names, requests = [], []
    for sname in systems:
        config = system_config(sname, scale=SIM_SCALE)
        for wname, spec in SCALEOUT_WORKLOADS.items():
            names.append("%s/%s" % (sname, wname))
            requests.append(RunRequest.point(config, spec, plan, seed))
    return names, requests


class EventCounter:
    """Counts the references a grid drives (prewarm, warmup and
    measure: every trace event) by passing ``generate_traces`` through
    a counting wrapper."""

    def __init__(self):
        self.events = 0
        self._module = None
        self._original = None

    def __enter__(self):
        from repro.workloads import generator
        original = generator.generate_traces

        def counted(*args, **kwargs):
            traces, layout = original(*args, **kwargs)
            self.events += sum(len(tr) for tr in traces)
            return traces, layout
        self._module, self._original = generator, original
        generator.generate_traces = counted
        return self

    def __exit__(self, *exc):
        self._module.generate_traces = self._original


def run_sim(requests):
    """Resolve the grid on a cold serial engine, one point at a time
    with a host-speed probe between points.  Returns ``(summaries,
    times)``: ``times`` holds the grid's wall and drive-phase seconds,
    raw and scaled to the reference host speed (:mod:`hostprobe`), and
    the events driven."""
    from repro.sim.engine import RunEngine

    engine = RunEngine(jobs=1, cache=None)
    summaries = []
    times = dict.fromkeys(("wall_s", "drive_s", "norm_wall_s",
                           "norm_drive_s"), 0.0)
    with EventCounter() as counter:
        before = hostprobe.probe_min()
        for request in requests:
            t0 = time.perf_counter()
            (summary,) = engine.run([request])
            wall = time.perf_counter() - t0
            after = hostprobe.probe_min()
            scale = hostprobe.factor((before, after))
            drive = summary.warmup_wall_s + summary.measure_wall_s
            times["wall_s"] += wall
            times["drive_s"] += drive
            times["norm_wall_s"] += wall * scale
            times["norm_drive_s"] += drive * scale
            summaries.append(summary)
            before = after
    times["events"] = counter.events
    return summaries, times


# ---------------------------------------------------------------------------
# serve phase: request pool and load generator
# ---------------------------------------------------------------------------


class PointPool:
    """Design-space points for the serve traffic, made from the seed:
    the organization's candidates x the scale-out suite, each new point
    with a fresh seed so it is a miss for the server."""

    def __init__(self, org, seed):
        from repro.analytic.search import candidate_designs
        from repro.sim.engine import RunRequest
        from repro.sim.sampling import PRESETS
        from repro.workloads.scaleout import SCALEOUT_WORKLOADS

        self._point = RunRequest.point
        self._plan = PRESETS["quick"]
        self.combos = [(cand.config, spec)
                       for cand in candidate_designs()
                       if cand.organization == org
                       for spec in SCALEOUT_WORKLOADS.values()]
        self.rng = random.Random(seed)
        self.requests = []          # point index -> RunRequest
        self.bodies = []            # point index -> POST body
        self._seeds = set()

    def new_point(self):
        config, spec = self.combos[len(self.requests) % len(self.combos)]
        while True:
            seed = self.rng.randrange(1, 2 ** 31)
            if seed not in self._seeds:
                self._seeds.add(seed)
                break
        request = self._point(config, spec, self._plan, seed,
                              mode="estimate")
        self.requests.append(request)
        self.bodies.append(json.dumps(
            {"request": request.canonical(), "priority": "interactive",
             "wait": True, "format": "json"}).encode("utf-8"))
        return len(self.requests) - 1

    def schedule(self, count, rate, known):
        """Open-loop schedule: ``[(due_s, point, kind)]`` at ``rate``
        requests per second.  Repeats ("warm") draw from ``known``
        points and from points first sent at least REPEAT_AFTER_S
        earlier."""
        out, first_sent, ready = [], [], list(known)
        for i in range(count):
            due = i / rate
            while first_sent and first_sent[0][1] <= due - REPEAT_AFTER_S:
                ready.append(first_sent.pop(0)[0])
            if i % 10 in NEW_SLOTS:
                p = self.new_point()
                first_sent.append((p, due))
                out.append((due, p, "cold"))
            else:
                out.append((due, self.rng.choice(ready), "warm"))
        return out

    def closed_sequence(self, count, known):
        """Closed-loop order: the same pattern, repeats drawn from the
        ``known`` (already completed) points."""
        return [(self.new_point(), "cold") if i % 10 in NEW_SLOTS
                else (self.rng.choice(known), "warm")
                for i in range(count)]


class Connection:
    """One keep-alive HTTP connection to the job server."""

    def __init__(self, host, port):
        self.host, self.port = host, port
        self.conn = None

    def post(self, body):
        """POST /runs; returns ``(status, dedup, body)``."""
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                self.host, self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            self.conn.request("POST", "/runs", body=body, headers={
                "Content-Type": "application/json"})
            resp = self.conn.getresponse()
            payload = resp.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        return resp.status, resp.getheader("X-Silo-Dedup", ""), payload

    def get(self, path):
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                self.host, self.port, timeout=REQUEST_TIMEOUT_S)
        self.conn.request("GET", path)
        resp = self.conn.getresponse()
        return resp.status, resp.read()

    def close(self):
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class LoadGen:
    """Open and closed loops over CONNECTIONS keep-alive connections.

    Every response is kept as ``(point, kind, latency_s, status,
    dedup, body)``; a transport error or timeout has status 0."""

    def __init__(self, host, port, pool):
        self.host, self.port = host, port
        self.pool = pool
        self.conns = [Connection(host, port) for _ in range(CONNECTIONS)]
        self.lateness = []

    def send_each(self, points):
        """Send ``points`` one after another, untimed."""
        return [(p, "cold", 0.0) + self._send(self.conns[0], p)
                for p in points]

    def _send(self, conn, point):
        try:
            status, dedup, body = conn.post(self.pool.bodies[point])
        except (OSError, http.client.HTTPException):
            return 0, "", b""
        return status, dedup, body

    def open_loop(self, schedule):
        """Send ``schedule`` at its due times; latency counts from the
        due time, so a stall also delays the requests behind it."""
        work = queue.Queue()
        results = []
        lock = threading.Lock()

        def worker(conn):
            while True:
                item = work.get()
                if item is None:
                    return
                due_abs, point, kind = item
                status, dedup, body = self._send(conn, point)
                latency = time.perf_counter() - due_abs
                with lock:
                    results.append((point, kind, latency, status, dedup,
                                    body))

        threads = [threading.Thread(target=worker, args=(c,), daemon=True)
                   for c in self.conns]
        for t in threads:
            t.start()
        start = time.perf_counter()
        for due, point, kind in schedule:
            due_abs = start + due
            delay = due_abs - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self.lateness.append(max(0.0, time.perf_counter() - due_abs))
            work.put((due_abs, point, kind))
        for _ in threads:
            work.put(None)
        for t in threads:
            t.join(REQUEST_TIMEOUT_S * len(schedule))
        return results

    def closed_loop(self, sequence, duration):
        """Each connection sends its next request when the previous one
        completes, for ``duration`` seconds; returns ``(results,
        elapsed_s)``."""
        it = iter(sequence)
        lock = threading.Lock()
        results = []
        deadline = time.perf_counter() + duration

        def worker(conn):
            while time.perf_counter() < deadline:
                with lock:
                    item = next(it, None)
                if item is None:
                    return
                point, kind = item
                t0 = time.perf_counter()
                status, dedup, body = self._send(conn, point)
                latency = time.perf_counter() - t0
                with lock:
                    results.append((point, kind, latency, status, dedup,
                                    body))

        threads = [threading.Thread(target=worker, args=(c,), daemon=True)
                   for c in self.conns]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(duration + REQUEST_TIMEOUT_S * 2)
        return results, time.perf_counter() - t0

    def close(self):
        for conn in self.conns:
            conn.close()


def percentile(values, q):
    """Nearest-rank percentile of ``values`` (0 < q <= 1)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def check_responses(pool, results):
    """Failures among ``results``: refused, failed or timed out
    requests, and bodies that differ from an in-process estimate of
    the same request.  Returns ``(failed_count, messages)``."""
    from repro.analytic.estimator import estimate_to_summary
    from repro.serve.proto import summary_from_wire

    expected = {}
    seen = {}
    failed, messages = 0, []
    for point, _kind, _lat, status, _dedup, body in results:
        if status != 200:
            failed += 1
            if len(messages) < 5:
                messages.append("point %d: HTTP status %d"
                                % (point, status))
            continue
        ok = seen.get((point, body))
        if ok is None:
            if point not in expected:
                expected[point] = point_digest(
                    estimate_to_summary(pool.requests[point]))
            try:
                summary = summary_from_wire(json.loads(body)["summary"])
                ok = point_digest(summary) == expected[point]
            except (ValueError, KeyError, TypeError):
                ok = False
            seen[(point, body)] = ok
        if not ok:
            failed += 1
            if len(messages) < 5:
                messages.append("point %d: response differs from the "
                                "in-process estimate" % point)
    return failed, messages


def serve_traffic(host, port, pool, seconds):
    """Open loop, then closed loop.  Returns ``(serve, results,
    lateness)``: ``serve`` holds the open loop's latency medians and
    tails with their sample counts and the closed loop's rate."""
    open_s = OPEN_SHARE * seconds
    closed_s = CLOSED_SHARE * seconds
    primed = [pool.new_point() for _ in range(PRIMED_POINTS)]
    schedule = pool.schedule(int(OPEN_RATE * open_s), OPEN_RATE, primed)
    known = primed + [p for _d, p, k in schedule if k == "cold"]
    # More closed-loop requests than a fast server could complete.
    sequence = pool.closed_sequence(int(600 * closed_s), known)
    gen = LoadGen(host, port, pool)
    try:
        primed_results = gen.send_each(primed)
        open_results = gen.open_loop(schedule)
        closed_results, elapsed = gen.closed_loop(sequence, closed_s)
    finally:
        gen.close()
    lat = {"warm": [], "cold": []}
    dedup = {}
    for _p, kind, latency, status, tag, _b in open_results:
        if status == 200:
            lat[kind].append(latency * 1e3)
            dedup[kind + ":" + tag] = dedup.get(kind + ":" + tag, 0) + 1
    completed = sum(1 for r in closed_results if r[3] == 200)
    serve = {"serve_rps": completed / elapsed}
    for kind in ("warm", "cold"):
        values = lat[kind] or [float("nan")]
        serve[kind + "_p50_ms"] = percentile(values, 0.5)
        serve["%s_p%d_ms" % (kind, TAIL * 100)] = percentile(values, TAIL)
    serve.update({
            "open_requests": len(open_results),
            "warm_samples": len(lat["warm"]),
            "cold_samples": len(lat["cold"]),
            "closed_completed": completed,
            "closed_elapsed_s": elapsed,
            "dedup": dedup,
            "loadgen_late_p99_ms": percentile(gen.lateness, 0.99) * 1e3})
    results = primed_results + open_results + closed_results
    return serve, results, gen.lateness


# ---------------------------------------------------------------------------
# server process (timed runs)
# ---------------------------------------------------------------------------


class ServerProcess:
    """``python -m repro.serve`` on an ephemeral port with a fresh
    cache directory inside ``out_dir``."""

    def __init__(self, out_dir):
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=out_dir)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--jobs", "1", "--cache-dir", self.cache_dir],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        self.host = self.port = None

    def wait_ready(self, timeout=60.0):
        """Block until the READY line; returns its monotonic time."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            if line.startswith("READY "):
                url = line.split()[1]
                rest = url.split("://", 1)[1]
                self.host, _, port = rest.partition(":")
                self.port = int(port)
                return time.monotonic()
        raise RuntimeError("job server did not report READY")

    def peak_rss_mb(self):
        try:
            with open("/proc/%d/status" % self.proc.pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return None

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


class ServerThread:
    """A JobServer on its own event-loop thread (traced runs), so the
    tracer's wrappers see its work."""

    def __init__(self, out_dir):
        from repro.serve.server import JobServer
        from repro.sim.engine import RunCache, RunEngine

        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=out_dir)
        engine = RunEngine(jobs=1, cache=RunCache(self.cache_dir))
        self.server = JobServer(engine, port=0)
        self._started = threading.Event()
        self._loop = None
        self._stop = None
        self._thread = threading.Thread(target=self._main, daemon=True)

    def _main(self):
        import asyncio

        async def serve():
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            await self.server.start()
            self._started.set()
            try:
                await self._stop.wait()
            finally:
                await self.server.stop()
        asyncio.run(serve())

    def start(self):
        self._thread.start()
        if not self._started.wait(30):
            raise RuntimeError("in-thread job server did not start")
        return self.server.host, self.server.port

    def stop(self):
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(30)
        shutil.rmtree(self.cache_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sim_correctness(workload, seed, names, summaries):
    expected = load_digests().get(workload, {}).get(str(seed), {})
    failed, messages = check_grid(names, summaries, expected)
    return failed, messages, bool(expected)


def timed_run(args, launch):
    """End-to-end metrics, tracing off."""
    org = WORKLOADS[args.workload][1]
    server = ServerProcess(args.out)
    try:
        names, requests = sim_grid(args.workload, args.seed)
        from repro.sim.engine import RunEngine
        RunEngine(jobs=1, cache=None)   # set-up cost a user pays
        ready = max(time.monotonic(), server.wait_ready())
        setup_s = ready - launch
        if args.probe:
            return {"setup_s": setup_s}

        phases = {"setup": time.monotonic() - launch}
        summaries, times = run_sim(requests)
        sim_rss = peak_rss_mb()
        failed_points, messages, recorded = sim_correctness(
            args.workload, args.seed, names, summaries)
        phases["sim"] = time.monotonic() - launch

        pool = PointPool(org, args.seed)
        # Collect the sim phase's garbage now, not during the serve
        # phase's timed requests.
        gc.collect()
        serve, results, _late = serve_traffic(
            server.host, server.port, pool, args.seconds)
        phases["serve"] = time.monotonic() - launch
        conn = Connection(server.host, server.port)
        try:
            _status, metrics_text = conn.get("/metrics")
        finally:
            conn.close()
        server_rss = server.peak_rss_mb()
    finally:
        server.stop()
    serve_failed, serve_messages = check_responses(pool, results)
    phases["check"] = time.monotonic() - launch

    metrics = {"setup_s": setup_s,
               "grid_wall_s": times["norm_wall_s"],
               "sim_ns_per_event": times["norm_drive_s"] / times["events"]
               * 1e9,
               "peak_rss_mb": sim_rss}
    attempted = len(requests) + len(results)
    failed = len(failed_points) + serve_failed
    info = {"points": len(requests), "sim_times": times,
            "phase_end_s": phases,
            "digests_recorded": recorded,
            "serve": serve,
            "server_peak_rss_mb": server_rss,
            "server_counters": _prometheus_counters(metrics_text),
            "error_rate": failed / attempted,
            "problems": messages + serve_messages}
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "info": info}


def _prometheus_counters(text):
    """``name -> value`` for the job-server lines of a /metrics page."""
    out = {}
    for line in text.decode("utf-8", "replace").splitlines():
        if line.startswith(("silo_serve_", "silo_engine_cache")):
            name, _, value = line.rpartition(" ")
            try:
                out[name] = float(value)
            except ValueError:
                pass
    return out


def traced_run(args):
    """Per-layer metrics: untraced then traced sim grid, then traced
    serve traffic against an in-thread server."""
    names, requests = sim_grid(args.workload, args.seed)
    summaries, untraced = run_sim(requests)
    failed, messages, recorded = sim_correctness(
        args.workload, args.seed, names, summaries)
    loop_inner, loop_outer = tracing.calibrate()

    # Sim phase: one thread, wall-clock spans.
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_summaries, traced = run_sim(requests)
    finally:
        tracer.uninstall()
    # The wrapper's cost per span, measured in place: the traced grid's
    # extra time over the untraced one (at the traced grid's host
    # speed) per span, split inside/outside the span as the no-op
    # calibration splits it.  A no-op loop alone misjudges the cost of
    # real calls and moves with the host by up to 2x between runs.
    spans = sum(rec[tracing.SPANS] for rec in tracer.records().values())
    expected_ns = (untraced["norm_wall_s"] * traced["wall_s"]
                   / traced["norm_wall_s"] * 1e9)
    span_ns = (traced["wall_s"] * 1e9 - expected_ns) / spans
    inner_ns = span_ns * loop_inner / (loop_inner + loop_outer)
    outer_ns = span_ns - inner_ns
    sim_report = tracer.report(inner_ns, outer_ns)
    conservation = tracing.check_conservation(tracer)
    nesting = tracing.check_nesting(tracer.spans)
    root_ns = tracer.root_ns()
    sim_spans = tracer.spans

    # Serve phase: the server's loop and engine threads share the
    # interpreter with the load generator, so spans use each thread's
    # CPU clock; a wall clock would charge a layer for time spent
    # waiting for the interpreter lock.
    cpu_inner, cpu_outer = tracing.calibrate(clock=time.thread_time_ns)
    tracer = tracing.Tracer(clock=time.thread_time_ns)
    tracer.install()
    try:
        pool = PointPool(WORKLOADS[args.workload][1], args.seed)
        server = ServerThread(args.out)
        host, port = server.start()
        try:
            with QueueMonitor(server.server) as depth:
                serve, results, lateness = serve_traffic(
                    host, port, pool, args.seconds)
        finally:
            server.stop()
    finally:
        tracer.uninstall()
    serve_report = tracer.report(cpu_inner, cpu_outer)
    conservation += tracing.check_conservation(tracer)
    nesting += tracing.check_nesting(tracer.spans)
    serve_spans = tracer.spans
    srv = server.server
    memo_ratio = srv.memo_hits / max(1, srv.submitted)
    dedup_ratio = srv.dedup_ratio()

    f2, m2, _ = sim_correctness(args.workload, args.seed, names,
                                traced_summaries)
    serve_failed, serve_messages = check_responses(pool, results)
    failed |= f2
    messages += m2 + serve_messages

    layers = layer_metrics(
        sim_report, traced["norm_wall_s"] / traced["wall_s"],
        serve_report, untraced["events"], len(requests), len(results))
    totals = trace_totals(sim_report, root_ns, traced, untraced)
    problems = []
    if conservation != 0:
        problems.append("span self times miss the root total by %d ns"
                        % conservation)
    if nesting:
        problems.append("%d span nesting problems, e.g. %s"
                        % (len(nesting), nesting[0]))
    if totals["trace.accounted"] < ACCOUNTED_MIN:
        problems.append("spans cover %.3f of the traced grid wall"
                        % totals["trace.accounted"])

    levels = [sum(c) for c in zip(*(s.level_counts() for s in summaries))]
    local, remote, offchip = (
        sum(c) for c in zip(*(s.llc_breakdown() for s in summaries)))
    llc_total = max(1, local + remote + offchip)
    metrics = dict(layers)
    metrics.update(totals)
    metrics.update({
        "caches.sram_cache.l1_hit_ratio": levels[0] / max(1, sum(levels)),
        "llc.local_share": local / llc_total,
        "llc.remote_share": remote / llc_total,
        "llc.offchip_share": offchip / llc_total,
        "serve.server.memo_hit_ratio": memo_ratio,
        "serve.server.dedup_ratio": dedup_ratio,
        "serve.server.max_queue_depth": float(depth.max_depth),
        "serve.cold_p50_ms": serve["cold_p50_ms"],
        "trace.wrapper_ns": span_ns,
        "trace.loop_wrapper_ratio": (loop_inner + loop_outer) / span_ns,
        "loadgen.late_p99_ms": percentile(lateness, 0.99) * 1e3,
    })
    write_spans(args, sim_spans, serve_spans)
    attempted = 2 * len(requests) + len(results)
    nfailed = len(failed) + serve_failed + (1 if problems else 0)
    info = {"digests_recorded": recorded, "wrapper_inner_ns": inner_ns,
            "wrapper_outer_ns": outer_ns, "loop_wrapper_inner_ns": loop_inner,
            "loop_wrapper_outer_ns": loop_outer,
            "cpu_wrapper_inner_ns": cpu_inner,
            "cpu_wrapper_outer_ns": cpu_outer,
            "problems": problems + messages, "serve": serve}
    return {"metrics": metrics, "attempted": attempted,
            "failed": nfailed, "info": info}


#: Spans must cover at least this share of the traced grid's wall
#: clock (the rest is the benchmark's own code around ``engine.run``).
ACCOUNTED_MIN = 0.98

#: Layers whose self time is normalized per simulated event, and the
#: ones normalized per served request.
SIM_LAYERS = tuple(n for n in tracing.LAYER_NAMES
                   if n not in ("analytic.estimator", "serve.server"))
SERVE_LAYERS = ("sim.engine", "analytic.estimator", "serve.server")


def layer_metrics(sim_report, sim_scale, serve_report, events, points,
                  reqs):
    """Calls and self time per layer: host-speed scaled per driven
    event in the sim phase, CPU time per served request in the serve
    phase."""
    out = {}
    for name in SIM_LAYERS:
        rec = sim_report[name]
        out[name + ".calls"] = float(rec["calls"])
        out[name + ".self_ns_per_event"] = rec["self_ns"] * sim_scale / events
    out["workloads.generator.self_ms_per_point"] = (
        sim_report["workloads.generator"]["self_ns"] * sim_scale
        / points / 1e6)
    for name in SERVE_LAYERS:
        rec = serve_report[name]
        prefix = "sim.engine.serve" if name == "sim.engine" else name
        out[prefix + ".calls"] = float(rec["calls"])
        out[prefix + ".self_ms_per_req"] = (
            rec["self_ns"] / max(1, reqs) / 1e6)
    est = serve_report["analytic.estimator"]
    out["analytic.estimator.self_ms_per_call"] = (
        est["self_ns"] / max(1, est["calls"]) / 1e6)
    return out


def trace_totals(sim_report, root_ns, traced, untraced):
    """Tracing overhead and accounting.  The overhead compares
    host-speed scaled walls, so a host slowdown between the two grids
    does not read as tracing cost."""
    return {
        "trace.overhead": traced["norm_wall_s"] / untraced["norm_wall_s"],
        "trace.accounted": root_ns / 1e9 / traced["wall_s"],
        "trace.spans": float(sum(r["spans"] for r in sim_report.values())),
    }


class QueueMonitor:
    """Samples the server's queue depth every 10 ms (through the
    untraced method, so sampling adds no spans)."""

    def __init__(self, server):
        self.server = server
        self.max_depth = 0
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def _poll(self):
        depth = getattr(type(self.server).queue_depth, "__wrapped__",
                        type(self.server).queue_depth)
        while not self._done.wait(0.01):
            self.max_depth = max(self.max_depth, depth(self.server))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._done.set()
        self._thread.join(5)


def write_spans(args, sim_spans, serve_spans):
    """Kept spans as JSON lines, one file per traced run."""
    path = os.path.join(args.out, "spans-%s-s%d.jsonl"
                        % (args.workload, args.seed))
    names = tracing.LAYER_NAMES
    with open(path, "w") as f:
        for phase, spans in (("sim", sim_spans), ("serve", serve_spans)):
            for sid, parent, idx, tid, t0, t1 in spans:
                f.write(json.dumps({"phase": phase, "id": sid,
                                    "parent": parent, "layer": names[idx],
                                    "thread": tid, "start_ns": t0,
                                    "end_ns": t1}) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--launch", type=float, default=None,
                        help="time.monotonic() at process launch")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    launch = args.launch if args.launch is not None else time.monotonic()
    if args.trace:
        result = traced_run(args)
    else:
        result = timed_run(args, launch)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
