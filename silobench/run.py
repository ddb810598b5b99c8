"""SILO reproduction benchmark: one command, every metric.

Usage (from the repository root)::

    python3 silobench/run.py --workload shared_llc --seed 7 \\
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it carries run details (host, seed, source digest, sample
counts, problems found).  See ``silobench/README.md``.

The workload runs in a fresh child process (``workload.py``) with the
``REPRO_*`` settings removed from its environment, so the measured
configuration is the default one whatever the caller's shell holds.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import hostprobe  # noqa: E402  (the benchmark's own modules)
from workload import SERVE_LAYERS, SIM_LAYERS  # noqa: E402

SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".silobench_out")

WORKLOADS = ("shared_llc", "private_vault")

#: Set-up samples per timed run (probe processes that stop once they
#: could issue their first request); the median is reported.
SETUP_PROBES = 5

#: A child that has not finished by then is killed (the run fails).
CHILD_TIMEOUT_S = 170.0

#: (name, unit, better) of the end-to-end metrics (``--trace 0``).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("grid_wall_s", "s", "lower"),
    ("sim_ns_per_event", "ns", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def _per_layer():
    out = []
    for name in SIM_LAYERS:
        out.append((name + ".calls", "count", "lower"))
        out.append((name + ".self_ns_per_event", "ns/event", "lower"))
    out.append(("workloads.generator.self_ms_per_point", "ms/point",
                "lower"))
    for name in SERVE_LAYERS:
        prefix = "sim.engine.serve" if name == "sim.engine" else name
        out.append((prefix + ".calls", "count", "lower"))
        out.append((prefix + ".self_ms_per_req", "ms/req", "lower"))
    out += [
        ("analytic.estimator.self_ms_per_call", "ms/call", "lower"),
        ("caches.sram_cache.l1_hit_ratio", "ratio", "higher"),
        ("llc.local_share", "ratio", "higher"),
        ("llc.remote_share", "ratio", "lower"),
        ("llc.offchip_share", "ratio", "lower"),
        ("serve.server.memo_hit_ratio", "ratio", "higher"),
        ("serve.server.dedup_ratio", "ratio", "higher"),
        ("serve.server.max_queue_depth", "count", "lower"),
        ("serve.cold_p50_ms", "ms", "lower"),
        ("loadgen.late_p99_ms", "ms", "lower"),
        ("trace.overhead", "ratio", "lower"),
        ("trace.accounted", "ratio", "higher"),
        ("trace.spans", "count", "lower"),
        ("trace.wrapper_ns", "ns", "lower"),
        ("trace.loop_wrapper_ratio", "ratio", "higher"),
    ]
    return tuple(out)


PER_LAYER = _per_layer()

#: Every setting the simulator reads from the environment; removed
#: from the workload process so the defaults are what is measured.
SCRUBBED_ENV_PREFIX = "REPRO_"


def workload_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(SCRUBBED_ENV_PREFIX)}
    env["PYTHONPATH"] = SRC
    return env


def run_child(args, probe=False):
    """Run ``workload.py`` once; returns its JSON document or raises
    RuntimeError.  The child gets its own process group so a timeout
    also stops the job server it started."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT]
    if probe:
        cmd.append("--probe")
    launch = time.monotonic()
    cmd += ["--launch", repr(launch)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=workload_env(), cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("workload process timed out")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers, if any
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("workload process exited with code %d"
                           % proc.returncode)
    return json.loads(lines[-1])


def source_digest():
    """sha256 over the ``src`` tree's Python files (the checkout may
    not be a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode("utf-8"))
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout, or None when it is not a git work tree
    (git would otherwise report an enclosing repository's HEAD)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_info():
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "loadavg": list(os.getloadavg())}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="SILO reproduction benchmark (see README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("silobench: no src/repro next to the benchmark; run it "
              "from a repository checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    host = host_info()
    try:
        setups, raw_setups = [], []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                before = hostprobe.probe_min()
                raw = run_child(args, probe=True)["setup_s"]
                scale = hostprobe.factor((before, hostprobe.probe_min()))
                raw_setups.append(raw)
                setups.append(raw * scale)
        doc = run_child(args)
    except (RuntimeError, ValueError, KeyError) as e:
        print("silobench: %s" % e, file=sys.stderr)
        return 1

    measured = dict(doc["metrics"])
    declared = PER_LAYER if args.trace else END_TO_END
    if not args.trace:
        measured["setup_s"] = statistics.median(setups)
    metrics, problems = {}, list(doc["info"].get("problems", []))
    for name, unit, _better in declared:
        value = measured.get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("metric %s missing or not finite" % name)
            continue
        metrics[name] = {"value": value, "unit": unit}
    failed = int(doc["failed"])
    correct = failed == 0 and len(metrics) == len(declared)
    info = dict(doc["info"])
    info.update({"workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "trace": args.trace,
                 "host": host, "commit": git_commit(),
                 "source_digest": source_digest(),
                 "setup_samples_raw_s": raw_setups or None,
                 "problems": problems})
    result = {"correct": correct, "attempted": int(doc["attempted"]),
              "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT, "result-%s-s%d-t%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as f:
        json.dump({"result": result, "info": info}, f, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
