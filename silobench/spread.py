"""Run-to-run spread of the end-to-end metrics.

Runs ``run.py`` once per seed for each workload (tracing off) and
prints, per metric, the median and the interquartile range as a share
of the median, next to the metric's bound in ``BENCHMARK.json``::

    python3 silobench/spread.py --workloads shared_llc private_vault \\
        --seeds 1 2 3 4 5 6 7 8 9 10

Raw results are appended to ``.silobench_out/spread.jsonl``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def spread(values):
    """Interquartile range over the median (``statistics.quantiles``
    with n=4, as the bound check uses)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=["shared_llc", "private_vault"])
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    log = os.path.join(ROOT, ".silobench_out", "spread.jsonl")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    ok = True
    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            with open(log, "a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed,
                                    "result": result}) + "\n")
            if not result["correct"]:
                ok = False
                print("%s seed %d: not correct" % (workload, seed))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("%s (%d seeds)" % (workload, len(args.seeds)))
        for name, vals in values.items():
            s = spread(vals) if len(vals) > 1 else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or s <= bound / 3 else "  <-- wide"
            print("  %-18s median %12.4f  spread %6.3f  bound %s%s"
                  % (name, statistics.median(vals), s, bound, flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
