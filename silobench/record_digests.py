"""Record the per-point digests the timed and traced runs check.

Simulates each workload's grid at every given seed (tracing off, the
same engine set-up as a run) and writes the digests into
``silobench/digests.json``, keeping entries of other seeds::

    PYTHONPATH=src python3 silobench/record_digests.py --seeds 0-30

Re-record only when a change is meant to alter simulated results; a
change meant to keep them bit-identical must pass against the
recorded digests instead.
"""

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import workload  # noqa: E402  (the benchmark's own module)


def parse_seeds(text):
    """``"0-3,7"`` -> [0, 1, 2, 3, 7]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--workloads", nargs="+",
                        default=sorted(workload.WORKLOADS))
    args = parser.parse_args(argv)
    table = workload.load_digests()
    for name in args.workloads:
        for seed in args.seeds:
            names, requests = workload.sim_grid(name, seed)
            summaries = workload.run_sim(requests)[0]
            for point, summary in zip(names, summaries):
                problems = workload.invariant_problems(point, summary)
                if problems:
                    raise SystemExit("; ".join(problems))
            table.setdefault(name, {})[str(seed)] = {
                point: workload.point_digest(summary)
                for point, summary in zip(names, summaries)}
            print("%s seed %d recorded" % (name, seed), flush=True)
            with open(workload.DIGESTS_PATH, "w") as f:
                json.dump(table, f, indent=1, sort_keys=True)
                f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
