"""Calibration helper: run baseline & SILO on the scale-out suite and
print the numbers we tune against the paper's anchors.

Usage: python tools/calibrate.py [quick|standard]
"""

import sys
import time

from repro import simulate, system_config, SamplingPlan
from repro.sim.sampling import PRESETS
from repro.workloads.scaleout import SCALEOUT_WORKLOADS

TARGET_SPEEDUP = {
    "web_search": 1.29,
    "data_serving": 1.15,
    "web_frontend": 1.05,
    "mapreduce": 1.54,
    "sat_solver": 1.37,
}


def main():
    plan = PRESETS[sys.argv[1] if len(sys.argv) > 1 else "quick"]
    geo = 1.0
    for name, spec in SCALEOUT_WORKLOADS.items():
        t0 = time.time()
        base = simulate(system_config("baseline"), spec, plan).summary
        silo = simulate(system_config("silo"), spec, plan).summary
        dt = time.time() - t0
        bp, sp = base.performance(), silo.performance()
        speedup = sp / bp
        geo *= speedup
        bl, br, bm = base.llc_breakdown()
        sl, sr, sm = silo.llc_breakdown()
        btot = bl + br + bm
        stot = sl + sr + sm
        miss_red = 1 - (sm / stot) / (bm / btot) if bm else 0.0
        print("%-13s speedup %.3f (target %.2f)  base IPC/core %.3f  "
              "base hit %.2f  silo hit %.2f (local %.2f of hits)  "
              "missred %.2f  mpki %.1f->%.1f  [%.0fs]"
              % (name, speedup, TARGET_SPEEDUP[name],
                 bp / len(base.core_ids),
                 1 - bm / btot, 1 - sm / stot,
                 sl / (sl + sr) if sl + sr else 0, miss_red,
                 base.llc_mpki(), silo.llc_mpki(), dt))
    print("geomean speedup: %.3f (target 1.28)" % geo ** 0.2)


if __name__ == "__main__":
    main()
