"""Shared-LLC (baseline) system: access paths, latencies, MESI."""

import dataclasses
import hashlib
import json

import pytest

from repro.coherence.states import SHARED, EXCLUSIVE, MODIFIED
from repro.core.systems import system_config
from repro.cores.perf_model import (CoreParams, LEVEL_LLC_LOCAL,
                                    LEVEL_LLC_REMOTE, LEVEL_MEMORY,
                                    LEVEL_DRAM_CACHE)
from repro.faults.plan import FaultPlan
from repro.sim.config import HierarchyConfig
from repro.sim.driver import simulate
from repro.sim.sampling import SamplingPlan
from repro.sim.system import System
from repro.workloads.scaleout import DATA_SERVING


def make_system(cores=4, dram_cache=None, l2=None, queueing=False):
    config = HierarchyConfig(
        name="test", num_cores=cores, scale=1,
        l1_size_bytes=4096, l1_ways=4,
        l2_size_bytes=l2,
        llc_kind="shared", llc_size_bytes=64 * 1024, llc_ways=4,
        llc_latency=5,
        dram_cache_bytes=dram_cache,
        memory_queueing=queueing)
    return System(config, [CoreParams()] * cores)


def test_l1_hit_costs_zero():
    s = make_system()
    s.access(0, 100, False, False)
    assert s.access(0, 100, False, False) == 0


def test_first_access_goes_to_memory():
    s = make_system()
    lat = s.access(0, 100, False, False)
    # LLC round trip + memory: must exceed the raw memory latency
    assert lat > 100
    assert s.memory.reads == 1


def test_llc_hit_after_peer_fill():
    s = make_system()
    s.access(0, 100, False, False)
    lat = s.access(1, 100, False, False)
    # served on chip: no new memory read, latency ~ LLC round trip
    assert s.memory.reads == 1
    assert 5 <= lat <= 40


def test_mesi_exclusive_then_shared():
    s = make_system()
    s.access(0, 100, False, False)
    assert s.l1d[0].lookup(100) == EXCLUSIVE
    s.access(1, 100, False, False)
    assert s.l1d[1].lookup(100) == SHARED
    assert s.sharer_table.sharers(100) == 0b11


def test_write_invalidates_peer_l1s():
    s = make_system()
    s.access(0, 100, False, False)
    s.access(1, 100, False, False)
    s.access(2, 100, True, False)
    assert s.l1d[2].lookup(100) == MODIFIED
    assert s.l1d[0].lookup(100) is None
    assert s.l1d[1].lookup(100) is None
    assert s.invalidations >= 2
    assert s.sharer_table.sharers(100) == 0b100


def test_silent_upgrade_from_exclusive():
    s = make_system()
    s.access(0, 100, False, False)
    inv_before = s.invalidations
    s.access(0, 100, True, False)     # E -> M, no traffic
    assert s.l1d[0].lookup(100) == MODIFIED
    assert s.invalidations == inv_before


def test_dirty_peer_forwards_and_downgrades():
    s = make_system()
    s.access(0, 100, True, False)     # core0 holds M
    lat = s.access(1, 100, False, False)
    assert s.l1d[0].lookup(100) == SHARED
    assert s.remote_forwards == 1
    # dirty data reached the LLC on the downgrade
    assert s.llc.lookup(100, touch=False) is True
    assert lat > 5


def test_remote_forward_recorded_as_remote_level():
    s = make_system()
    s.access(0, 100, True, False)
    s.access(1, 100, False, False)
    assert s.cores[1].data_count[LEVEL_LLC_REMOTE] == 1


def test_ifetch_fills_l1i_not_l1d():
    s = make_system()
    s.access(0, 200, False, True)
    assert s.l1i[0].contains(200)
    assert not s.l1d[0].contains(200)


def test_l1_dirty_eviction_writes_back_to_llc():
    s = make_system()
    s.access(0, 0, True, False)
    # evict block 0's set: L1 4 ways, 16 sets -> same set every 16
    for i in range(1, 6):
        s.access(0, i * 16, False, False)
    assert not s.l1d[0].contains(0)
    assert s.llc.lookup(0, touch=False) is True  # dirty in LLC
    assert s.l1_writebacks >= 1


def test_non_inclusive_llc_eviction_keeps_l1():
    """LLC victim does not back-invalidate L1 copies (non-inclusive)."""
    s = make_system()
    s.access(0, 100, False, False)
    # thrash the LLC set of block 100 (bank interleave = 4 cores)
    bank_sets = s.llc.banks[0].num_sets
    stride = 4 * bank_sets
    for i in range(1, 8):
        s.access(1, 100 + i * stride, False, False)
    assert s.l1d[0].contains(100)


def test_dram_cache_path():
    s = make_system(dram_cache=1 << 20)
    s.access(0, 100, False, False)         # miss: fills DRAM$ page
    # new block, same page -> DRAM$ hit
    lat = s.access(1, 101, False, False)
    assert s.cores[1].data_count[LEVEL_DRAM_CACHE] == 1
    assert s.memory.reads == 1


def test_memory_level_recorded():
    s = make_system()
    s.access(0, 100, False, False)
    assert s.cores[0].data_count[LEVEL_MEMORY] == 1


def test_l2_hit_path():
    s = make_system(l2=16 * 1024)
    s.access(0, 100, False, False)
    s.l1d[0].invalidate(100)       # drop from L1, keep in L2
    s.sharer_table.remove_sharer(100, 0)
    lat = s.access(0, 100, False, False)
    assert lat == s.l2_latency


def test_llc_access_energy_counter():
    s = make_system()
    before = s.llc_accesses
    s.access(0, 100, False, False)
    assert s.llc_accesses > before


def test_reset_stats_clears_counters():
    s = make_system()
    s.access(0, 100, True, False)
    s.reset_stats()
    assert s.llc_accesses == 0
    assert s.memory.accesses == 0
    assert s.cores[0].instructions == 0


# -- golden: the miss path over every shared-LLC feature --------------------

GOLDEN_PLAN = SamplingPlan(2000, 1000)

#: Data flips and memory stalls, plus banks 1 and 2 going offline and
#: back online inside the measurement window (ticks count accesses from
#: the prewarm prefix on): requests homed there are remapped off-chip.
GOLDEN_FAULTS = FaultPlan(
    seed=3, data_flip_rate=0.02, double_bit_fraction=0.5,
    stall_rate=0.05,
    vault_events=((17000, 1, "offline"), (18500, 2, "offline"),
                  (20000, 1, "online"), (21000, 2, "online")))

#: case -> (system, config overrides, fault plan, track_sharing).
#: Cases run at scale 256 unless the overrides say otherwise; victim
#: replicas need the roomier scale-64 banks to be re-referenced.
GOLDEN_CASES = {
    "baseline": ("baseline", {}, None, False),
    "baseline_faults": ("baseline", {}, GOLDEN_FAULTS, False),
    "baseline_dram": ("baseline_dram", {}, None, False),
    "baseline_dram_faults": ("baseline_dram", {}, GOLDEN_FAULTS, False),
    "vaults_sh": ("vaults_sh", {}, None, False),
    "baseline_vr": ("baseline_vr", {"scale": 64}, None, False),
    "3level_sram": ("3level_sram", {}, None, False),
    "3level_edram_faults": ("3level_edram", {}, GOLDEN_FAULTS, False),
    "baseline_prefetch_faults": ("baseline", {"l1_prefetcher": True},
                                 GOLDEN_FAULTS, False),
    "baseline_sharing": ("baseline", {}, None, True),
}

#: sha256 of each case's stats snapshot plus latency percentiles.  A
#: digest changes only when the simulated outcome changes.
GOLDEN_DIGESTS = {
    "3level_edram_faults":
        "c127626e5cf941257f6d25ccf7971a774a5baeceda451a7a7e44bfb4779587f8",
    "3level_sram":
        "9c1e3eb6f48bbc3274e356ff917d149f62a0710fdefd2b963c4dbe55d64706e7",
    "baseline":
        "ed40400ddda5fa0b774f4b8bf94ea04294133edc5752f6fcec56ce5e1157cf24",
    "baseline_dram":
        "929937ced487fc428e99883ffc5d8bf6099aa39321c59cc1482e352167b04b6c",
    "baseline_dram_faults":
        "ce6924a9f7d084b63d3b126b7462146b3d6280ae4d1d67447cff05774c141881",
    "baseline_faults":
        "7286b666535135a8e83dd381d0e640032302bdb511eb76a016977aeeacd83ba0",
    "baseline_prefetch_faults":
        "2285429ff09a882613420ce2a3966ba1f95fae06952b8a02601e57c360fc1e9d",
    "baseline_sharing":
        "37f2c2d7cf58bb79ee93cb0edfdc5ae3de4b0d4a34ef6b4823c071de042f574c",
    "baseline_vr":
        "53ccaf18ba5f762f85507b5612cca77d9437cb17aa0f4fdd685c6d3ab7493c29",
    "vaults_sh":
        "739fa10e9885d7cd01c388dcda99ad4d09e491bb075390bbaad9fd2e3f083f8e",
}


def _golden_run(case):
    name, overrides, faults, track_sharing = GOLDEN_CASES[case]
    kwargs = {"scale": 256}
    kwargs.update(overrides)
    config = system_config(name, num_cores=4, **kwargs)
    return simulate(config, DATA_SERVING, GOLDEN_PLAN, seed=5,
                    track_sharing=track_sharing, faults=faults)


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_miss_path_golden(case):
    """``System._miss_shared`` is the one body for every shared-LLC
    feature: pin each combination's full stats snapshot and latency
    percentiles to a recorded digest."""
    result = _golden_run(case)
    system = result.system
    # every case reaches the peer-forward branch; the others must reach
    # the branch they exist for
    assert system.remote_forwards > 0
    if GOLDEN_CASES[case][2] is not None:
        assert system.faults.remapped_accesses > 0
        assert system.faults.refetches > 0
    if system.victim_replication:
        assert system.replica_hits > 0
    if system.track_sharing:
        assert system.llc_reads > 0 and system.llc_demand_writes > 0
    doc = {"stats": system.stats.snapshot(),
           "latency": result.summary.latency_percentiles()}
    blob = json.dumps(doc, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_DIGESTS[case]


# -- L2 inclusion: an L1 victim is always L2-resident -----------------------


#: GOLDEN_FAULTS with its bank events moved into the measurement window
#: of a scale-64 run (whose L1s are large enough to see dirty victims).
INCLUSION_FAULTS = dataclasses.replace(
    GOLDEN_FAULTS,
    vault_events=((47000, 1, "offline"), (48000, 2, "offline"),
                  (49000, 1, "online"), (50000, 2, "online")))


@pytest.mark.parametrize("name", ["3level_sram", "3level_edram"])
def test_dirty_l1_victims_stay_l2_resident(name):
    """Dirty L1 victims of the 3-level designs go back into the L2,
    where inclusion keeps them resident (the fill tail raises
    otherwise), with banks going offline and lines lost to faults."""
    config = system_config(name, num_cores=4, scale=64)
    result = simulate(config, DATA_SERVING, GOLDEN_PLAN, seed=5,
                      faults=INCLUSION_FAULTS)
    system = result.system
    assert system.l1_writebacks > 0
    assert system.faults.remapped_accesses > 0
    assert system.faults.refetches > 0
    for core in range(system.num_cores):
        for block, _state in system.l1d[core].blocks():
            assert system.l2[core].contains(block)


def test_dirty_l1_victim_missing_from_l2_raises():
    s = make_system(l2=16 * 1024)
    l1, l2 = s.l1d[0], s.l2[0]
    s.access(0, 0, True, False)            # block 0: M in L1, in L2
    l2.invalidate(0)                       # break inclusion by hand
    for k in range(l2.ways):               # fill block 0's L2 set
        l2.insert(l2.num_sets * (100 + k), SHARED)
    # blocks of block 0's L1 set that map to another L2 set
    evictors = [b for b in range(l1.num_sets, 64 * l1.num_sets,
                                 l1.num_sets) if b % l2.num_sets][:l1.ways]
    with pytest.raises(AssertionError, match="L2 inclusion"):
        for b in evictors:
            s.access(0, b, False, False)
