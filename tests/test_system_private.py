"""SILO (private vault) system: MOESI, vault inclusion, directory."""

import hashlib
import json

import pytest

from repro.coherence.states import (SHARED, EXCLUSIVE, OWNED, MODIFIED)
from repro.core.systems import system_config
from repro.cores.perf_model import (CoreParams, LEVEL_LLC_LOCAL,
                                    LEVEL_LLC_REMOTE, LEVEL_MEMORY)
from repro.faults.plan import FaultPlan
from repro.sim.config import HierarchyConfig
from repro.sim.driver import simulate
from repro.sim.sampling import SamplingPlan
from repro.sim.system import System
from repro.workloads.scaleout import DATA_SERVING


def make_silo(cores=4, vault_blocks=256, local_mp=False, dir_cache=False,
              l2=None):
    config = HierarchyConfig(
        name="test_silo", num_cores=cores, scale=1,
        l1_size_bytes=4096, l1_ways=4,
        l2_size_bytes=l2,
        llc_kind="private_vault", llc_size_bytes=vault_blocks * 64,
        llc_latency=23,
        local_miss_predictor=local_mp, directory_cache=dir_cache,
        memory_queueing=False)
    return System(config, [CoreParams()] * cores)


def test_local_vault_hit_latency():
    s = make_silo()
    s.access(0, 100, False, False)
    s.l1d[0].invalidate(100)
    lat = s.access(0, 100, False, False)
    assert lat == 23
    assert s.cores[0].data_count[LEVEL_LLC_LOCAL] == 1


def test_memory_fill_grants_exclusive():
    s = make_silo()
    s.access(0, 100, False, False)
    assert s.vaults[0].lookup(100) == EXCLUSIVE
    assert s.l1d[0].lookup(100) == EXCLUSIVE
    assert s.cores[0].data_count[LEVEL_MEMORY] == 1


def test_remote_read_makes_owner_owned():
    """MOESI: a dirty holder supplies data and keeps ownership as O --
    no memory writeback (Sec. V-B)."""
    s = make_silo()
    s.access(0, 100, True, False)          # core0: M
    writes_before = s.memory.writes
    lat = s.access(1, 100, False, False)
    assert s.vaults[0].lookup(100) == OWNED
    assert s.vaults[1].lookup(100) == SHARED
    assert s.memory.writes == writes_before   # no writeback
    assert s.cores[1].data_count[LEVEL_LLC_REMOTE] == 1
    assert lat > 23


def test_clean_remote_read_shares():
    s = make_silo()
    s.access(0, 100, False, False)   # E
    s.access(1, 100, False, False)
    assert s.vaults[0].lookup(100) == SHARED
    assert s.vaults[1].lookup(100) == SHARED


def test_write_invalidates_all_remote_vaults():
    s = make_silo()
    s.access(0, 100, False, False)
    s.access(1, 100, False, False)
    s.access(2, 100, True, False)
    assert s.vaults[0].lookup(100) is None
    assert s.vaults[1].lookup(100) is None
    assert s.vaults[2].lookup(100) == MODIFIED
    assert s.l1d[0].lookup(100) is None
    assert s.directory.sharers(100) == [2]


def test_vault_inclusion_back_invalidates_l1():
    """Evicting a vault block must evict the L1 copy (inclusive)."""
    s = make_silo()
    sets = s.vaults[0].num_sets
    s.access(0, 5, False, False)
    assert s.l1d[0].contains(5)
    s.access(0, 5 + sets, False, False)  # same vault set -> evicts 5
    assert not s.vaults[0].contains(5)
    assert not s.l1d[0].contains(5)
    assert s.vault_evictions == 1


def test_dirty_vault_eviction_writes_to_memory():
    s = make_silo()
    sets = s.vaults[0].num_sets
    s.access(0, 5, True, False)
    writes_before = s.memory.writes
    s.access(0, 5 + sets, False, False)
    assert s.memory.writes == writes_before + 1


def test_clean_vault_eviction_is_silent():
    s = make_silo()
    sets = s.vaults[0].num_sets
    s.access(0, 5, False, False)
    writes_before = s.memory.writes
    s.access(0, 5 + sets, False, False)
    assert s.memory.writes == writes_before


def test_local_miss_predictor_skips_probe():
    lat_noopt = make_silo().access(0, 100, False, False)
    lat_mp = make_silo(local_mp=True).access(0, 100, False, False)
    assert lat_noopt - lat_mp == 23


def test_directory_cache_skips_dram_directory():
    s_noopt = make_silo()
    s_dc = make_silo(dir_cache=True)
    lat_noopt = s_noopt.access(0, 100, False, False)
    lat_dc = s_dc.access(0, 100, False, False)
    assert lat_noopt - lat_dc == s_noopt.dir_latency


def test_directory_lookup_counted():
    s = make_silo()
    s.access(0, 100, False, False)
    assert s.directory_lookups == 1


def test_write_upgrade_on_shared_l1_hit():
    s = make_silo()
    s.access(0, 100, False, False)
    s.access(1, 100, False, False)     # both S
    s.access(0, 100, True, False)      # L1 hit, S -> M upgrade
    assert s.l1d[0].lookup(100) == MODIFIED
    assert s.vaults[0].lookup(100) == MODIFIED
    assert s.vaults[1].lookup(100) is None


def test_ifetch_fills_vault_and_l1i():
    s = make_silo()
    s.access(0, 300, False, True)
    assert s.l1i[0].contains(300)
    assert s.vaults[0].contains(300)


def test_code_shared_via_remote_vault():
    s = make_silo()
    s.access(0, 300, False, True)
    lat = s.access(1, 300, False, True)
    assert s.cores[1].ifetch_count[LEVEL_LLC_REMOTE] == 1
    assert s.memory.reads == 1   # served on chip the second time


def test_three_level_silo_l2_path():
    s = make_silo(l2=16 * 1024)
    s.access(0, 100, False, False)
    s.l1d[0].invalidate(100)
    lat = s.access(0, 100, False, False)
    assert lat == s.l2_latency


def test_rw_shared_range_attribution():
    s = make_silo()
    s.rw_shared_range = (100, 101)
    s.access(0, 100, False, False)
    s.access(0, 50, False, False)
    assert s.cores[0].rw_shared_count == 1


# -- golden: the miss path over every SILO feature --------------------------

GOLDEN_PLAN = SamplingPlan(2000, 1000)

#: Flip, stall and directory faults, plus vault 1 (an offline core:
#: write-through, bypassed vault) and vault 2 (an offline home node:
#: broadcast snoop) going offline and back online inside the
#: measurement window (ticks count accesses from the prewarm prefix on).
GOLDEN_FAULTS = FaultPlan(
    seed=3, data_flip_rate=0.02, tag_flip_rate=0.01,
    directory_flip_rate=0.02, double_bit_fraction=0.5, stall_rate=0.05,
    vault_events=((17000, 1, "offline"), (18500, 2, "offline"),
                  (20000, 1, "online"), (21000, 2, "online")))

#: case -> (system, config overrides, fault plan).
GOLDEN_CASES = {
    "silo": ("silo", {}, None),
    "silo_faults": ("silo", {}, GOLDEN_FAULTS),
    "3level_silo": ("3level_silo", {}, None),
    "3level_silo_faults": ("3level_silo", {}, GOLDEN_FAULTS),
    "silo_missmap": ("silo", {"local_miss_predictor": "missmap"}, None),
    "silo_sram_dir": ("silo", {"directory_cache": "sram"}, None),
    "silo_mesi": ("silo", {"protocol": "mesi"}, None),
    "silo_prefetch_faults": ("silo", {"l1_prefetcher": True},
                             GOLDEN_FAULTS),
}

#: sha256 of each case's stats snapshot plus latency percentiles.  A
#: digest changes only when the simulated outcome changes.
GOLDEN_DIGESTS = {
    "silo":
        "b2c0513b4e61ca16366627ff48dc19f2468463db7f77fb5d811aab9f48b20601",
    "silo_faults":
        "a171baf7706a3b4a429acadd6320e991dc2b6d5fdc43a3f58202226d177a2e1d",
    "3level_silo":
        "90dbd64feafd7262b89648f259b5f444ab2f39f0e2a96bad9003a3933f7dc9ee",
    "3level_silo_faults":
        "1355a10ec97e86c0500c718af90aa7cd9f3d715b6413bee0a234c1400cbaf209",
    "silo_missmap":
        "0b2023284c2906f512f006f36e44e325e472d8c9a9e8aa02ea0a62d6728fe964",
    "silo_sram_dir":
        "32b7ae7a3e345b47b136ee1ada534584b6275126bea701db4bd08c23dca2ed41",
    "silo_mesi":
        "0ecdb81125c31e2b9c3db7c30569652826053f48c47357c5269f3c4aff0312e5",
    "silo_prefetch_faults":
        "8c2deebe721119dc0b702b22579e5546b462d2296b71d5850d6d5da838c32153",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_miss_path_golden(case):
    """``System._miss_private`` is the one body for every SILO feature:
    pin each combination's full stats snapshot and latency percentiles
    to a recorded digest."""
    name, overrides, faults = GOLDEN_CASES[case]
    config = system_config(name, num_cores=4, scale=256, **overrides)
    result = simulate(config, DATA_SERVING, GOLDEN_PLAN, seed=5,
                      faults=faults)
    if faults is not None:
        assert result.system.faults.write_throughs > 0
        assert result.system.faults.broadcast_snoops > 0
    doc = {"stats": result.system.stats.snapshot(),
           "latency": result.summary.latency_percentiles()}
    blob = json.dumps(doc, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_DIGESTS[case]
