"""Timing sanity: measured average latencies match the paper's quoted
round-trip numbers for each organization."""

import pytest

from repro.cores.perf_model import (CoreParams, LEVEL_LLC_LOCAL,
                                    LEVEL_MEMORY)
from repro.sim.config import HierarchyConfig
from repro.sim.driver import simulate
from repro.sim.sampling import SamplingPlan
from repro.core.systems import (baseline_config, silo_config,
                                vaults_sh_config)
from repro.workloads.scaleout import WEB_SEARCH

PLAN = SamplingPlan(4000, 3000)
SCALE = 256


def _avg_latency(result, level):
    lat = cnt = 0.0
    for core in result.summary.cores:
        lat += core.data_latency[level] + core.ifetch_latency[level]
        cnt += core.data_count[level] + core.ifetch_count[level]
    return lat / max(1, cnt)


def test_baseline_llc_hit_round_trip_is_23():
    """Sec. VI-A: average LLC hit round trip = 23 cycles."""
    r = simulate(baseline_config(scale=SCALE), WEB_SEARCH, PLAN, seed=3)
    avg = _avg_latency(r, LEVEL_LLC_LOCAL)
    assert 21 <= avg <= 26


def test_silo_local_hit_is_exactly_23():
    """Table II: SILO vault access = 23 cycles, no NOC involved."""
    r = simulate(silo_config(scale=SCALE), WEB_SEARCH, PLAN, seed=3)
    assert _avg_latency(r, LEVEL_LLC_LOCAL) == pytest.approx(23.0)


def test_vaults_sh_hit_round_trip_is_41():
    """Sec. VI-A: Vaults-Sh average hit round trip = 41 cycles."""
    r = simulate(vaults_sh_config(scale=SCALE), WEB_SEARCH, PLAN, seed=3)
    avg = _avg_latency(r, LEVEL_LLC_LOCAL)
    assert 38 <= avg <= 45


def test_memory_latency_at_least_100_cycles():
    r = simulate(baseline_config(scale=SCALE), WEB_SEARCH, PLAN, seed=3)
    assert _avg_latency(r, LEVEL_MEMORY) >= 100


def test_silo_miss_costs_more_than_baseline_miss():
    """SILO pays the probe + in-DRAM directory on the way to memory
    (Sec. V-C: up to three DRAM lookups)."""
    base = simulate(baseline_config(scale=SCALE), WEB_SEARCH, PLAN,
                    seed=3)
    silo = simulate(silo_config(scale=SCALE), WEB_SEARCH, PLAN, seed=3)
    assert (_avg_latency(silo, LEVEL_MEMORY)
            > _avg_latency(base, LEVEL_MEMORY))


def test_silo_co_hit_is_exactly_32():
    from repro.core.systems import silo_co_config
    r = simulate(silo_co_config(scale=SCALE), WEB_SEARCH, PLAN, seed=3)
    assert _avg_latency(r, LEVEL_LLC_LOCAL) == pytest.approx(32.0)
