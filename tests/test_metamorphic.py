"""Metamorphic properties of the simulator.

Rather than pinning absolute numbers, these tests assert relations
that must hold between *pairs* of runs: seed stability, invariance of
the SILO-vs-shared ranking under trace scale, and monotonicity of
performance in vault latency and fault rate.  Everything here is
deterministic -- a failure is a real property violation, not noise.
"""

import pytest

from repro.faults.plan import FaultPlan
from repro.sim.config import HierarchyConfig
from repro.sim.driver import simulate
from repro.sim.sampling import SamplingPlan
from repro.workloads.scaleout import DATA_SERVING

PLAN = SamplingPlan(1500, 800)
SLOW_PLAN = SamplingPlan(25000, 12000)


def config(kind, scale=512, cores=4, **overrides):
    return HierarchyConfig(name="metamorphic", num_cores=cores,
                           scale=scale, llc_kind=kind, **overrides)


def perf(kind, scale=512, cores=4, seed=7, plan=PLAN, faults=None,
         **overrides):
    return simulate(config(kind, scale, cores, **overrides),
                    DATA_SERVING, plan, seed=seed,
                    faults=faults).summary.performance()


# -- seed stability ----------------------------------------------------


@pytest.mark.parametrize("kind", ["shared", "private_vault"])
def test_same_seed_is_bit_identical(kind):
    a = simulate(config(kind), DATA_SERVING, PLAN, seed=7).summary
    b = simulate(config(kind), DATA_SERVING, PLAN, seed=7).summary
    assert a.performance() == b.performance()
    assert a.per_core_ipc() == b.per_core_ipc()
    assert a.level_counts() == b.level_counts()


def test_different_seeds_differ():
    assert (perf("private_vault", seed=7)
            != perf("private_vault", seed=8))


# -- scale invariance of the system ranking ----------------------------


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_ranking_invariant_under_scale(seed):
    """Which organization wins may depend on the workload draw, but it
    must not depend on the footprint scale divisor: halving the scale
    keeps the sign of (silo - shared)."""
    deltas = [perf("private_vault", scale=sc, seed=seed)
              - perf("shared", scale=sc, seed=seed)
              for sc in (256, 128)]
    assert all(d != 0 for d in deltas)
    assert (deltas[0] > 0) == (deltas[1] > 0)


@pytest.mark.slow
@pytest.mark.parametrize("scale", [64, 32])
def test_silo_wins_at_paper_scales(scale):
    """At the paper's configuration (16 cores, realistic sampling)
    SILO beats the shared LLC at both footprint scales."""
    silo = perf("private_vault", scale=scale, cores=16, plan=SLOW_PLAN)
    shared = perf("shared", scale=scale, cores=16, plan=SLOW_PLAN)
    assert silo > shared


# -- monotonicity ------------------------------------------------------


def test_perf_monotone_in_vault_latency():
    perfs = [perf("private_vault", llc_latency=lat)
             for lat in (23, 34, 46)]
    assert perfs[0] > perfs[1] > perfs[2]


def test_perf_monotone_in_memory_latency():
    perfs = [perf("private_vault", memory_latency=lat)
             for lat in (100, 150, 220)]
    assert perfs[0] > perfs[1] > perfs[2]


@pytest.mark.parametrize("kind", ["shared", "private_vault"])
@pytest.mark.parametrize("seed", [3, 7, 11])
def test_perf_degrades_from_faults(kind, seed):
    """Endpoint monotonicity: a heavy uncorrectable bit-flip rate
    never beats the fault-free run (any trace seed, any org)."""
    heavy = FaultPlan(seed=0, data_flip_rate=0.2, tag_flip_rate=0.2,
                      double_bit_fraction=1.0)
    assert perf(kind, seed=seed, faults=heavy) < perf(kind, seed=seed)


@pytest.mark.parametrize("kind", ["shared", "private_vault"])
def test_perf_chain_monotone_in_fault_rate(kind):
    """Full-chain monotonicity along the swept rates (deterministic
    for this plan seed; the injector's counter-based draws make the
    fault set at a lower rate a subset of the higher rate's)."""
    perfs = []
    for rate in (0.0, 1e-2, 5e-2, 2e-1):
        fp = (FaultPlan(seed=11, data_flip_rate=rate,
                        tag_flip_rate=rate, double_bit_fraction=1.0)
              if rate else None)
        perfs.append(perf(kind, faults=fp))
    assert all(a >= b for a, b in zip(perfs, perfs[1:]))
    assert perfs[0] > perfs[-1]
