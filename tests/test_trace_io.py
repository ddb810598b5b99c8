"""Trace save/load round-trips."""

import pytest

from repro.sim.trace_io import save_traces, load_traces
from repro.workloads.generator import generate_traces
from repro.workloads.scaleout import DATA_SERVING


def test_round_trip(tmp_path):
    traces, layout = generate_traces(DATA_SERVING, 2, 300, scale=512,
                                     seed=1)
    path = tmp_path / "t.npz"
    save_traces(path, traces, layout)
    loaded, loaded_layout = load_traces(path)
    assert len(loaded) == len(traces)
    for a, b in zip(traces, loaded):
        assert a.core_id == b.core_id
        assert a.blocks == b.blocks
        assert a.flags == b.flags
        assert a.instr_per_event == b.instr_per_event
        assert a.prewarm_events == b.prewarm_events
    assert loaded_layout.rw_shared_range == layout.rw_shared_range
    assert loaded_layout.region_ranges == layout.region_ranges
    assert loaded_layout.total_blocks == layout.total_blocks


def test_round_trip_without_layout(tmp_path):
    traces, _ = generate_traces(DATA_SERVING, 1, 100, scale=512, seed=1)
    path = tmp_path / "t.npz"
    save_traces(path, traces)
    loaded, layout = load_traces(path)
    assert layout is None
    assert loaded[0].blocks == traces[0].blocks


def test_saved_traces_replay_identically(tmp_path):
    from repro.core.systems import silo_config
    from repro.cores.perf_model import CoreParams
    from repro.sim.system import System
    from repro.sim.driver import run_system

    traces, layout = generate_traces(DATA_SERVING, 4, 400, scale=512,
                                     seed=2)
    path = tmp_path / "t.npz"
    save_traces(path, traces, layout)
    loaded, _ = load_traces(path)

    def run(trs):
        system = System(silo_config(num_cores=4, scale=512),
                        [DATA_SERVING.core] * 4)
        return run_system(system, trs, 100, 100).summary.performance()

    assert run(traces) == pytest.approx(run(loaded))


def test_save_empty_rejected(tmp_path):
    with pytest.raises(ValueError):
        save_traces(tmp_path / "t.npz", [])
