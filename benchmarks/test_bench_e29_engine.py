"""E29 — experiment engine: cached 18-configuration grids.

Not a paper figure — an infrastructure benchmark for the
``repro.engine`` orchestration subsystem. It runs the Fig. 17b grid
(18 balance configurations, 3x3 convolution) three ways, every one
through the engine (``configuration_grid`` runs every cell as a job):

1. with no store (nothing persists);
2. with a cold result store (populates the cache);
3. with the store warm (all 18 jobs cached).

The warm pass must be at least 2x faster than the storeless pass —
that is the store's value proposition on re-runs, killed-and-resumed
sweeps and figure regeneration — and bit-identical to it.

The grid is ``conv``, not the 32-bit multiplication: the multiplication
runs one program on every lane, so its periodic configurations
fast-forward and its whole grid simulates in about the time a warm
store takes to load, which benchmarks the disk instead of the engine.
``conv``'s configurations with a random or wear-aware axis still pay
for every epoch. The mapping is built before any pass is timed (every
pass shares it through the process's mapping memo), so the storeless
pass times simulation, not the one-time lowering. The kernel's
ranked-block memo is emptied before the storeless pass, so a run after
other benchmarks in one process starts as a fresh process does. The
horizon is floored at 20,000 iterations (like E11's remap floor); at
the paper's 100,000 iterations the cache margin only widens.
"""

import time

import numpy as np

from conftest import bench_iterations
from repro.array.architecture import default_architecture
from repro.core import kernel
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator, mapping_for
from repro.core.sweep import configuration_grid
from repro.workloads.registry import get_workload

WORKLOAD = get_workload("conv")


def _iterations() -> int:
    return max(bench_iterations(20_000), 20_000)


def _grid(**engine_kwargs):
    simulator = EnduranceSimulator(
        default_architecture(), settings=SimulationSettings(seed=7)
    )
    workload = WORKLOAD
    start = time.perf_counter()
    entries = configuration_grid(
        simulator, workload, iterations=_iterations(), **engine_kwargs
    )
    return entries, time.perf_counter() - start


def test_bench_e29_engine_cache_speedup(record, tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("engine-store"))
    mapping_for(WORKLOAD, default_architecture())
    kernel._MAPS_MEMO.clear()

    storeless, storeless_s = _grid()
    cold, cold_s = _grid(cache_dir=cache_dir)
    warm, warm_s = _grid(cache_dir=cache_dir)

    for ours, theirs in zip(storeless, warm):
        assert ours.label == theirs.label
        assert np.array_equal(
            ours.result.state.write_counts, theirs.result.state.write_counts
        ), ours.label
        assert ours.improvement == theirs.improvement

    speedup = storeless_s / warm_s
    lines = [
        "E29 experiment engine, 18-config convolution grid "
        f"({_iterations()} iterations)",
        f"  engine, no store       {storeless_s:8.2f} s",
        f"  engine, cold store     {cold_s:8.2f} s",
        f"  engine, warm store     {warm_s:8.2f} s  "
        f"({speedup:.1f}x vs no store)",
        "  warm results bit-identical to no store: yes",
    ]
    record("E29_engine", "\n".join(lines))

    assert speedup >= 2.0, (
        f"warm-cache grid only {speedup:.2f}x faster than no store "
        f"({warm_s:.2f}s vs {storeless_s:.2f}s)"
    )
