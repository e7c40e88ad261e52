"""Finished runs hold exact integer counters, pinned to the float64 path.

The oracle is the float64 accumulator a run fills, which every result
held before runs were narrowed at the end: the kernel run into a fresh,
unpooled state, with the column every lane shares added to its plane. Across all 18 configurations, both orientations, and
reads tracked and not, a finished result's unsigned integer counters
must equal it, its packed lanes must be exactly the lanes holding a
count, every analysis must give the same figures from either form, and
the store, the encoded in-memory pair and the export must bring the
counters back unchanged.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.array.architecture import CRAM_ROW, default_architecture
from repro.array.geometry import Orientation
from repro.array.state import ArrayState
from repro.balance.config import all_configurations
from repro.core.failure import failure_timeline
from repro.core.io import encode_result, load_result, restore_result, save_result
from repro.core.kernel import run_batched_epochs
from repro.core.lifetime import lifetime_from_result, lifetime_with_read_wear
from repro.core.scratch import POOL
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.devices.endurance import LognormalEndurance
from repro.engine import JobSpec, ResultStore
from repro.fleet import CohortSpec, PopulationSpec
from repro.fleet.population import Population
from repro.workloads.dotproduct import DotProduct
from repro.workloads.multiply import ParallelMultiplication

#: 32 lanes of 64 cells on either axis.
ARCHES = {
    "column": default_architecture(64, 32),
    "row": CRAM_ROW.resized(32, 64),
}

#: One program on every lane (a reference set runs: every lane is
#: written) and programs on 8 of 32 lanes (the idle lanes are the
#: largest set, so the kernel marks the lanes each set lands on).
WORKLOADS = {
    "every-lane": ParallelMultiplication(bits=8),
    "few-lanes": DotProduct(n_elements=8, bits=8),
}

CONFIGS = all_configurations(recompile_interval=7)
ITERATIONS = 60


def float64_oracle(arch, workload, config, settings):
    """The run's float64 accumulator: the kernel on a fresh state, with
    the column every lane shares (kept apart from the plane until the
    run finishes) added to every lane here, in float64, so the oracle
    never goes through the packing it checks."""
    simulator = EnduranceSimulator(arch, settings)
    run = simulator._prepare(workload, config, ITERATIONS, settings)
    state = ArrayState(arch.geometry)
    run_batched_epochs(
        arch, config, state, run.rng, run.groups, ITERATIONS,
        remappers=run.remappers, lane_loads=run.lane_loads,
        track_reads=settings.track_reads,
    )
    for kind, column in state.columns.items():
        plane = state.write_counts if kind == "write" else state.read_counts
        state.lane_view(plane, arch.orientation)[...] += column[:, None]
    state.columns = {}
    return state


def float64_result(result, state):
    """``result`` with the oracle's float64 counters in place of its own."""
    return replace(result, state=state)


def lane_axis(arch):
    return 0 if arch.orientation is Orientation.COLUMN_PARALLEL else 1


def assert_distributions_equal(ours, theirs, blocks):
    for name in ("max", "total", "mean", "balance", "gini",
                 "cell_utilization", "max_per_iteration"):
        assert getattr(ours, name) == getattr(theirs, name), name
    for name in ("normalized", "lane_matrix", "offset_profile",
                 "lane_profile"):
        assert np.array_equal(getattr(ours, name)(), getattr(theirs, name)())
    assert np.array_equal(ours.downsample(blocks), theirs.downsample(blocks))
    assert ours.summary() == theirs.summary()
    assert ours.ascii_heatmap(blocks) == theirs.ascii_heatmap(blocks)
    assert ours.to_csv_string() == theirs.to_csv_string()


@pytest.mark.parametrize("track_reads", [True, False],
                         ids=["reads", "no-reads"])
@pytest.mark.parametrize("arch", list(ARCHES.values()), ids=list(ARCHES))
@pytest.mark.parametrize("workload", list(WORKLOADS.values()),
                         ids=list(WORKLOADS))
def test_every_config_equals_the_float64_path(workload, arch, track_reads):
    settings = SimulationSettings(seed=11, track_reads=track_reads)
    simulator = EnduranceSimulator(arch, settings)
    for config in CONFIGS:
        oracle = float64_oracle(arch, workload, config, settings)
        result = simulator.run(workload, config, ITERATIONS)
        state = result.state
        assert oracle.write_counts.dtype == np.float64
        pairs = [("write", state.write_counts, oracle.write_counts)]
        if track_reads:
            pairs.append(("read", state.read_counts, oracle.read_counts))
        else:
            assert "read" not in state.packed
            assert state.read_counts.strides == (0, 0)
            assert not state.read_counts.any()
        for name, ours, theirs in pairs:
            assert ours.dtype.kind == "u", config.label
            assert ours.dtype == np.min_scalar_type(int(theirs.max()))
            assert np.array_equal(ours, theirs), (config.label, name)
            lanes, block = state.packed[name]
            written = np.flatnonzero(theirs.any(axis=lane_axis(arch)))
            assert np.array_equal(lanes, written), (config.label, name)
            assert not block.flags.writeable

        # Every analysis reads the same figures off either form.
        wide = float64_result(result, oracle)
        assert_distributions_equal(
            result.write_distribution, wide.write_distribution, (4, 4)
        )
        assert result.max_writes_per_iteration == (
            wide.max_writes_per_iteration
        )
        assert lifetime_from_result(result) == lifetime_from_result(wide)
        assert lifetime_from_result(
            result, endurance_model=LognormalEndurance(1e9, 0.4, rng=3)
        ) == lifetime_from_result(
            wide, endurance_model=LognormalEndurance(1e9, 0.4, rng=3)
        )
        assert failure_timeline(
            result, 16, LognormalEndurance(1e9, 0.4, rng=5)
        ) == failure_timeline(wide, 16, LognormalEndurance(1e9, 0.4, rng=5))
        assert state.total_writes == oracle.total_writes
        assert state.total_reads == oracle.total_reads
        if track_reads:
            assert_distributions_equal(
                result.read_distribution, wide.read_distribution, (4, 4)
            )
            assert lifetime_with_read_wear(result, 1e-3) == (
                lifetime_with_read_wear(wide, 1e-3)
            )


@pytest.mark.parametrize("repacking", [False, True])
@pytest.mark.parametrize("arch", list(ARCHES.values()), ids=list(ARCHES))
def test_fleet_thresholds_equal_the_float64_path(arch, repacking):
    settings = SimulationSettings(seed=2, track_reads=False)
    config = CONFIGS[4]
    workload = WORKLOADS["few-lanes"]
    result = EnduranceSimulator(arch, settings).run(
        workload, config, ITERATIONS
    )
    wide = float64_result(
        result, float64_oracle(arch, workload, config, settings)
    )
    population = Population.build(
        PopulationSpec(
            n_arrays=6,
            technology_mix=(("MRAM", 1.0), ("PCM", 1.0)),
            cohorts=(CohortSpec("add"),),
            endurance_sigma=0.3,
            repacking=repacking,
        )
    )
    offsets = [16] if repacking else None
    ours = population.death_thresholds([result], 7, offsets)
    theirs = population.death_thresholds([wide], 7, offsets)
    assert np.array_equal(ours, theirs)


@pytest.mark.parametrize("track_reads", [True, False],
                         ids=["reads", "no-reads"])
@pytest.mark.parametrize("arch", list(ARCHES.values()), ids=list(ARCHES))
def test_one_program_finishes_as_one_column(arch, track_reads):
    # One program on every lane: the kernel never writes the plane, so
    # each finished block is a read-only view of one column, and its
    # counts are the per-epoch oracle's.
    settings = SimulationSettings(seed=11, track_reads=track_reads)
    simulator = EnduranceSimulator(arch, settings)
    workload = WORKLOADS["every-lane"]
    names = ["write", "read"] if track_reads else ["write"]
    for config in CONFIGS:
        result = simulator.run(workload, config, ITERATIONS)
        oracle = simulator._run_epoch_loop(workload, config, ITERATIONS)
        assert list(result.state.packed) == names
        for name in names:
            lanes, block = result.state.packed[name]
            assert np.array_equal(lanes, np.arange(arch.lane_count))
            assert block.strides[1] == 0, (config.label, name)
            assert not block.flags.writeable
            counts = f"{name}_counts"
            assert np.array_equal(
                getattr(result.state, counts), getattr(oracle.state, counts)
            ), (config.label, name)


@pytest.mark.parametrize("track_reads", [True, False],
                         ids=["reads", "no-reads"])
@pytest.mark.parametrize("arch", list(ARCHES.values()), ids=list(ARCHES))
def test_store_pipe_and_export_keep_the_packed_form(
    tmp_path, arch, track_reads
):
    settings = SimulationSettings(seed=4, track_reads=track_reads)
    workload = WORKLOADS["few-lanes"]
    store = ResultStore(tmp_path / "store")
    for index, config in enumerate(CONFIGS):
        result = EnduranceSimulator(arch, settings).run(
            workload, config, ITERATIONS
        )
        oracle = float64_oracle(arch, workload, config, settings)
        spec = JobSpec.from_settings(
            workload, arch, config=config, iterations=ITERATIONS,
            settings=settings,
        )
        store.save(spec, result)
        export = str(tmp_path / f"export-{index}.result")
        save_result(result, export)
        metadata, arrays = encode_result(result)
        for name, (lanes, block) in result.state.packed.items():
            # The payload is the result's own arrays, not a second pack.
            assert arrays[f"{name}_lanes"] is lanes
            assert arrays[f"{name}_block"] is block
        for loaded in (
            restore_result(metadata, arrays),
            store.load(spec),
            load_result(export),
        ):
            for name in ("write_counts", "read_counts"):
                ours = getattr(loaded.state, name)
                assert ours.dtype == getattr(result.state, name).dtype
                assert np.array_equal(ours, getattr(oracle, name))
            assert loaded.state.packed.keys() == result.state.packed.keys()


def test_pooled_accumulator_is_not_retained(tiny_arch):
    # Two runs on one geometry share one pooled workspace; neither
    # result holds it, so the first result survives the second run.
    settings = SimulationSettings(seed=1, track_reads=True)
    simulator = EnduranceSimulator(tiny_arch, settings)
    workload = WORKLOADS["every-lane"]
    first = simulator.run(workload, CONFIGS[0], ITERATIONS)
    kept = first.state.write_counts.copy()
    simulator.run(workload, CONFIGS[-1], 3 * ITERATIONS)
    assert np.array_equal(first.state.write_counts, kept)
    shape = (tiny_arch.geometry.rows, tiny_arch.geometry.cols)
    for slot in ("state.writes", "state.reads"):
        pooled = POOL.get(slot, shape)
        for name in ("write_counts", "read_counts"):
            assert not np.shares_memory(
                pooled, getattr(first.state, name)
            )
