"""Tests for repro.core.simulator."""

import collections
import uuid

import numpy as np
import pytest

from repro.array.architecture import default_architecture
from repro.array.executor import replay_assignment
from repro.array.state import ArrayState
from repro.balance.config import BalanceConfig
from repro.balance.software import StrategyKind
from repro.core.scratch import POOL
from repro.core.settings import SimulationSettings
from repro.core.simulator import (
    MAPPING_MEMO_SIZE,
    EnduranceSimulator,
    mapping_for,
)
from repro.core.sweep import configuration_grid
from repro.telemetry import Telemetry, set_telemetry
from repro.workloads.base import Workload
from repro.workloads.dotproduct import DotProduct
from repro.workloads.multiply import ParallelMultiplication
from repro.workloads.registry import get_workload
from repro.workloads.trace import TraceWorkload, gemv_trace_lines
from repro.workloads.vectoradd import VectorAdd


@pytest.fixture
def sim(small_arch):
    return EnduranceSimulator(small_arch, settings=SimulationSettings(seed=11))


@pytest.fixture
def workload():
    return ParallelMultiplication(bits=8)


class TestConservation:
    def test_total_writes_invariant_across_configs(self, sim, workload):
        # Load balancing moves writes; it never creates or destroys them.
        totals = set()
        for label in ("StxSt", "RaxRa", "BsxBs", "StxSt+Hw", "RaxBs+Hw"):
            result = sim.run(
                workload, BalanceConfig.from_label(label), iterations=300
            )
            totals.add(round(result.state.total_writes, 3))
        assert len(totals) == 1

    def test_totals_scale_linearly_with_iterations(self, sim, workload):
        one = sim.run(workload, BalanceConfig(), iterations=100)
        two = sim.run(workload, BalanceConfig(), iterations=200)
        assert two.state.total_writes == pytest.approx(
            2 * one.state.total_writes
        )

    def test_reads_tracked_by_default(self, sim, workload):
        result = sim.run(workload, BalanceConfig(), iterations=50)
        assert result.state.total_reads > 0

    def test_track_reads_off_zeroes_reads(self, sim, workload):
        result = sim.run(
            workload, BalanceConfig(), iterations=50,
            settings=sim.settings.replace(track_reads=False),
        )
        assert result.state.total_reads == 0


class TestAgainstReplay:
    def test_static_run_matches_instruction_replay(self, workload):
        arch = default_architecture(64, 16)
        sim = EnduranceSimulator(arch, settings=SimulationSettings(seed=0))
        result = sim.run(workload, BalanceConfig(), iterations=7)
        expected = ArrayState(arch.geometry)
        mapping = workload.build(arch)
        replay_assignment(arch, mapping.assignment, expected, repetitions=7)
        assert np.allclose(result.state.write_counts, expected.write_counts)
        assert np.allclose(result.state.read_counts, expected.read_counts)

    def test_software_epochs_match_manual_composition(self, workload):
        # Byte-shift is deterministic, so the simulator's epoch loop can be
        # recomposed by hand.
        from repro.balance.mapping import byte_shift_permutation

        arch = default_architecture(64, 16)
        sim = EnduranceSimulator(arch, settings=SimulationSettings(seed=0))
        config = BalanceConfig(
            within=StrategyKind.BYTE_SHIFT, recompile_interval=3
        )
        result = sim.run(workload, config, iterations=7)

        expected = ArrayState(arch.geometry)
        mapping = workload.build(arch)
        for epoch, length in ((0, 3), (1, 3), (2, 1)):
            replay_assignment(
                arch,
                mapping.assignment,
                expected,
                within_map=byte_shift_permutation(arch.lane_size, epoch),
                repetitions=length,
            )
        assert np.allclose(result.state.write_counts, expected.write_counts)


class TestEpochSemantics:
    def test_static_config_is_single_epoch(self, sim, workload):
        result = sim.run(workload, BalanceConfig(), iterations=1000)
        assert result.epochs == 1

    def test_hardware_only_is_single_epoch(self, sim, workload):
        result = sim.run(
            workload, BalanceConfig(hardware=True), iterations=1000
        )
        assert result.epochs == 1

    def test_software_configs_epoch_count(self, sim, workload):
        config = BalanceConfig(
            within=StrategyKind.RANDOM, recompile_interval=100
        )
        result = sim.run(workload, config, iterations=250)
        assert result.epochs == 3  # 100 + 100 + 50

    def test_seed_reproducibility(self, small_arch, workload):
        config = BalanceConfig.from_label("RaxRa")
        settings = SimulationSettings(seed=5)
        a = EnduranceSimulator(small_arch, settings=settings).run(
            workload, config, iterations=300
        )
        b = EnduranceSimulator(small_arch, settings=settings).run(
            workload, config, iterations=300
        )
        assert np.allclose(a.state.write_counts, b.state.write_counts)

    def test_different_seeds_differ(self, small_arch, workload):
        config = BalanceConfig.from_label("RaxRa")
        a = EnduranceSimulator(
            small_arch, settings=SimulationSettings(seed=1)
        ).run(workload, config, iterations=300)
        b = EnduranceSimulator(
            small_arch, settings=SimulationSettings(seed=2)
        ).run(workload, config, iterations=300)
        assert not np.allclose(a.state.write_counts, b.state.write_counts)

    def test_invalid_iterations_rejected(self, sim, workload):
        with pytest.raises(ValueError):
            sim.run(workload, BalanceConfig(), iterations=0)


class TestHardwarePath:
    def test_hardware_run_matches_explicit_remapper(self, workload):
        # End-to-end: the simulator's Hw path equals the remapper's naive
        # stateful simulation broadcast over lanes.
        from repro.balance.hardware import HardwareRemapper

        arch = default_architecture(64, 8)
        sim = EnduranceSimulator(arch, settings=SimulationSettings(seed=0))
        result = sim.run(
            workload, BalanceConfig(hardware=True), iterations=5
        )
        program = workload.build(arch).distinct_programs()[0]
        remapper = HardwareRemapper(program, arch.lane_size, True)
        writes, reads = remapper.simulate_explicit(5)
        expected_writes = np.outer(writes, np.ones(arch.lane_count))
        assert np.allclose(result.state.write_counts, expected_writes)

    def test_hardware_spreads_multi_role_workload(self, small_arch):
        sim = EnduranceSimulator(
            small_arch, settings=SimulationSettings(seed=3)
        )
        workload = DotProduct(n_elements=32, bits=8)
        static = sim.run(workload, BalanceConfig(), iterations=200)
        hardware = sim.run(
            workload, BalanceConfig(hardware=True), iterations=200
        )
        assert hardware.state.max_writes <= static.state.max_writes
        assert hardware.state.total_writes == pytest.approx(
            static.state.total_writes
        )

    def test_result_metadata(self, sim, workload):
        config = BalanceConfig.from_label("RaxSt+Hw")
        result = sim.run(workload, config, iterations=120)
        assert result.iterations == 120
        assert result.config is config
        assert result.workload_name == workload.name
        assert result.max_writes_per_iteration > 0
        assert result.iteration_latency_s > 0
        dist = result.write_distribution
        assert "RaxSt+Hw" in dist.label


class TestMappingCache:
    """Regression: the mapping memo must key on parameters, not name."""

    def test_same_name_different_params_do_not_collide(self, sim):
        from repro.synth.bits import AllocationPolicy

        ring = ParallelMultiplication(bits=8)
        packed = ParallelMultiplication(
            bits=8, allocation_policy=AllocationPolicy.LOWEST_FIRST
        )
        assert ring.name == packed.name  # the collision the bug needed
        first = sim.run(ring, BalanceConfig(), iterations=50)
        second = sim.run(packed, BalanceConfig(), iterations=50)
        # LOWEST_FIRST packs the workspace tight; RING sweeps the lane.
        # With the name-keyed cache both runs reused the ring mapping and
        # these distributions came out identical.
        assert not np.array_equal(
            first.state.write_counts, second.state.write_counts
        )

    def test_signature_covers_class_and_params(self):
        ring = ParallelMultiplication(bits=8)
        wide = ParallelMultiplication(bits=16)
        assert ring.signature != wide.signature
        assert "ParallelMultiplication" in ring.signature
        assert "bits=8" in ring.signature


#: Builds per :class:`SpyWorkload` token. Kept outside the instances so
#: counting does not change the workload's signature.
_BUILDS = collections.Counter()


class SpyWorkload(Workload):
    """An 8-bit vector add that counts its builds.

    Each instance carries a fresh ``token``, so its entry in the
    process-wide mapping memo is cold whatever other tests built.
    """

    name = "spy-add"

    def __init__(self):
        self.token = uuid.uuid4().hex

    def build(self, architecture):
        _BUILDS[self.token] += 1
        return VectorAdd(bits=8).build(architecture)

    @property
    def builds(self):
        return _BUILDS[self.token]


class TestMappingMemo:
    """Every simulator and engine job shares one build per content."""

    def test_two_fresh_simulators_build_once(self, small_arch):
        workload = SpyWorkload()
        first = EnduranceSimulator(small_arch).run(
            workload, BalanceConfig(), iterations=20
        )
        second = EnduranceSimulator(small_arch).run(
            workload, BalanceConfig.from_label("RaxRa"), iterations=20
        )
        assert workload.builds == 1
        assert first.mapping is second.mapping

    def test_equal_params_share_one_build(self, small_arch):
        workload = SpyWorkload()
        twin = SpyWorkload()
        twin.token = workload.token  # same class, same parameters
        EnduranceSimulator(small_arch).run(workload, BalanceConfig(), 20)
        EnduranceSimulator(small_arch).run(twin, BalanceConfig(), 20)
        assert workload.builds == 1

    def test_cold_engine_grid_builds_once(self, small_arch, tmp_path):
        workload = SpyWorkload()
        configs = [
            BalanceConfig.from_label(label)
            for label in ("StxSt", "RaxRa", "BsxBs+Hw")
        ]
        grid = configuration_grid(
            EnduranceSimulator(small_arch),
            workload,
            iterations=30,
            configs=configs,
            cache_dir=str(tmp_path),
        )
        assert len(grid) == 3
        # verify_spec and execute_spec, for every cell, share the build.
        assert workload.builds == 1

    def test_equal_architecture_values_share_a_build(self):
        workload = SpyWorkload()
        for _ in range(2):
            EnduranceSimulator(default_architecture(128, 128)).run(
                workload, BalanceConfig(), iterations=10
            )
        assert workload.builds == 1
        EnduranceSimulator(default_architecture(128, 64)).run(
            workload, BalanceConfig(), iterations=10
        )
        assert workload.builds == 2

    def test_equal_traces_keep_their_own_names(self, small_arch):
        text = "\n".join(gemv_trace_lines(rows=2, cols=2))
        first = TraceWorkload.from_text(text, name="first")
        second = TraceWorkload.from_text(text, name="second")
        assert first.signature == second.signature  # names aside
        sim = EnduranceSimulator(small_arch)
        results = [
            sim.run(workload, BalanceConfig(), iterations=10)
            for workload in (first, second, first)
        ]
        assert [r.workload_name for r in results] == [
            "first", "second", "first"
        ]
        assert [r.mapping.workload_name for r in results] == [
            "first", "second", "first"
        ]
        assert np.array_equal(
            results[0].state.write_counts, results[1].state.write_counts
        )

    def test_memo_stays_at_its_bound(self, small_arch):
        first = SpyWorkload()
        mapping = mapping_for(first, small_arch)
        assert mapping_for(first, small_arch) is mapping
        for _ in range(MAPPING_MEMO_SIZE):
            mapping_for(SpyWorkload(), small_arch)
        # The least recently used entry was evicted: it builds again.
        assert mapping_for(first, small_arch) is not mapping
        assert first.builds == 2

    def test_reuse_counted_in_telemetry(self, small_arch):
        fresh = Telemetry()
        previous = set_telemetry(fresh)
        try:
            workload = SpyWorkload()
            for _ in range(3):
                mapping_for(workload, small_arch)
        finally:
            set_telemetry(previous)
        assert fresh.counters["mapping.memo_misses"] == 1
        assert fresh.counters["mapping.memo_hits"] == 2
        assert fresh.phases["mapping_compile"][1] == 1


class TestPooledPlaneZeroing:
    """Each run zeroes only the lanes the last finished run on its
    pooled counter planes wrote; a plane whose last run raised, or that
    is new, is zeroed whole. A run after any other equals the same run
    on a fresh plane."""

    @staticmethod
    def _gemv():
        return TraceWorkload.from_text("\n".join(gemv_trace_lines(4, 4)))

    @staticmethod
    def _assert_same_counts(a, b):
        for name in ("write_counts", "read_counts"):
            assert np.array_equal(
                getattr(a.state, name), getattr(b.state, name)
            ), name

    @pytest.mark.parametrize("label", ["StxSt", "RaxRa", "BsxBs"])
    def test_gemv_after_conv_equals_a_fresh_plane(self, label):
        arch = default_architecture()
        sim = EnduranceSimulator(arch, settings=SimulationSettings(seed=2))
        config = BalanceConfig.from_label(label)
        gemv = self._gemv()
        sim.run(get_workload("conv"), config, 300)
        after = sim.run(gemv, config, 300)
        # The conv run wrote every lane; the GEMV writes a few.
        assert len(after.state.packed["write"][0]) < arch.lane_count
        POOL.clear()
        fresh = sim.run(gemv, config, 300)
        self._assert_same_counts(after, fresh)
        self._assert_same_counts(after, sim._run_epoch_loop(gemv, config, 300))

    @pytest.mark.parametrize("label", ["StxSt", "RaxRa"])
    def test_runs_over_a_few_lanes_in_turn(self, small_arch, label):
        # Each run clears only its predecessor's few lanes, which the
        # next, wider run writes over again.
        sim = EnduranceSimulator(small_arch, settings=SimulationSettings(seed=2))
        config = BalanceConfig.from_label(label, recompile_interval=7)
        workloads = [
            ParallelMultiplication(bits=4, lanes=lanes)
            for lanes in (3, 10, 2, 20)
        ]
        # The oracle's set-up zeroes the planes too: run it afterwards.
        results = [sim.run(workload, config, 30) for workload in workloads]
        for workload, result in zip(workloads, results):
            self._assert_same_counts(
                result, sim._run_epoch_loop(workload, config, 30)
            )

    def test_run_that_raised_leaves_the_plane_dirty(
        self, small_arch, monkeypatch
    ):
        import repro.core.simulator as simulator

        # The last finished run wrote 3 lanes; the run after the crash
        # writes 10, so a crash trusted as clean would show.
        sim = EnduranceSimulator(small_arch)
        workload = ParallelMultiplication(bits=4, lanes=10)
        config = BalanceConfig()
        expected = sim._run_epoch_loop(workload, config, 50)
        sim.run(ParallelMultiplication(bits=4, lanes=3), config, 50)

        def crash(architecture, config, state, *args, **kwargs):
            state.write_counts[...] = 7
            state.read_counts[...] = 7
            raise RuntimeError("kernel died part-way")

        with monkeypatch.context() as patch:
            patch.setattr(simulator, "run_batched_epochs", crash)
            with pytest.raises(RuntimeError):
                sim.run(workload, config, 50)
        self._assert_same_counts(sim.run(workload, config, 50), expected)

    @pytest.mark.parametrize("label", ["StxSt", "RaxRa", "BsxBs"])
    def test_one_program_leaves_the_planes_clean(self, label):
        import repro.core.simulator as simulator

        # mult runs one program on every lane: its counts stay one
        # column, so it records no plane lanes, and the conv run after
        # it, which clears nothing, equals a run on a fresh plane.
        arch = default_architecture()
        sim = EnduranceSimulator(arch, settings=SimulationSettings(seed=2))
        config = BalanceConfig.from_label(label)
        conv = get_workload("conv")
        sim.run(conv, config, 300)
        sim.run(get_workload("mult"), config, 300)
        shape = (arch.geometry.rows, arch.geometry.cols)
        for slot in ("state.writes", "state.reads"):
            _, _, lanes = simulator._WRITTEN_LANES[(slot, shape, "<f4")]
            assert not len(lanes), slot
        after = sim.run(conv, config, 300)
        POOL.clear()
        self._assert_same_counts(after, sim.run(conv, config, 300))

    def test_orientation_change_on_one_shape(self, tiny_arch):
        # A column-parallel run's lanes are columns; a row-parallel run
        # on the same pooled planes must not read them as rows.
        from repro.array.architecture import CRAM_ROW

        row_arch = CRAM_ROW.resized(64, 64)
        config = BalanceConfig()
        EnduranceSimulator(tiny_arch).run(
            ParallelMultiplication(bits=4, lanes=5), config, 40
        )
        row_sim = EnduranceSimulator(row_arch)
        workload = ParallelMultiplication(bits=4, lanes=10)
        after = row_sim.run(workload, config, 40)
        self._assert_same_counts(
            after, row_sim._run_epoch_loop(workload, config, 40)
        )


class TestWriteOncePlane:
    """A run's first full-width product is written straight into its
    pooled plane, skipping the plane's zeroing, the scratch and the
    add; every run on the pooled plane still equals the same run on a
    fresh plane and the per-epoch loop."""

    @staticmethod
    def _assert_same_counts(a, b):
        TestPooledPlaneZeroing._assert_same_counts(a, b)

    def test_a_sequence_on_the_pooled_plane(self, monkeypatch):
        import repro.core.kernel as kernel

        arch = default_architecture(128, 128)
        sim = EnduranceSimulator(arch, settings=SimulationSettings(seed=2))
        gemv = TestPooledPlaneZeroing._gemv()
        long_run = kernel.CHUNK_EPOCHS + 5
        runs = [
            # conv-like: a reference column plus full-width products.
            (get_workload("conv"), BalanceConfig.from_label("RaxRa"), 300),
            # trace-like: lane-compact products on a few lanes.
            (gemv, BalanceConfig.from_label("BsxBs"), 300),
            # Two chunks, so two full-width products per kind.
            (DotProduct(n_elements=16, bits=8),
             BalanceConfig.from_label("RaxRa", recompile_interval=1),
             long_run),
        ]
        POOL.clear()
        telemetry = Telemetry()
        previous = set_telemetry(telemetry)
        try:
            pooled = [sim.run(*run) for run in runs]
        finally:
            set_telemetry(previous)
        assert telemetry.counters["kernel.chunks"] >= 3
        assert telemetry.counters["kernel.compact_gemms"] > 0
        for run, result in zip(runs, pooled):
            POOL.clear()
            self._assert_same_counts(result, sim.run(*run))
            self._assert_same_counts(result, sim._run_epoch_loop(*run))

    @staticmethod
    def _unzeroed_state(shape=(8, 6)):
        """A float32 state over a plane of stale 7s, and the list its
        zeroing call appends to."""
        geometry = default_architecture(*shape).geometry
        plane = np.full(shape, 7.0, dtype=np.float32)
        calls = []

        def zero():
            calls.append(1)
            plane.fill(0)

        state = ArrayState.from_counts(
            geometry, plane, None, unzeroed={"write": zero}
        )
        return state, plane, calls

    def test_first_full_width_product_skips_zeroing_and_scratch(self):
        from repro.array.geometry import Orientation

        column = Orientation.COLUMN_PARALLEL
        rng = np.random.default_rng(0)
        profiles = [rng.integers(0, 5, (3, 8)).astype(np.float32)
                    for _ in range(3)]
        weights = [rng.integers(0, 4, (3, 6)).astype(np.float32)
                   for _ in range(3)]
        compact = rng.integers(0, 4, (3, 2)).astype(np.float32)
        lanes = np.array([1, 4])
        # The sums written out, in float64.
        expected = np.zeros((8, 6))
        expected[:, lanes] += profiles[0].T.astype(float) @ compact
        state, plane, calls = self._unzeroed_state()
        POOL.clear()
        # A lane-compact product first is held, not added, so the
        # full-width product after it may still overwrite the plane.
        state.add_lane_profiles(profiles[0], compact, column, "write", lanes)
        assert (plane == 7).all()
        state.add_lane_profiles(profiles[1], weights[1], column)
        expected += profiles[1].T.astype(float) @ weights[1]
        assert not calls
        assert ("state.scratch", (8, 6), "<f4") not in POOL._slots
        assert np.array_equal(state.write_counts, expected)
        # A second full-width product adds, through the scratch.
        state.add_lane_profiles(profiles[2], weights[2], column)
        expected += profiles[2].T.astype(float) @ weights[2]
        assert np.array_equal(state.write_counts, expected)
        assert ("state.scratch", (8, 6), "<f4") in POOL._slots
        assert not calls

    def test_anything_else_zeroes_the_plane_first(self):
        from repro.array.geometry import Orientation

        column = Orientation.COLUMN_PARALLEL
        # Reading the counters.
        state, plane, calls = self._unzeroed_state()
        assert not state.write_counts.any() and calls == [1]
        state.add_lane_profiles(np.ones((1, 8)), np.ones((1, 6)), column)
        assert (plane == 1).all() and calls == [1]
        # A per-cell write, and a held compact product settled on it.
        state, plane, calls = self._unzeroed_state()
        state.add_lane_profiles(
            np.ones((1, 8)), np.ones((1, 1)), column, "write", np.array([2])
        )
        state.record_write(0, 0, column)
        expected = np.zeros((8, 6))
        expected[:, 2] = 1
        expected[0, 0] += 1
        assert calls == [1] and np.array_equal(plane, expected)
        # Finishing a run that wrote no plane lane.
        state, plane, calls = self._unzeroed_state()
        state.add_every_lane(np.ones(8), column)
        finished = state.finish(column, np.array([], dtype=np.intp), False)
        assert calls == [1] and not plane.any()
        assert (finished.write_counts == 1).all()


class TestResultSurface:
    def test_lane_utilization_exposed_on_result(self, sim, workload):
        result = sim.run(workload, BalanceConfig(), iterations=30)
        assert result.lane_utilization == result.mapping.lane_utilization
