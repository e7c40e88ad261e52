"""Tests for repro.core.lifetime: Equations 1, 2 and 4."""

import numpy as np
import pytest

from repro.array.geometry import ArrayGeometry, Orientation
from repro.array.state import ArrayState
from repro.balance.config import BalanceConfig, all_configurations
from repro.core.lifetime import (
    array_write_budget,
    eq1_operations_until_total_failure,
    eq2_seconds_until_total_failure,
    lifetime_from_result,
    lifetime_improvement,
)
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.devices.endurance import LognormalEndurance, UniformEndurance
from repro.devices.technology import MRAM, RRAM
from repro.workloads.multiply import ParallelMultiplication


GEOMETRY = ArrayGeometry(1024, 1024)


class TestAnalyticBounds:
    def test_eq1_value_from_paper(self):
        # 1024^2 * 1e12 / 9824 = 1.07e14 multiplications.
        value = eq1_operations_until_total_failure(GEOMETRY, 1e12, 9824)
        assert value == pytest.approx(1.07e14, rel=0.005)

    def test_eq2_mtj_is_35_56_days(self):
        seconds = eq2_seconds_until_total_failure(GEOMETRY, 1e12, 1024)
        assert seconds == pytest.approx(3_072_000)
        assert seconds / 86400 == pytest.approx(35.56, abs=0.01)

    def test_eq2_rram_is_just_over_5_minutes(self):
        seconds = eq2_seconds_until_total_failure(
            GEOMETRY, RRAM.endurance_writes, 1024
        )
        assert 300 < seconds < 330  # "just over 5 minutes"

    def test_write_budget(self):
        assert array_write_budget(ArrayGeometry(2, 2), 10) == 40

    def test_validation(self):
        with pytest.raises(ValueError):
            array_write_budget(GEOMETRY, 0)
        with pytest.raises(ValueError):
            eq1_operations_until_total_failure(GEOMETRY, 1e12, 0)
        with pytest.raises(ValueError):
            eq2_seconds_until_total_failure(GEOMETRY, 1e12, 0)


class TestEquation4:
    @pytest.fixture
    def result(self, small_arch):
        sim = EnduranceSimulator(
            small_arch, settings=SimulationSettings(seed=0)
        )
        return sim.run(
            ParallelMultiplication(bits=8), BalanceConfig(), iterations=100
        )

    def test_lifetime_structure(self, result):
        estimate = lifetime_from_result(result)
        assert estimate.endurance_writes == MRAM.endurance_writes
        expected_iterations = (
            MRAM.endurance_writes / result.max_writes_per_iteration
        )
        assert estimate.iterations_to_failure == pytest.approx(
            expected_iterations
        )
        assert estimate.seconds_to_failure == pytest.approx(
            expected_iterations * result.iteration_latency_s
        )

    def test_days_and_years(self, result):
        estimate = lifetime_from_result(result)
        assert estimate.days_to_failure == pytest.approx(
            estimate.seconds_to_failure / 86400
        )
        assert estimate.years_to_failure == pytest.approx(
            estimate.days_to_failure / 365
        )

    def test_technology_override_scales_lifetime(self, result):
        mram = lifetime_from_result(result, technology=MRAM)
        rram = lifetime_from_result(result, technology=RRAM)
        assert mram.iterations_to_failure == pytest.approx(
            rram.iterations_to_failure * 1e4
        )

    def test_lognormal_model_shortens_lifetime(self, result):
        uniform = lifetime_from_result(result)
        varied = lifetime_from_result(
            result,
            endurance_model=LognormalEndurance(
                MRAM.endurance_writes, sigma=0.7, rng=0
            ),
        )
        assert varied.iterations_to_failure < uniform.iterations_to_failure


class TestUniformLifetimeFromThePeak:
    """Under uniform endurance, Eq. 4 reads the peak count's rate; the
    dense rate matrix through ``iterations_to_first_failure`` is the
    oracle, and the two agree bit for bit."""

    @pytest.mark.parametrize("orientation", ["column", "row"])
    @pytest.mark.parametrize("lanes", [None, 5])
    def test_equals_the_dense_rate_matrix(
        self, small_arch, row_parallel_arch, orientation, lanes
    ):
        arch = small_arch if orientation == "column" else row_parallel_arch
        sim = EnduranceSimulator(arch, settings=SimulationSettings(seed=3))
        workload = ParallelMultiplication(bits=4, lanes=lanes)
        for config in all_configurations(recompile_interval=7):
            result = sim.run(workload, config, iterations=23)
            counts = result.state.write_counts
            if lanes is not None:
                assert len(result.state.packed["write"][0]) < 128
            assert result.state.max_writes == float(counts.max())
            dense = UniformEndurance(
                arch.technology.endurance_writes
            ).iterations_to_first_failure(counts / result.iterations)
            estimate = lifetime_from_result(result)
            assert estimate.iterations_to_failure == dense, config.label

    @pytest.mark.parametrize("orientation", list(Orientation))
    @pytest.mark.parametrize(
        "lanes, hot",
        [((), None), ((1, 2, 6), (3, 2)), ((0, 7), (0, 0)), ((5,), (7, 0))],
    )
    def test_max_writes_reads_the_whole_block(self, orientation, lanes, hot):
        # The hottest cell anywhere in the block, the last lane or row
        # included; nothing written reads 0 and lives forever.
        block = np.ones((8, len(lanes)), dtype=np.uint16)
        if hot is not None:
            block[hot] = 9
        state = ArrayState.from_packed(
            ArrayGeometry(8, 8),
            orientation,
            (np.array(lanes, dtype=np.int64), block),
        )
        assert state.max_writes == float(state.write_counts.max())
        assert state.max_writes == (9.0 if hot else 1.0 if lanes else 0.0)
        assert UniformEndurance(1e8).iterations_at_peak(0.0) == float("inf")


class TestPeakKeptOnceFinished:
    """A finished state's counters never change: ``max_writes`` is
    found once — by :meth:`ArrayState.finish`'s narrowing pass, or on
    first use of a restored state — and always equals
    ``write_counts.max()``."""

    class _NoReduction(np.ndarray):
        def max(self, *args, **kwargs):
            raise AssertionError("the packed block was reduced again")

    def _forbid_reduction(self, state):
        lanes, block = state.packed["write"]
        state.packed["write"] = (lanes, block.view(self._NoReduction))

    @pytest.mark.parametrize("lanes", [None, 5])
    def test_finish_keeps_the_narrowing_peak(self, small_arch, lanes):
        sim = EnduranceSimulator(small_arch, settings=SimulationSettings(seed=3))
        workload = ParallelMultiplication(bits=4, lanes=lanes)
        for config in all_configurations(recompile_interval=7):
            state = sim.run(workload, config, iterations=23).state
            expected = float(state.write_counts.max())
            self._forbid_reduction(state)
            assert state.max_writes == expected, config.label
            assert state.max_writes == expected

    def test_restored_state_reduces_once(self, tmp_path, small_arch):
        from repro.core.io import load_result, save_result

        sim = EnduranceSimulator(small_arch, settings=SimulationSettings(seed=3))
        result = sim.run(
            ParallelMultiplication(bits=4, lanes=5),
            BalanceConfig.from_label("RaxRa", recompile_interval=7),
            iterations=23,
        )
        path = str(tmp_path / "run.result")
        save_result(result, path)
        state = load_result(path).state
        expected = float(state.write_counts.max())
        assert expected == result.state.max_writes > 0
        assert state.max_writes == expected
        self._forbid_reduction(state)
        assert state.max_writes == expected

    def test_empty_block_reads_zero(self):
        state = ArrayState(ArrayGeometry(4, 4)).finish(
            Orientation.COLUMN_PARALLEL, np.array([], dtype=np.int64)
        )
        self._forbid_reduction(state)
        assert state.max_writes == 0.0 == float(state.write_counts.max())


class TestImprovement:
    def test_improvement_vs_self_is_one(self, small_arch):
        sim = EnduranceSimulator(
            small_arch, settings=SimulationSettings(seed=0)
        )
        result = sim.run(
            ParallelMultiplication(bits=8), BalanceConfig(), iterations=100
        )
        assert lifetime_improvement(result, result) == pytest.approx(1.0)

    def test_balancing_improves_lifetime(self, small_arch):
        sim = EnduranceSimulator(
            small_arch, settings=SimulationSettings(seed=0)
        )
        workload = ParallelMultiplication(bits=8)
        baseline = sim.run(workload, BalanceConfig(), iterations=500)
        balanced = sim.run(
            workload, BalanceConfig.from_label("RaxSt+Hw"), iterations=500
        )
        assert lifetime_improvement(balanced, baseline) >= 1.0

    def test_cross_workload_comparison_rejected(self, small_arch):
        sim = EnduranceSimulator(
            small_arch, settings=SimulationSettings(seed=0)
        )
        a = sim.run(ParallelMultiplication(bits=8), BalanceConfig(), iterations=10)
        b = sim.run(ParallelMultiplication(bits=4), BalanceConfig(), iterations=10)
        with pytest.raises(ValueError, match="same workload"):
            lifetime_improvement(a, b)
