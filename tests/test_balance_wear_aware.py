"""Tests for the wear-aware (Wa) between-lane strategy."""

import numpy as np
import pytest

from repro.balance.config import BalanceConfig
from repro.balance.software import (
    StrategyKind,
    make_permutation,
    wear_aware_permutation,
)
from repro.core.lifetime import lifetime_improvement
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.workloads.dotproduct import DotProduct
from repro.workloads.multiply import ParallelMultiplication


class TestPermutation:
    def test_heaviest_load_goes_to_coldest_lane(self):
        loads = np.array([10.0, 1.0, 5.0])
        wear = np.array([100.0, 50.0, 10.0])
        perm = wear_aware_permutation(loads, wear)
        assert perm[0] == 2  # heaviest -> coldest
        assert perm[1] == 0  # lightest -> hottest
        assert perm[2] == 1

    def test_result_is_a_permutation(self):
        rng = np.random.default_rng(0)
        perm = wear_aware_permutation(rng.random(64), rng.random(64))
        assert sorted(perm.tolist()) == list(range(64))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            wear_aware_permutation(np.ones(3), np.ones(4))

    def test_make_permutation_rejects_wear_aware(self):
        with pytest.raises(ValueError, match="stateful"):
            make_permutation(StrategyKind.WEAR_AWARE, 8, 0)


class TestSimulatorIntegration:
    def test_wear_aware_levels_the_dot_product(self, small_arch):
        sim = EnduranceSimulator(
            small_arch, settings=SimulationSettings(seed=1, track_reads=False)
        )
        workload = DotProduct(n_elements=64, bits=8)
        base = sim.run(workload, BalanceConfig(), 1000)
        adaptive = sim.run(
            workload,
            BalanceConfig(between=StrategyKind.WEAR_AWARE),
            1000,
        )
        assert lifetime_improvement(adaptive, base) > 1.2

    def test_wear_aware_at_least_matches_random(self, small_arch):
        sim = EnduranceSimulator(
            small_arch, settings=SimulationSettings(seed=1, track_reads=False)
        )
        workload = DotProduct(n_elements=64, bits=8)
        base = sim.run(workload, BalanceConfig(), 1000)
        random = sim.run(workload, BalanceConfig.from_label("StxRa"), 1000)
        adaptive = sim.run(
            workload,
            BalanceConfig(between=StrategyKind.WEAR_AWARE),
            1000,
        )
        assert lifetime_improvement(adaptive, base) >= (
            0.97 * lifetime_improvement(random, base)
        )

    def test_conserves_total_writes(self, small_arch):
        sim = EnduranceSimulator(
            small_arch, settings=SimulationSettings(seed=1, track_reads=False)
        )
        workload = DotProduct(n_elements=64, bits=8)
        base = sim.run(workload, BalanceConfig(), 500)
        adaptive = sim.run(
            workload,
            BalanceConfig(between=StrategyKind.WEAR_AWARE),
            500,
        )
        assert adaptive.state.total_writes == pytest.approx(
            base.state.total_writes
        )

    def test_noop_for_uniform_workload(self, small_arch):
        # All lanes carry identical loads: wear-aware degenerates to a
        # fixed assignment and changes nothing versus static.
        sim = EnduranceSimulator(
            small_arch, settings=SimulationSettings(seed=1, track_reads=False)
        )
        workload = ParallelMultiplication(bits=8)
        base = sim.run(workload, BalanceConfig(), 300)
        adaptive = sim.run(
            workload,
            BalanceConfig(between=StrategyKind.WEAR_AWARE),
            300,
        )
        assert lifetime_improvement(adaptive, base) == pytest.approx(1.0)

    def test_wear_aware_within_lane_rejected(self, small_arch):
        sim = EnduranceSimulator(
            small_arch, settings=SimulationSettings(seed=1)
        )
        with pytest.raises(ValueError, match="between lanes only"):
            sim.run(
                ParallelMultiplication(bits=8),
                BalanceConfig(within=StrategyKind.WEAR_AWARE),
                10,
            )

    def test_label(self):
        config = BalanceConfig(between=StrategyKind.WEAR_AWARE)
        assert config.label == "StxWa"
        assert BalanceConfig.from_label("StxWa") == config
