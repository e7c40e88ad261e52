"""The analytic fast-forward IS the simulated path (where eligible).

Fast-forward's contract has two halves: on periodic (``St``/``Bs``/
``B1``) configurations every counter — and therefore every downstream
lifetime and failure-timeline answer — is bit-identical to simulating
each epoch; on non-periodic configurations (``Ra``, ``Wa``) it refuses
with diagnostic RPR011 instead of approximating. These tests pin both
halves across the strategy grid, recompile intervals, hardware
re-mapping, and both entry points (simulator settings and engine spec).
"""

import numpy as np
import pytest

from repro.array.architecture import CRAM_ROW, default_architecture
from repro.balance.config import BalanceConfig, all_configurations
from repro.balance.software import StrategyKind
from repro.core.failure import failure_timeline, minimum_footprint
from repro.core.fastforward import (
    PERIODIC_KINDS,
    fastforward_eligible,
    fastforward_period,
    strategy_period,
)
from repro.core.lifetime import lifetime_from_result
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.verify import VerificationError, verify_spec
from repro.verify.wear import _FASTFORWARD_KINDS
from repro.workloads.multiply import ParallelMultiplication

ARCH = default_architecture(64, 16)

#: The strategy grid restricted to fast-forward-eligible configs.
ELIGIBLE = [
    config
    for config in all_configurations(recompile_interval=7)
    if fastforward_eligible(config)
]

#: Ineligible representatives: random on either axis, wear-aware.
INELIGIBLE_LABELS = ["RaxRa", "StxRa", "RaxSt", "StxWa", "RaxBs+Hw"]


def _run(arch, config, iterations, *, fastforward, seed=3, kernel="batched"):
    sim = EnduranceSimulator(arch)
    return sim.run(
        ParallelMultiplication(bits=8),
        config,
        iterations=iterations,
        settings=SimulationSettings(
            seed=seed, kernel=kernel, fastforward=fastforward
        ),
    )


def _assert_identical(a, b):
    assert np.array_equal(a.state.write_counts, b.state.write_counts)
    assert np.array_equal(a.state.read_counts, b.state.read_counts)
    assert a.epochs == b.epochs


class TestPeriods:
    def test_static_period_is_one(self):
        assert strategy_period(StrategyKind.STATIC, 64) == 1

    def test_byte_shift_period(self):
        # Bs advances one byte per epoch: size // gcd(8, size) steps
        # return the rotation to the identity.
        assert strategy_period(StrategyKind.BYTE_SHIFT, 64) == 8
        assert strategy_period(StrategyKind.BYTE_SHIFT, 64 * 4) == 32
        assert strategy_period(StrategyKind.BYTE_SHIFT, 12) == 3

    def test_bit_shift_period_is_size(self):
        assert strategy_period(StrategyKind.BIT_SHIFT, 64) == 64

    def test_non_periodic_kinds_have_no_period(self):
        assert strategy_period(StrategyKind.RANDOM, 64) is None
        assert strategy_period(StrategyKind.WEAR_AWARE, 64) is None

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError, match="size"):
            strategy_period(StrategyKind.STATIC, 0)

    def test_joint_period_is_lcm(self):
        config = BalanceConfig.from_label("BsxBs")
        # within over lane_size=256 -> 32; between over lane_count=64 -> 8
        assert fastforward_period(config, 256, 64) == 32

    def test_joint_period_none_when_ineligible(self):
        config = BalanceConfig.from_label("RaxRa")
        assert fastforward_period(config, 256, 64) is None

    def test_periodic_kinds_are_the_deterministic_strategies(self):
        assert PERIODIC_KINDS == frozenset(
            {
                StrategyKind.STATIC,
                StrategyKind.BYTE_SHIFT,
                StrategyKind.BIT_SHIFT,
            }
        )


class TestBitIdentity:
    @pytest.mark.parametrize("config", ELIGIBLE, ids=lambda c: c.label)
    def test_eligible_grid_matches_batched(self, config):
        fast = _run(ARCH, config, 40, fastforward=True)
        slow = _run(ARCH, config, 40, fastforward=False)
        _assert_identical(fast, slow)

    @pytest.mark.parametrize("config", ELIGIBLE[:4], ids=lambda c: c.label)
    def test_eligible_grid_matches_epoch_oracle(self, config):
        fast = _run(ARCH, config, 40, fastforward=True)
        oracle = _run(ARCH, config, 40, fastforward=False, kernel="epoch")
        _assert_identical(fast, oracle)

    @pytest.mark.parametrize("interval", [1, 7, 100])
    @pytest.mark.parametrize("label", ["BsxBs", "B1xB1", "BsxB1+Hw"])
    def test_interval_grid(self, label, interval):
        config = BalanceConfig.from_label(label).with_interval(interval)
        for iterations in (3, 40, 203):
            fast = _run(ARCH, config, iterations, fastforward=True)
            slow = _run(ARCH, config, iterations, fastforward=False)
            _assert_identical(fast, slow)

    def test_iterations_shorter_than_interval(self):
        # full_epochs == 0: only the remainder epoch materializes.
        config = BalanceConfig.from_label("BsxBs").with_interval(50)
        fast = _run(ARCH, config, 7, fastforward=True)
        slow = _run(ARCH, config, 7, fastforward=False)
        _assert_identical(fast, slow)

    def test_horizon_far_past_the_period(self):
        # Millions of epochs collapse into one period block.
        config = BalanceConfig.from_label("BsxBs").with_interval(1)
        fast = _run(ARCH, config, 100_000, fastforward=True)
        slow = _run(ARCH, config, 100_000, fastforward=False)
        _assert_identical(fast, slow)

    def test_row_parallel_orientation(self):
        arch = CRAM_ROW.resized(64, 64)
        config = BalanceConfig.from_label("BsxBs")
        fast = _run(arch, config, 40, fastforward=True)
        slow = _run(arch, config, 40, fastforward=False)
        _assert_identical(fast, slow)

    def test_reads_untracked_parity(self):
        config = BalanceConfig.from_label("B1xBs")
        sim = EnduranceSimulator(ARCH)
        kwargs = dict(iterations=40)
        fast = sim.run(
            ParallelMultiplication(bits=8),
            config,
            settings=SimulationSettings(fastforward=True, track_reads=False),
            **kwargs,
        )
        slow = sim.run(
            ParallelMultiplication(bits=8),
            config,
            settings=SimulationSettings(track_reads=False),
            **kwargs,
        )
        assert np.array_equal(
            fast.state.write_counts, slow.state.write_counts
        )
        assert fast.state.read_counts.sum() == 0


class TestDownstreamAnswers:
    """Lifetime and failure-timeline answers must agree exactly."""

    def test_lifetime_identical(self):
        config = BalanceConfig.from_label("BsxBs")
        fast = _run(ARCH, config, 40, fastforward=True)
        slow = _run(ARCH, config, 40, fastforward=False)
        assert (
            lifetime_from_result(fast).iterations_to_failure
            == lifetime_from_result(slow).iterations_to_failure
        )

    def test_failure_timeline_identical(self):
        config = BalanceConfig.from_label("BsxBs")
        workload = ParallelMultiplication(bits=8)
        required = minimum_footprint(workload, ARCH)
        fast = _run(ARCH, config, 40, fastforward=True)
        slow = _run(ARCH, config, 40, fastforward=False)
        t_fast = failure_timeline(fast, required)
        t_slow = failure_timeline(slow, required)
        assert (
            t_fast.first_failure_iterations
            == t_slow.first_failure_iterations
        )
        assert t_fast.unusable_iterations == t_slow.unusable_iterations


class TestRefusal:
    @pytest.mark.parametrize("label", INELIGIBLE_LABELS)
    def test_simulator_refuses_with_rpr011(self, label):
        config = BalanceConfig.from_label(label)
        with pytest.raises(VerificationError) as err:
            _run(ARCH, config, 10, fastforward=True)
        assert "RPR011" in str(err.value)

    @pytest.mark.parametrize("label", INELIGIBLE_LABELS)
    def test_ineligible_runs_fine_without_fastforward(self, label):
        config = BalanceConfig.from_label(label)
        result = _run(ARCH, config, 10, fastforward=False)
        assert result.state.write_counts.sum() > 0

    def test_verify_spec_reports_rpr011(self):
        from repro.engine import JobSpec

        spec = JobSpec(
            workload=ParallelMultiplication(bits=8),
            architecture=ARCH,
            config=BalanceConfig.from_label("RaxRa"),
            iterations=10,
            fastforward=True,
        )
        report = verify_spec(spec)
        assert "RPR011" in report.codes()

    def test_verify_spec_clean_on_eligible(self):
        from repro.engine import JobSpec

        spec = JobSpec(
            workload=ParallelMultiplication(bits=8),
            architecture=ARCH,
            config=BalanceConfig.from_label("BsxBs"),
            iterations=10,
            fastforward=True,
        )
        assert "RPR011" not in verify_spec(spec).codes()

    def test_fastforward_eligible_predicate(self):
        assert fastforward_eligible(BalanceConfig.from_label("BsxBs+Hw"))
        assert not fastforward_eligible(BalanceConfig.from_label("StxRa"))


class TestEngineIntegration:
    def test_engine_runs_fastforward_spec(self, tmp_path):
        from repro.engine import ExperimentEngine, JobSpec, require_ok

        def make(fastforward):
            return JobSpec(
                workload=ParallelMultiplication(bits=8),
                architecture=ARCH,
                config=BalanceConfig.from_label("BsxBs"),
                iterations=40,
                seed=3,
                fastforward=fastforward,
            )

        engine = ExperimentEngine()
        fast = require_ok([engine.run_one(make(True))])[0].result
        slow = require_ok([engine.run_one(make(False))])[0].result
        assert np.array_equal(
            fast.state.write_counts, slow.state.write_counts
        )

    def test_fleet_calibration_with_fastforward(self):
        from repro.fleet import FleetSpec, run_campaign
        from repro.fleet.population import CohortSpec, PopulationSpec
        from repro.fleet.traffic import TrafficSpec

        def campaign(fastforward):
            return run_campaign(
                FleetSpec(
                    population=PopulationSpec(
                        n_arrays=4,
                        cohorts=(
                            CohortSpec(workload="mult", config="BsxBs"),
                        ),
                    ),
                    traffic=TrafficSpec(model="deterministic", rate=50.0),
                    days=10,
                    rows=256,
                    cols=64,
                    cohort_iterations=40,
                    fastforward=fastforward,
                )
            )

        assert (
            campaign(True).content_hash()
            == campaign(False).content_hash()
        )


def test_verify_periodic_kinds_pinned_to_core():
    """repro.verify duplicates the periodic-kind set (no core import);
    this pin keeps the two definitions from drifting apart."""
    assert _FASTFORWARD_KINDS == PERIODIC_KINDS
