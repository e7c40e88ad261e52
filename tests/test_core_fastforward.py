"""The kernel's fast-forward branch IS the simulated path.

Fast-forward is automatic: :func:`repro.core.kernel.run_batched_epochs`
collapses every configuration periodic on both axes (``St``/``Bs``/
``B1``) to one period block. Its contract is that every counter — and
therefore every downstream lifetime and failure-timeline answer — is
bit-identical to simulating each epoch. These tests pin the branch to
the per-epoch oracle (``EnduranceSimulator._run_epoch_loop``) and to the
kernel's own chunked branch across the strategy grid, recompile
intervals, hardware re-mapping, and both entry points (simulator and
engine spec). Configurations it cannot take (``Ra``, ``Wa``) are no
longer refused (RPR011 is retired); they take the chunked branch.
"""

import numpy as np
import pytest

import repro.core.kernel as kernel
from repro.array.architecture import CRAM_ROW, default_architecture
from repro.balance.config import BalanceConfig, all_configurations
from repro.balance.software import StrategyKind
from repro.core.failure import failure_timeline, minimum_footprint
from repro.core.kernel import (
    PERIODIC_KINDS,
    fastforward_eligible,
    fastforward_period,
    kernel_path,
    strategy_period,
)
from repro.core.lifetime import lifetime_from_result
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.verify import verify_spec
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


def _settings(seed=3, track_reads=True):
    return SimulationSettings(seed=seed, track_reads=track_reads)


def _run(arch, config, iterations, *, seed=3, track_reads=True):
    """The production path."""
    return EnduranceSimulator(arch).run(
        ParallelMultiplication(bits=8),
        config,
        iterations=iterations,
        settings=_settings(seed, track_reads),
    )


def _oracle(arch, config, iterations, *, seed=3, track_reads=True):
    """The per-epoch loop."""
    return EnduranceSimulator(arch)._run_epoch_loop(
        ParallelMultiplication(bits=8),
        config,
        iterations,
        settings=_settings(seed, track_reads),
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
    def test_eligible_grid_matches_batched(self, config, monkeypatch):
        fast = _run(ARCH, config, 40)
        # Without a joint period the kernel takes its chunked branch,
        # drawing and accumulating every epoch.
        monkeypatch.setattr(kernel, "fastforward_period", lambda *_: None)
        batched = _run(ARCH, config, 40)
        _assert_identical(fast, batched)

    @pytest.mark.parametrize("config", ELIGIBLE[:4], ids=lambda c: c.label)
    def test_eligible_grid_matches_epoch_oracle(self, config):
        assert kernel_path(config) == "fastforward"
        _assert_identical(_run(ARCH, config, 40), _oracle(ARCH, config, 40))

    @pytest.mark.parametrize("interval", [1, 7, 100])
    @pytest.mark.parametrize("label", ["BsxBs", "B1xB1", "BsxB1+Hw"])
    def test_interval_grid(self, label, interval):
        config = BalanceConfig.from_label(label).with_interval(interval)
        for iterations in (3, 40, 203):
            _assert_identical(
                _run(ARCH, config, iterations),
                _oracle(ARCH, config, iterations),
            )

    def test_iterations_shorter_than_interval(self):
        # full_epochs == 0: only the remainder epoch materializes.
        config = BalanceConfig.from_label("BsxBs").with_interval(50)
        _assert_identical(_run(ARCH, config, 7), _oracle(ARCH, config, 7))

    def test_horizon_far_past_the_period(self):
        # 5,003 epochs against a period of 8: 625 whole periods plus a
        # partial one collapse into one period block.
        config = BalanceConfig.from_label("BsxBs+Hw").with_interval(1)
        assert fastforward_period(config, ARCH.lane_size, ARCH.lane_count) == 8
        _assert_identical(
            _run(ARCH, config, 5_003), _oracle(ARCH, config, 5_003)
        )

    def test_row_parallel_orientation(self):
        arch = CRAM_ROW.resized(64, 64)
        config = BalanceConfig.from_label("BsxBs")
        _assert_identical(_run(arch, config, 40), _oracle(arch, config, 40))

    def test_reads_untracked_parity(self):
        config = BalanceConfig.from_label("B1xBs")
        fast = _run(ARCH, config, 40, track_reads=False)
        slow = _oracle(ARCH, config, 40, track_reads=False)
        _assert_identical(fast, slow)
        assert fast.state.read_counts.sum() == 0


class TestDownstreamAnswers:
    """Lifetime and failure-timeline answers must agree exactly."""

    def test_lifetime_identical(self):
        config = BalanceConfig.from_label("BsxBs")
        fast = _run(ARCH, config, 40)
        slow = _oracle(ARCH, config, 40)
        assert (
            lifetime_from_result(fast).iterations_to_failure
            == lifetime_from_result(slow).iterations_to_failure
        )

    def test_failure_timeline_identical(self):
        config = BalanceConfig.from_label("BsxBs")
        workload = ParallelMultiplication(bits=8)
        required = minimum_footprint(workload, ARCH)
        t_fast = failure_timeline(_run(ARCH, config, 40), required)
        t_slow = failure_timeline(_oracle(ARCH, config, 40), required)
        assert (
            t_fast.first_failure_iterations
            == t_slow.first_failure_iterations
        )
        assert t_fast.unusable_iterations == t_slow.unusable_iterations


class TestRefusal:
    """RPR011 is retired: nothing asks for fast-forward any more, so
    nothing is refused; configs it cannot take run the chunked branch."""

    @pytest.mark.parametrize("label", INELIGIBLE_LABELS)
    def test_ineligible_runs_fine_without_fastforward(self, label):
        config = BalanceConfig.from_label(label)
        assert kernel_path(config) == "batched"
        result = _run(ARCH, config, 10)
        assert result.state.write_counts.sum() > 0
        _assert_identical(result, _oracle(ARCH, config, 10))

    def test_verify_spec_clean_on_eligible(self):
        from repro.engine import JobSpec

        for label in ("BsxBs", "RaxRa"):
            spec = JobSpec(
                workload=ParallelMultiplication(bits=8),
                architecture=ARCH,
                config=BalanceConfig.from_label(label),
                iterations=10,
            )
            report = verify_spec(spec)
            assert not report.errors
            assert "RPR011" not in report.codes()

    def test_fastforward_eligible_predicate(self):
        assert fastforward_eligible(BalanceConfig.from_label("BsxBs+Hw"))
        assert not fastforward_eligible(BalanceConfig.from_label("StxRa"))


class TestEngineIntegration:
    def test_engine_runs_fastforward_spec(self):
        from repro.engine import ExperimentEngine, JobSpec, require_ok

        config = BalanceConfig.from_label("BsxBs")
        spec = JobSpec(
            workload=ParallelMultiplication(bits=8),
            architecture=ARCH,
            config=config,
            iterations=40,
            seed=3,
            track_reads=True,
        )
        engine = ExperimentEngine()
        fast = require_ok([engine.run_one(spec)])[0].result
        _assert_identical(fast, _oracle(ARCH, config, 40))

    def test_fleet_calibration_with_fastforward(self):
        from repro.fleet import FleetService, FleetSpec
        from repro.fleet.population import CohortSpec, PopulationSpec
        from repro.fleet.traffic import TrafficSpec

        spec = FleetSpec(
            population=PopulationSpec(
                n_arrays=4,
                cohorts=(CohortSpec(workload="mult", config="BsxBs"),),
            ),
            traffic=TrafficSpec(model="deterministic", rate=50.0),
            days=10,
            rows=256,
            cols=64,
            cohort_iterations=40,
        )
        service = FleetService(spec)
        [calibrated] = service.calibrate()["results"]
        [job] = service.cohort_specs()
        oracle = EnduranceSimulator(job.architecture)._run_epoch_loop(
            job.workload, job.config, job.iterations, settings=job.settings
        )
        assert np.array_equal(
            calibrated.state.write_counts, oracle.state.write_counts
        )
