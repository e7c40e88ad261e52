"""Engine sweeps, stored or not, must be bit-identical to direct runs."""

import numpy as np
import pytest

from repro.balance.config import BalanceConfig
from repro.core.lifetime import lifetime_from_result, lifetime_improvement
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.core.sweep import (
    configuration_grid,
    remap_frequency_sweep,
    simulate_configs,
)
from repro.engine import EngineError
from repro.workloads.multiply import ParallelMultiplication


@pytest.fixture
def workload():
    return ParallelMultiplication(bits=8)


def fresh_sim(arch, seed=7):
    return EnduranceSimulator(arch, settings=SimulationSettings(seed=seed))


class TestGridDeterminism:
    def test_engine_grid_matches_in_process_bit_exactly(
        self, tiny_arch, workload, tmp_path
    ):
        """The engine, with no store or a cold one, == direct simulator
        runs in this process, per config."""
        storeless = configuration_grid(
            fresh_sim(tiny_arch), workload, iterations=150
        )
        routed = configuration_grid(
            fresh_sim(tiny_arch),
            workload,
            iterations=150,
            cache_dir=str(tmp_path),
        )
        writes_only = SimulationSettings(seed=7, track_reads=False)
        direct = {
            entry.config: fresh_sim(tiny_arch).run(
                workload, entry.config, 150, settings=writes_only
            )
            for entry in storeless
        }
        baseline = direct[BalanceConfig()]
        assert [e.label for e in storeless] == [e.label for e in routed]
        for ours, theirs in zip(storeless, routed):
            oracle = direct[ours.config]
            for entry in (ours, theirs):
                assert np.array_equal(
                    entry.result.state.write_counts,
                    oracle.state.write_counts,
                ), entry.label
                assert entry.improvement == lifetime_improvement(
                    oracle, baseline
                )
                assert entry.lifetime == lifetime_from_result(oracle)

    def test_cached_rerun_matches_first_run(self, tiny_arch, workload, tmp_path):
        first = configuration_grid(
            fresh_sim(tiny_arch), workload, iterations=150,
            cache_dir=str(tmp_path),
        )
        rerun = configuration_grid(
            fresh_sim(tiny_arch), workload, iterations=150,
            cache_dir=str(tmp_path),
        )
        for ours, theirs in zip(first, rerun):
            assert np.array_equal(
                ours.result.state.write_counts,
                theirs.result.state.write_counts,
            )

    def test_engine_grid_keeps_figure_order_and_baseline(
        self, tiny_arch, workload, tmp_path
    ):
        entries = configuration_grid(
            fresh_sim(tiny_arch), workload, iterations=100,
            cache_dir=str(tmp_path),
        )
        assert len(entries) == 18
        static = [e for e in entries if e.config.is_static]
        assert static[0].improvement == pytest.approx(1.0)


class TestRemapSweepViaEngine:
    def test_engine_path_matches_serial(self, tiny_arch, workload, tmp_path):
        serial = remap_frequency_sweep(
            fresh_sim(tiny_arch), workload,
            intervals=(100, 25), iterations=400,
        )
        routed = remap_frequency_sweep(
            fresh_sim(tiny_arch), workload,
            intervals=(100, 25), iterations=400,
            cache_dir=str(tmp_path),
        )
        assert serial == routed


class TestSimulateConfigs:
    def test_duplicates_collapse(self, tiny_arch, workload):
        sim = fresh_sim(tiny_arch)
        configs = [BalanceConfig(), BalanceConfig()]
        results = simulate_configs(sim, workload, configs, iterations=100)
        assert len(results) == 1

    @pytest.mark.parametrize("stored", [False, True])
    def test_engine_failures_surface_as_engine_error(
        self, tiny_arch, tmp_path, stored
    ):
        doomed = ParallelMultiplication(bits=32)  # cannot fit a 63-bit lane
        with pytest.raises(EngineError, match="MemoryError: lane capacity"):
            simulate_configs(
                fresh_sim(tiny_arch),
                doomed,
                [BalanceConfig()],
                iterations=50,
                cache_dir=str(tmp_path) if stored else None,
            )
