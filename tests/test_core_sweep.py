"""Tests for repro.core.sweep."""

from fractions import Fraction

import pytest

from repro.balance.config import BalanceConfig, all_configurations
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.core.sweep import (
    best_improvement,
    configuration_grid,
    remap_frequency_sweep,
    technology_sweep,
)
from repro.devices.technology import MRAM, PCM, RRAM
from repro.workloads.convolution import Convolution
from repro.workloads.dotproduct import DotProduct
from repro.workloads.multiply import ParallelMultiplication


@pytest.fixture
def sim(small_arch):
    return EnduranceSimulator(small_arch, settings=SimulationSettings(seed=1))


@pytest.fixture
def workload():
    return ParallelMultiplication(bits=8)


class TestConfigurationGrid:
    def test_grid_covers_requested_configs(self, sim, workload):
        configs = [
            BalanceConfig.from_label(label)
            for label in ("StxSt", "RaxSt", "StxSt+Hw")
        ]
        entries = configuration_grid(
            sim, workload, iterations=200, configs=configs
        )
        assert [entry.label for entry in entries] == ["StxSt", "RaxSt", "StxSt+Hw"]

    def test_static_entry_has_improvement_one(self, sim, workload):
        entries = configuration_grid(
            sim, workload, iterations=200,
            configs=[BalanceConfig(), BalanceConfig.from_label("RaxSt")],
        )
        assert entries[0].improvement == pytest.approx(1.0)

    def test_default_grid_is_18_configs(self, sim, workload):
        entries = configuration_grid(sim, workload, iterations=100)
        assert len(entries) == 18
        assert {e.label for e in entries} == {
            c.label for c in all_configurations()
        }

    def test_best_improvement(self, sim, workload):
        entries = configuration_grid(sim, workload, iterations=200)
        best = best_improvement(entries)
        assert best.improvement == max(e.improvement for e in entries)

    def test_best_improvement_empty_rejected(self):
        with pytest.raises(ValueError):
            best_improvement([])


class TestImprovementCeiling:
    """No configuration beats the static run's peak-to-mean ratio.

    Balancing moves writes; it never removes any. So every
    configuration's total is at least ``iterations x
    writes_per_iteration``, which the static run writes, and its peak is
    at least that total spread evenly over all cells. Its improvement
    over ``StxSt`` is therefore at most the static peak over the static
    mean. Both sides are integer counts, so the bound is checked exactly.
    """

    ITERATIONS = 1000

    @pytest.mark.parametrize(
        "workload",
        [
            ParallelMultiplication(bits=8),
            Convolution(bits=4),
            DotProduct(n_elements=64, bits=8),
        ],
        ids=["mult", "conv", "dot"],
    )
    def test_every_configuration_is_under_the_ceiling(self, sim, workload):
        entries = configuration_grid(sim, workload, iterations=self.ITERATIONS)
        assert len(entries) == 18
        (static,) = [e for e in entries if e.config.is_static]
        counts = static.result.state.write_counts
        static_peak = int(counts.max())
        ceiling = Fraction(static_peak * counts.size, int(counts.sum()))
        for entry in entries:
            writes = entry.result.state.write_counts
            minimum = (
                self.ITERATIONS * entry.result.mapping.writes_per_iteration
            )
            assert int(writes.sum()) >= minimum, entry.label
            improvement = Fraction(static_peak, int(writes.max()))
            assert entry.improvement == pytest.approx(float(improvement))
            assert improvement <= ceiling, (entry.label, float(ceiling))


class TestRemapFrequencySweep:
    def test_more_frequent_remap_is_no_worse(self, sim, workload):
        improvements = remap_frequency_sweep(
            sim, workload, intervals=(500, 50), iterations=2000
        )
        assert improvements[50] >= improvements[500] * 0.98

    def test_returns_requested_intervals(self, sim, workload):
        improvements = remap_frequency_sweep(
            sim, workload, intervals=(100, 10), iterations=500
        )
        assert set(improvements) == {100, 10}


class TestTechnologySweep:
    def test_lifetimes_order_by_endurance(self, sim, workload):
        result = sim.run(workload, BalanceConfig(), iterations=100)
        sweep = technology_sweep(result, [MRAM, RRAM, PCM])
        assert (
            sweep["MRAM"].iterations_to_failure
            > sweep["RRAM"].iterations_to_failure
            > sweep["PCM"].iterations_to_failure
        )

    def test_ratio_matches_endurance_ratio(self, sim, workload):
        result = sim.run(workload, BalanceConfig(), iterations=100)
        sweep = technology_sweep(result, [MRAM, RRAM])
        assert sweep["MRAM"].iterations_to_failure / sweep[
            "RRAM"
        ].iterations_to_failure == pytest.approx(
            MRAM.endurance_writes / RRAM.endurance_writes
        )
