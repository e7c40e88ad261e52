"""Tests for repro.core.report."""

import numpy as np

from repro.array.geometry import Orientation
from repro.balance.config import BalanceConfig
from repro.core.report import (
    format_fig5,
    format_fig11b,
    format_fig17,
    format_heatmap_grid,
    format_heatmap_stats,
    format_lifetimes,
    format_remap_frequency,
    format_table,
    format_table2,
    format_table3,
)
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.core.sweep import configuration_grid
from repro.core.writedist import WriteDistribution
from repro.workloads.multiply import ParallelMultiplication


class TestGenericTable:
    def test_alignment_and_title(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("a ")
        assert len(lines) == 5

    def test_float_formatting(self):
        text = format_table(["x"], [[1234567.0], [0.0001234]])
        assert "1.23e+06" in text
        assert "0.000123" in text


class TestPaperTables:
    def test_table2_contains_paper_values(self):
        text = format_table2()
        for value in ("25.00", "2.17", "61.78", "60.88"):
            assert value in text

    def test_table3_formats_percent_and_factor(self):
        text = format_table3([("mult", 1.0, 1.59), ("conv", 0.8478, 2.22)])
        assert "100.00%" in text
        assert "1.59x" in text

    def test_fig17_bars(self, small_arch):
        sim = EnduranceSimulator(
            small_arch, settings=SimulationSettings(seed=0)
        )
        entries = configuration_grid(
            sim, ParallelMultiplication(bits=8), iterations=100,
            configs=[BalanceConfig(), BalanceConfig.from_label("RaxSt")],
        )
        text = format_fig17(entries, "mult")
        assert "StxSt" in text and "RaxSt" in text
        assert "#" in text


class TestFigureRenderings:
    def test_fig5_highlights_imbalance(self):
        writes = np.concatenate([np.ones(16), np.full(48, 20.0)])
        reads = np.concatenate([np.ones(16), np.full(48, 40.0)])
        text = format_fig5(writes, reads, used_bits=64, bars=8)
        assert "workspace" in text
        assert "bits 0-7" in text

    def test_fig11b_table(self):
        text = format_fig11b([0.0, 0.01], [1.0, 0.5], [1.0, 0.55])
        assert "100.00%" in text
        assert "50.00%" in text

    def test_heatmap_grid_and_stats(self):
        dist = WriteDistribution(
            np.random.default_rng(0).random((32, 32)), 1,
            Orientation.COLUMN_PARALLEL, label="demo",
        )
        grid_text = format_heatmap_grid([dist], blocks=(8, 16))
        assert "demo" in grid_text
        stats_text = format_heatmap_stats([dist])
        assert "Balance" in stats_text

    def test_remap_frequency_sorted_descending(self):
        text = format_remap_frequency({10: 1.5, 1000: 1.2})
        lines = text.splitlines()
        assert lines[3].startswith("1000")

    def test_full_report(self, small_arch):
        from repro.core.report import format_full_report
        from repro.devices.technology import MRAM, RRAM

        sim = EnduranceSimulator(
            small_arch, settings=SimulationSettings(seed=0)
        )
        result = sim.run(
            ParallelMultiplication(bits=8), BalanceConfig(), iterations=50
        )
        text = format_full_report(result, technologies=[MRAM, RRAM])
        assert "Eq. 4 lifetime" in text
        assert "RRAM" in text
        assert "128x128" in text

    def test_full_report_on_loaded_result(self, small_arch, tmp_path):
        from repro.core.io import load_result, save_result
        from repro.core.report import format_full_report

        sim = EnduranceSimulator(
            small_arch, settings=SimulationSettings(seed=0)
        )
        result = sim.run(
            ParallelMultiplication(bits=8), BalanceConfig(), iterations=50
        )
        path = str(tmp_path / "r.result")
        save_result(result, path)
        text = format_full_report(load_result(path))
        assert "Eq. 4 lifetime" in text

    def test_lifetimes_table(self):
        from repro.core.lifetime import LifetimeEstimate

        estimates = {
            "MRAM": LifetimeEstimate(1e10, 3e6, 10.0, 1e12),
        }
        text = format_lifetimes(estimates)
        assert "MRAM" in text
        assert "1.0e+12" in text
