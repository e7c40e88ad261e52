"""E17 — extension: read-disturb sensitivity.

The paper counts only writes against endurance, but PIM reads cells
roughly twice per gate (19,616 reads vs 9,824 writes per multiply). If a
read wears the cell by a fraction of a write (read disturb), lifetime
shrinks accordingly; this bench shows the threshold below which the
paper's writes-only accounting is safe.
"""

import pytest

from repro.array.architecture import default_architecture
from repro.balance.config import BalanceConfig
from repro.core.lifetime import lifetime_from_result, lifetime_with_read_wear
from repro.core.report import format_table
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.workloads.multiply import ParallelMultiplication

from conftest import bench_iterations

RATIOS = (0.0, 1e-6, 1e-4, 1e-2, 1e-1)


def test_bench_e17_read_disturb(benchmark, record):
    simulator = EnduranceSimulator(
        default_architecture(), settings=SimulationSettings(seed=7)
    )
    result = simulator.run(
        ParallelMultiplication(bits=32),
        BalanceConfig(),
        iterations=bench_iterations(1_000),
    )
    baseline = lifetime_from_result(result)

    def sweep():
        return {
            ratio: lifetime_with_read_wear(result, ratio)
            for ratio in RATIOS
        }

    estimates = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [
        (
            f"{ratio:g}",
            f"{est.days_to_failure:.2f}",
            f"{est.days_to_failure / baseline.days_to_failure:.4f}",
        )
        for ratio, est in estimates.items()
    ]
    record(
        "E17_read_disturb",
        format_table(
            ["Read wear (fraction of a write)", "Days to failure",
             "vs writes-only model"],
            rows,
            title="E17: read-disturb sensitivity of Eq. 4 lifetimes",
        ),
    )

    # Below 1e-4 the writes-only model is accurate to <1%.
    assert estimates[1e-6].days_to_failure == pytest.approx(
        baseline.days_to_failure, rel=0.01
    )
    assert estimates[1e-4].days_to_failure == pytest.approx(
        baseline.days_to_failure, rel=0.01
    )
    # At 10% wear per read, the ~2:1 read:write ratio costs real lifetime.
    assert estimates[1e-1].days_to_failure < 0.95 * baseline.days_to_failure
