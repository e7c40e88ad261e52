"""E20 — extension: what byte-aligned shifting costs.

The paper constrains shifts to whole bytes "to maintain proper
(byte-addressable) read and write operations" (Section 3.2), and then
finds byte-shifting useless for convolution because the hot columns recur
with period 4 and 8 is a multiple of 4 (Section 5). Shifting by a single
*bit/lane* per epoch breaks that resonance. This bench measures the
lifetime the byte-alignment constraint leaves on the table.
"""

import pytest

from repro.array.architecture import default_architecture
from repro.balance.config import BalanceConfig
from repro.balance.software import StrategyKind
from repro.core.lifetime import lifetime_improvement
from repro.core.report import format_table
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.workloads.convolution import Convolution

from conftest import bench_iterations


def test_bench_e20_shift_granularity(benchmark, record):
    simulator = EnduranceSimulator(
        default_architecture(),
        settings=SimulationSettings(seed=7, track_reads=False),
    )
    workload = Convolution()
    iterations = bench_iterations(2_000)

    def run_all():
        base = simulator.run(workload, BalanceConfig(), iterations)
        out = {"StxSt": 1.0}
        for label, between in (
            ("StxBs (byte shift, paper)", StrategyKind.BYTE_SHIFT),
            ("StxB1 (single-lane shift)", StrategyKind.BIT_SHIFT),
            ("StxRa (random, paper)", StrategyKind.RANDOM),
        ):
            result = simulator.run(
                workload,
                BalanceConfig(between=between),
                iterations,
            )
            out[label] = lifetime_improvement(result, base)
        return out

    improvements = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [(label, f"{value:.3f}x") for label, value in improvements.items()]
    record(
        "E20_shift_granularity",
        format_table(
            ["Between-lane strategy", "Convolution lifetime improvement"],
            rows,
            title=(
                "E20: byte-aligned shifting resonates with convolution's "
                "period-4 hot columns; bit-granular shifting does not"
            ),
        ),
    )

    # Byte shift: provably nothing (8 % 4 == 0).
    assert improvements["StxBs (byte shift, paper)"] == pytest.approx(
        1.0, abs=0.02
    )
    # Single-lane shift recovers most of what random achieves.
    bit_shift = improvements["StxB1 (single-lane shift)"]
    random = improvements["StxRa (random, paper)"]
    assert bit_shift > 1.05
    assert bit_shift > 0.8 * random
