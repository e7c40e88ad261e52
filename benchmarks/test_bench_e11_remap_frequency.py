"""E11 — Section 5's recompile-frequency sweep.

Paper finding: "the expected lifetime saturates at approximately every 50
iterations. Over all benchmarks and configurations that improved from 50
to 10 iterations, the improvement was on average only 1.6%."
"""

from repro.array.architecture import default_architecture
from repro.balance.config import BalanceConfig
from repro.balance.software import StrategyKind
from repro.core.report import format_remap_frequency
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.core.sweep import remap_frequency_sweep
from repro.workloads.dotproduct import DotProduct

from conftest import bench_iterations

INTERVALS = (10_000, 1_000, 500, 100, 50, 10)


def test_bench_e11_remap_frequency(benchmark, record):
    simulator = EnduranceSimulator(
        default_architecture(), settings=SimulationSettings(seed=7)
    )
    workload = DotProduct(n_elements=1024, bits=32)
    iterations = max(bench_iterations(5_000), 10_000)

    def sweep():
        return remap_frequency_sweep(
            simulator,
            workload,
            intervals=INTERVALS,
            iterations=iterations,
            base_config=BalanceConfig(
                within=StrategyKind.RANDOM, between=StrategyKind.RANDOM
            ),
        )

    improvements = benchmark.pedantic(sweep, rounds=1, iterations=1)

    text = format_remap_frequency(improvements)
    gain_50_to_10 = improvements[10] / improvements[50] - 1.0
    text += (
        f"\n\ntotal iterations simulated: {iterations}"
        f"\nimprovement from interval 50 -> 10: {gain_50_to_10:+.2%}"
        " (paper: +1.6% on average)"
    )
    record("E11_remap_frequency", text)

    # More frequent re-mapping is (weakly) better...
    assert improvements[50] >= improvements[1_000] * 0.98
    # ...but the curve has saturated well before interval 10.
    assert abs(gain_50_to_10) < 0.10
