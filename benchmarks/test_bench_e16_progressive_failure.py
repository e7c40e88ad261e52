"""E16 — extension: progressive failure and fault-aware repacking.

Section 3.3 shows failed offsets can be excluded by software re-mapping at
a shrinking-workspace cost. This bench quantifies the lifetime extension:
with per-cell endurance spread (lognormal sigma), failures stagger, and an
array that repacks around dead offsets outlives the paper's
first-cell-failure horizon by the factors below.
"""

from repro.array.architecture import default_architecture
from repro.balance.config import BalanceConfig
from repro.core.failure import failure_timeline, minimum_footprint
from repro.core.report import format_table
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.devices.endurance import LognormalEndurance, UniformEndurance
from repro.devices.technology import MRAM
from repro.workloads.multiply import ParallelMultiplication

from conftest import bench_iterations

SIGMAS = (0.0, 0.2, 0.4, 0.6)


def test_bench_e16_progressive_failure(benchmark, record):
    architecture = default_architecture()
    workload = ParallelMultiplication(bits=32)
    simulator = EnduranceSimulator(
        architecture, settings=SimulationSettings(seed=7, track_reads=False)
    )
    result = simulator.run(
        workload,
        BalanceConfig.from_label("RaxSt+Hw"),
        iterations=bench_iterations(1_000),
    )
    required = minimum_footprint(workload, architecture)

    def timelines():
        out = {}
        for sigma in SIGMAS:
            model = (
                UniformEndurance(MRAM.endurance_writes)
                if sigma == 0.0
                else LognormalEndurance(MRAM.endurance_writes, sigma, rng=0)
            )
            out[sigma] = failure_timeline(
                result, required_offsets=required, endurance_model=model
            )
        return out

    results = benchmark.pedantic(timelines, rounds=1, iterations=1)

    rows = [
        (
            f"{sigma:.1f}",
            f"{t.first_failure_iterations:.3e}",
            f"{t.unusable_iterations:.3e}",
            f"{t.extension_factor:.2f}x",
        )
        for sigma, t in results.items()
    ]
    record(
        "E16_progressive_failure",
        format_table(
            ["Endurance sigma", "First failure (iters)",
             "Unusable w/ repacking (iters)", "Extension"],
            rows,
            title=(
                f"E16: fault-aware repacking (multiply needs {required} of "
                f"{architecture.lane_size} lane bits)"
            ),
        ),
    )

    # Uniform endurance + level wear: repacking buys almost nothing.
    assert results[0.0].extension_factor < 1.3
    # Spread staggers failures: repacking extends life substantially, and
    # monotonically with sigma.
    factors = [results[s].extension_factor for s in SIGMAS]
    assert all(a <= b * 1.05 for a, b in zip(factors, factors[1:]))
    assert results[0.6].extension_factor > 2.0
