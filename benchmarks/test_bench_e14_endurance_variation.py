"""E14 — ablation: per-cell endurance variation.

The paper assumes uniform endurance and notes this "makes our analysis
more pessimistic as the actual endurance is more likely to vary across
cells" — in the sense that it treats the *average* as the budget. With an
explicit lognormal spread, the weakest written cell fails first, so the
first-failure lifetime shrinks as sigma grows; this bench quantifies by
how much.
"""

import numpy as np

from repro.array.architecture import default_architecture
from repro.balance.config import BalanceConfig
from repro.core.lifetime import lifetime_from_result
from repro.core.report import format_table
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.devices.endurance import LognormalEndurance
from repro.devices.technology import MRAM
from repro.workloads.multiply import ParallelMultiplication

from conftest import bench_iterations

SIGMAS = (0.0, 0.1, 0.3, 0.5, 0.8)


def test_bench_e14_endurance_variation(benchmark, record):
    simulator = EnduranceSimulator(
        default_architecture(),
        settings=SimulationSettings(seed=7, track_reads=False),
    )
    result = simulator.run(
        ParallelMultiplication(bits=32),
        BalanceConfig.from_label("RaxSt+Hw"),
        iterations=bench_iterations(1_000),
    )
    uniform = lifetime_from_result(result)

    def sweep():
        estimates = {}
        for sigma in SIGMAS:
            model = LognormalEndurance(
                MRAM.endurance_writes, sigma=sigma, rng=0
            )
            estimates[sigma] = lifetime_from_result(
                result, endurance_model=model
            )
        return estimates

    estimates = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [
        (
            f"{sigma:.1f}",
            f"{est.days_to_failure:.2f}",
            f"{est.days_to_failure / uniform.days_to_failure:.3f}",
        )
        for sigma, est in estimates.items()
    ]
    record(
        "E14_endurance_variation",
        format_table(
            ["Lognormal sigma", "Days to first failure",
             "vs uniform assumption"],
            rows,
            title=(
                "E14: per-cell endurance spread shortens first-cell-failure "
                "lifetime (balanced 32-bit multiply)"
            ),
        ),
    )

    days = [estimates[s].days_to_failure for s in SIGMAS]
    # sigma = 0 degenerates to the uniform model.
    assert np.isclose(days[0], uniform.days_to_failure, rtol=1e-6)
    # Lifetime decreases monotonically with spread.
    assert all(a >= b for a, b in zip(days, days[1:]))
    # At sigma = 0.8 the weakest-cell effect is substantial (>2x shorter).
    assert days[-1] < 0.5 * days[0]
