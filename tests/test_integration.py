"""End-to-end integration tests across the full stack."""

import numpy as np
import pytest

from repro import (
    BalanceConfig,
    Convolution,
    DotProduct,
    EnduranceSimulator,
    ParallelMultiplication,
    default_architecture,
    lifetime_from_result,
    lifetime_improvement,
)
from repro.core.settings import SimulationSettings
from repro.core.sweep import configuration_grid


@pytest.fixture(scope="module")
def arch():
    return default_architecture(256, 256)


@pytest.fixture(scope="module")
def sim(arch):
    return EnduranceSimulator(arch, settings=SimulationSettings(seed=2024))


class TestPaperStructure:
    """The qualitative findings of Section 5 must hold end-to-end."""

    def test_multiplication_gains_nothing_from_between_lane_balancing(
        self, sim
    ):
        # Fig. 17a: "St x Ra and St x Bs do not provide any benefit" —
        # the multiply uses every lane identically.
        workload = ParallelMultiplication(bits=16)
        base = sim.run(workload, BalanceConfig(), iterations=1000)
        for label in ("StxRa", "StxBs"):
            result = sim.run(
                workload, BalanceConfig.from_label(label), iterations=1000
            )
            assert lifetime_improvement(result, base) == pytest.approx(1.0)

    def test_multiplication_gains_from_within_lane_balancing(self, sim):
        # Gains are modest (the ring workspace is already fairly level —
        # footnote 6: idealized re-mapping "cannot be of much help"), but
        # with frequent recompiles they are consistently positive.
        workload = ParallelMultiplication(bits=16)
        base = sim.run(workload, BalanceConfig(), iterations=1000)
        result = sim.run(
            workload,
            BalanceConfig.from_label("RaxSt").with_interval(10),
            iterations=1000,
        )
        assert lifetime_improvement(result, base) > 1.03
        hardware = sim.run(
            workload, BalanceConfig(hardware=True), iterations=1000
        )
        assert lifetime_improvement(hardware, base) > 1.0

    def test_convolution_byte_shift_between_lanes_useless(self, sim):
        # Fig. 17b: "St x Bs provides no benefit: shifting columns by an
        # integer number of bytes re-maps write-heavy columns to other
        # write-heavy columns" (the hot stripe has period 4; 8 % 4 == 0).
        workload = Convolution(bits=4)
        base = sim.run(workload, BalanceConfig(), iterations=1000)
        byte_shift = sim.run(
            workload, BalanceConfig.from_label("StxBs"), iterations=1000
        )
        random = sim.run(
            workload, BalanceConfig.from_label("StxRa"), iterations=1000
        )
        assert lifetime_improvement(byte_shift, base) == pytest.approx(1.0)
        assert lifetime_improvement(random, base) > 1.05

    def test_dot_product_benefits_in_both_dimensions(self, sim):
        # Fig. 17c: dot-product improves from both row and column
        # strategies (it is imbalanced in both).
        workload = DotProduct(n_elements=256, bits=16)
        base = sim.run(workload, BalanceConfig(), iterations=1000)
        between_only = sim.run(
            workload, BalanceConfig.from_label("StxRa"), iterations=1000
        )
        both = sim.run(
            workload, BalanceConfig.from_label("RaxRa"), iterations=1000
        )
        assert lifetime_improvement(between_only, base) > 1.1
        assert lifetime_improvement(both, base) >= lifetime_improvement(
            between_only, base
        )

    def test_utilization_ordering_matches_table3(self, arch):
        # Table 3: mult 100% > conv ~85% > dot ~65%.
        mult = ParallelMultiplication(bits=16).build(arch).lane_utilization
        conv = Convolution(bits=8).build(arch).lane_utilization
        dot = DotProduct(n_elements=256, bits=16).build(arch).lane_utilization
        assert mult == pytest.approx(1.0)
        assert mult > conv > dot

    def test_dot_product_low_lane_hot_stripe(self, sim):
        # Fig. 16: "dot-product heavily uses columns at low addresses".
        workload = DotProduct(n_elements=256, bits=16)
        result = sim.run(workload, BalanceConfig(), iterations=100)
        lane_profile = result.write_distribution.lane_profile()
        assert lane_profile[0] == lane_profile.max()
        assert lane_profile[:8].mean() > lane_profile[128:136].mean()

    def test_convolution_every_fourth_column_hot(self, sim):
        workload = Convolution(bits=4)
        result = sim.run(workload, BalanceConfig(), iterations=100)
        lane_profile = result.write_distribution.lane_profile()
        leaders = lane_profile[::4]
        members = np.concatenate(
            [lane_profile[1::4], lane_profile[2::4], lane_profile[3::4]]
        )
        assert leaders.min() > members.max()


class TestLifetimeRealism:
    def test_static_lifetime_below_eq2_upper_bound(self, sim):
        # Eq. 2 is a perfect-balance bound; a real (static) run must come
        # in below it, and in the same order of magnitude.
        from repro.core.lifetime import eq2_seconds_until_total_failure

        workload = ParallelMultiplication(bits=16)
        result = sim.run(workload, BalanceConfig(), iterations=2000)
        estimate = lifetime_from_result(result)
        bound = eq2_seconds_until_total_failure(
            result.architecture.geometry,
            result.architecture.technology.endurance_writes,
            result.architecture.lane_count,
        )
        assert estimate.seconds_to_failure < bound
        assert estimate.seconds_to_failure > bound / 20

    def test_grid_is_reproducible(self, arch):
        workload = ParallelMultiplication(bits=16)
        configs = [BalanceConfig.from_label(l) for l in ("StxSt", "RaxRa")]
        grid1 = configuration_grid(
            EnduranceSimulator(
                arch, settings=SimulationSettings(seed=3)
            ), workload, 500, configs=configs
        )
        grid2 = configuration_grid(
            EnduranceSimulator(
                arch, settings=SimulationSettings(seed=3)
            ), workload, 500, configs=configs
        )
        for a, b in zip(grid1, grid2):
            assert a.improvement == pytest.approx(b.improvement)


#: A small paper grid, a trace sweep through a cold store, and fleet
#: campaigns with and without endurance variation, in one process.
NUMPY_MA_SCRIPT = """
import sys
import tempfile
from pathlib import Path

from repro import default_architecture
from repro.balance.config import BalanceConfig
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.core.sweep import configuration_grid
from repro.engine import ResultStore
from repro.fleet import (
    CohortSpec, FleetService, FleetSpec, PopulationSpec, TrafficSpec,
)
from repro.workloads.registry import get_workload
from repro.workloads.trace import TraceWorkload, write_gemv_trace

architecture = default_architecture()
settings = SimulationSettings(seed=1)
for name in ("mult", "conv"):
    configuration_grid(
        EnduranceSimulator(architecture, settings=settings),
        get_workload(name), iterations=300,
    )
work = Path(tempfile.mkdtemp())
trace = TraceWorkload.from_file(
    write_gemv_trace(work / "gemv.trace", rows=4, cols=4)
)
configuration_grid(
    EnduranceSimulator(architecture, settings=settings), trace,
    iterations=200,
    configs=[BalanceConfig.from_label(label)
             for label in ("StxSt", "RaxRa", "BsxBs")],
    cache_dir=str(work / "store"),
)
for sigma in (0.0, 0.3):
    spec = FleetSpec(
        population=PopulationSpec(
            n_arrays=8,
            technology_mix=(("MRAM", 1.0), ("PCM", 1.0)),
            cohorts=(CohortSpec("add"), CohortSpec("conv")),
            endurance_sigma=sigma,
        ),
        traffic=TrafficSpec(model="poisson", rate=6e4),
        days=5, seed=1, rows=128, cols=128, cohort_iterations=200,
    )
    FleetService(
        spec, store=ResultStore(work / f"fleet{sigma}"),
        checkpoint_dir=str(work / f"ckpt{sigma}"), checkpoint_every=2,
    ).run()
print("numpy.ma" in sys.modules)
"""


#: One run per scenario, each in a fresh interpreter; prints the
#: modules loaded by its end.
LOADED_MODULES_SCRIPT = """
import json
import sys
import tempfile
from pathlib import Path

scenario = sys.argv[1]
work = Path(tempfile.mkdtemp())
if scenario == "grid":
    from repro.array.architecture import default_architecture
    from repro.core.settings import SimulationSettings
    from repro.core.simulator import EnduranceSimulator
    from repro.core.sweep import configuration_grid
    from repro.workloads.registry import get_workload

    simulator = EnduranceSimulator(
        default_architecture(), settings=SimulationSettings(seed=1)
    )
    for name in ("mult", "conv"):
        configuration_grid(simulator, get_workload(name), iterations=300)
elif scenario == "trace":
    from repro.array.architecture import default_architecture
    from repro.balance.config import BalanceConfig
    from repro.core.simulator import EnduranceSimulator
    from repro.core.sweep import configuration_grid
    from repro.workloads.trace import TraceWorkload, write_gemv_trace

    trace = TraceWorkload.from_file(
        write_gemv_trace(work / "gemv.trace", rows=4, cols=4)
    )
    configuration_grid(
        EnduranceSimulator(default_architecture()), trace, iterations=200,
        configs=[BalanceConfig.from_label(label)
                 for label in ("StxSt", "RaxRa", "BsxBs")],
        cache_dir=str(work / "store"),
    )
else:
    from repro.engine import ResultStore
    from repro.fleet import (
        CohortSpec, FleetService, FleetSpec, PopulationSpec, TrafficSpec,
    )

    spec = FleetSpec(
        population=PopulationSpec(
            n_arrays=8,
            technology_mix=(("MRAM", 1.0), ("PCM", 1.0)),
            cohorts=(CohortSpec("add"), CohortSpec("conv")),
            endurance_sigma=0.3,
        ),
        traffic=TrafficSpec(model="poisson", rate=6e4),
        days=5, seed=1, rows=128, cols=128, cohort_iterations=200,
    )
    FleetService(
        spec, store=ResultStore(work / "store"),
        checkpoint_dir=str(work / "ckpt"), checkpoint_every=2,
    ).run()
print(json.dumps(sorted(sys.modules)))
"""


class TestImportsFollowTheRun:
    """Package namespaces resolve names on first access, so a run loads
    the layers it uses and no other: a grid no fleet or trace frontend,
    a fleet no trace frontend, and none of them ``logging`` (only
    ``LoggingSink`` uses it) or ``difflib`` (only an unknown workload
    name's suggestion)."""

    SHUNNED = {
        "grid": ("repro.fleet", "repro.workloads.trace"),
        "trace": ("repro.fleet",),
        "fleet": ("repro.workloads.trace",),
    }

    @pytest.mark.parametrize("scenario", ["grid", "trace", "fleet"])
    def test_scenario_loads_only_its_layers(self, scenario):
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        result = subprocess.run(
            [sys.executable, "-c", LOADED_MODULES_SCRIPT, scenario],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
        )
        loaded = set(json.loads(result.stdout.strip().splitlines()[-1]))
        # The run did what it is named for.
        assert {"repro.core.simulator", "repro.synth.compiled"} <= loaded
        for package in self.SHUNNED[scenario]:
            assert not {
                name for name in loaded
                if name == package or name.startswith(package + ".")
            }, package
        assert "logging" not in loaded
        assert "difflib" not in loaded


class TestNumpyMaStaysUnimported:
    """``np.unique``'s and ``np.isin``'s sorting paths import
    ``numpy.ma`` on first use (numpy 2.x); the simulator's set
    operations go through :mod:`repro.distinct` instead, so no
    workload pays that import."""

    def test_grid_trace_sweep_and_fleet(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        result = subprocess.run(
            [sys.executable, "-c", NUMPY_MA_SCRIPT],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.strip().splitlines()[-1] == "False"

    @pytest.mark.parametrize("seed", range(5))
    def test_helpers_equal_numpy(self, seed):
        from repro.distinct import contained, distinct

        rng = np.random.default_rng(seed)
        for size in (0, 1, 2, 50):
            values = rng.integers(-5, 20, size)
            pool = rng.integers(-5, 20, (size % 7, 3))
            found = distinct(values)
            assert found.dtype == values.dtype
            assert np.array_equal(found, np.unique(values))
            assert np.array_equal(
                contained(values, pool), np.isin(values, pool)
            )
            assert np.array_equal(
                contained(pool, values), np.isin(pool, values)
            )
