"""repro — reproduction of "On Endurance of Processing in (Nonvolatile)
Memory" (Resch et al., ISCA 2023).

A trace-driven endurance simulator for digital nonvolatile
processing-in-memory (NVPIM): gate-level arithmetic synthesis, PIM array
wear accounting, load-balancing strategies, and the lifetime model — with
every table and figure of the paper's evaluation regenerable from the
``benchmarks/`` harness.

Quickstart::

    from repro import (
        default_architecture, EnduranceSimulator, SimulationSettings,
        ParallelMultiplication, BalanceConfig, lifetime_from_result,
    )

    arch = default_architecture()
    sim = EnduranceSimulator(arch, SimulationSettings(seed=7))
    result = sim.run(ParallelMultiplication(bits=32),
                     BalanceConfig.from_label("RaxSt+Hw"),
                     iterations=10_000)
    summary = result.write_distribution.summary()
    days = lifetime_from_result(result).days_to_failure
"""

from repro.array import (
    ArrayGeometry,
    ArrayState,
    Orientation,
    PIMArchitecture,
    default_architecture,
)
from repro.balance import BalanceConfig, StrategyKind, all_configurations
from repro.core import (
    EnduranceSimulator,
    SimulationSettings,
    FailureTimeline,
    failure_timeline,
    minimum_footprint,
    LifetimeEstimate,
    SimulationResult,
    WriteDistribution,
    configuration_grid,
    eq1_operations_until_total_failure,
    eq2_seconds_until_total_failure,
    lifetime_from_result,
    lifetime_improvement,
    remap_frequency_sweep,
    technology_sweep,
)
from repro.devices import MRAM, PCM, RRAM, Technology, technology_by_name
from repro.fleet import (
    CohortSpec,
    FleetReport,
    FleetService,
    FleetSpec,
    PopulationSpec,
    SurvivalCurve,
    TrafficSpec,
    kaplan_meier,
    run_campaign,
)
from repro.gates import MINIMAL_LIBRARY, NAND_LIBRARY, GateLibrary, GateOp
from repro.workloads import (
    BinaryNeuron,
    ConventionalBaseline,
    Convolution,
    DotProduct,
    MatrixVectorProduct,
    ParallelMultiplication,
    TraceWorkload,
    UnknownWorkloadError,
    VectorAdd,
    Workload,
    available_workloads,
    get_workload,
    register,
)
from repro.telemetry import Telemetry, get_telemetry
from repro.verify import (
    Diagnostic,
    Severity,
    VerificationError,
    VerifyReport,
    verify_mapping,
    verify_network,
    verify_program,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # array
    "ArrayGeometry",
    "ArrayState",
    "Orientation",
    "PIMArchitecture",
    "default_architecture",
    # balance
    "BalanceConfig",
    "StrategyKind",
    "all_configurations",
    # core
    "EnduranceSimulator",
    "SimulationSettings",
    "SimulationResult",
    "WriteDistribution",
    "LifetimeEstimate",
    "lifetime_from_result",
    "lifetime_improvement",
    "configuration_grid",
    "remap_frequency_sweep",
    "technology_sweep",
    "eq1_operations_until_total_failure",
    "eq2_seconds_until_total_failure",
    "FailureTimeline",
    "failure_timeline",
    "minimum_footprint",
    # devices
    "Technology",
    "MRAM",
    "RRAM",
    "PCM",
    "technology_by_name",
    # fleet
    "CohortSpec",
    "FleetReport",
    "FleetService",
    "FleetSpec",
    "PopulationSpec",
    "SurvivalCurve",
    "TrafficSpec",
    "kaplan_meier",
    "run_campaign",
    # gates
    "GateOp",
    "GateLibrary",
    "NAND_LIBRARY",
    "MINIMAL_LIBRARY",
    # workloads
    "Workload",
    "ParallelMultiplication",
    "DotProduct",
    "Convolution",
    "ConventionalBaseline",
    "VectorAdd",
    "BinaryNeuron",
    "MatrixVectorProduct",
    # workload registry + trace frontend
    "TraceWorkload",
    "UnknownWorkloadError",
    "available_workloads",
    "get_workload",
    "register",
    # telemetry
    "Telemetry",
    "get_telemetry",
    # verify
    "Diagnostic",
    "Severity",
    "VerificationError",
    "VerifyReport",
    "verify_mapping",
    "verify_network",
    "verify_program",
]
