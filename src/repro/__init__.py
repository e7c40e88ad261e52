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

from repro.lazy import attach

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "__version__": "repro",
        "ArrayGeometry": "repro.array.geometry",
        "Orientation": "repro.array.geometry",
        "ArrayState": "repro.array.state",
        "PIMArchitecture": "repro.array.architecture",
        "default_architecture": "repro.array.architecture",
        "BalanceConfig": "repro.balance.config",
        "all_configurations": "repro.balance.config",
        "StrategyKind": "repro.balance.software",
        "EnduranceSimulator": "repro.core.simulator",
        "SimulationResult": "repro.core.simulator",
        "SimulationSettings": "repro.core.settings",
        "WriteDistribution": "repro.core.writedist",
        "LifetimeEstimate": "repro.core.lifetime",
        "lifetime_from_result": "repro.core.lifetime",
        "lifetime_improvement": "repro.core.lifetime",
        "eq1_operations_until_total_failure": "repro.core.lifetime",
        "eq2_seconds_until_total_failure": "repro.core.lifetime",
        "configuration_grid": "repro.core.sweep",
        "remap_frequency_sweep": "repro.core.sweep",
        "technology_sweep": "repro.core.sweep",
        "FailureTimeline": "repro.core.failure",
        "failure_timeline": "repro.core.failure",
        "minimum_footprint": "repro.core.failure",
        "Technology": "repro.devices.technology",
        "MRAM": "repro.devices.technology",
        "RRAM": "repro.devices.technology",
        "PCM": "repro.devices.technology",
        "technology_by_name": "repro.devices.technology",
        "CohortSpec": "repro.fleet.population",
        "PopulationSpec": "repro.fleet.population",
        "FleetReport": "repro.fleet.report",
        "FleetService": "repro.fleet.service",
        "FleetSpec": "repro.fleet.service",
        "run_campaign": "repro.fleet.service",
        "SurvivalCurve": "repro.fleet.survival",
        "kaplan_meier": "repro.fleet.survival",
        "TrafficSpec": "repro.fleet.traffic",
        "GateOp": "repro.gates.ops",
        "GateLibrary": "repro.gates.library",
        "NAND_LIBRARY": "repro.gates.library",
        "MINIMAL_LIBRARY": "repro.gates.library",
        "Workload": "repro.workloads.base",
        "ParallelMultiplication": "repro.workloads.multiply",
        "DotProduct": "repro.workloads.dotproduct",
        "Convolution": "repro.workloads.convolution",
        "ConventionalBaseline": "repro.workloads.conventional",
        "VectorAdd": "repro.workloads.vectoradd",
        "BinaryNeuron": "repro.workloads.bnn",
        "MatrixVectorProduct": "repro.workloads.matvec",
        "TraceWorkload": "repro.workloads.trace.lowering",
        "UnknownWorkloadError": "repro.workloads.registry",
        "available_workloads": "repro.workloads.registry",
        "get_workload": "repro.workloads.registry",
        "register": "repro.workloads.registry",
        "Telemetry": "repro.telemetry.core",
        "get_telemetry": "repro.telemetry.core",
        "Diagnostic": "repro.verify.diagnostics",
        "Severity": "repro.verify.diagnostics",
        "VerifyReport": "repro.verify.diagnostics",
        "VerificationError": "repro.verify.api",
        "verify_mapping": "repro.verify.api",
        "verify_network": "repro.verify.api",
        "verify_program": "repro.verify.api",
    },
)
