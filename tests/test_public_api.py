"""Pin the public API surface of the top-level packages.

These tests fail loudly when a re-export is dropped or an unexported
name leaks into ``__all__`` — the import surface is part of the repo's
contract, not an accident of module internals.
"""

import importlib

import pytest

REPRO_ALL = {
    "__version__",
    # array
    "ArrayGeometry", "ArrayState", "Orientation", "PIMArchitecture",
    "default_architecture",
    # balance
    "BalanceConfig", "StrategyKind", "all_configurations",
    # core
    "EnduranceSimulator", "SimulationSettings", "SimulationResult",
    "WriteDistribution", "LifetimeEstimate", "lifetime_from_result",
    "lifetime_improvement", "configuration_grid", "remap_frequency_sweep",
    "technology_sweep", "eq1_operations_until_total_failure",
    "eq2_seconds_until_total_failure", "FailureTimeline",
    "failure_timeline", "minimum_footprint",
    # devices
    "Technology", "MRAM", "RRAM", "PCM", "technology_by_name",
    # fleet
    "CohortSpec", "FleetReport", "FleetService", "FleetSpec",
    "PopulationSpec", "SurvivalCurve", "TrafficSpec", "kaplan_meier",
    "run_campaign",
    # gates
    "GateOp", "GateLibrary", "NAND_LIBRARY", "MINIMAL_LIBRARY",
    # workloads
    "Workload", "ParallelMultiplication", "DotProduct", "Convolution",
    "ConventionalBaseline", "VectorAdd", "BinaryNeuron",
    "MatrixVectorProduct",
    # workload registry + trace frontend
    "TraceWorkload", "UnknownWorkloadError", "available_workloads",
    "get_workload", "register",
    # telemetry
    "Telemetry", "get_telemetry",
    # verify
    "Diagnostic", "Severity", "VerificationError", "VerifyReport",
    "verify_mapping", "verify_network", "verify_program",
}

VERIFY_ALL = {
    "CODES", "Diagnostic", "FUNCTIONAL_CODES", "Location", "Severity",
    "VerificationError", "VerifyReport", "check_bounds", "check_checkpoint",
    "check_config", "check_dataflow",
    "check_level_segments", "check_levels", "check_manifest",
    "check_permutation_rows", "check_profile_conservation",
    "check_schedule", "check_stream_keys", "check_streams", "check_trace",
    "derive_stream_keys", "self_lint", "verify_fleet_spec",
    "verify_mapping", "verify_network", "verify_program", "verify_self",
}

ENGINE_ALL = {
    "EngineError", "ExperimentEngine", "JobOutcome", "JobStatus", "JobSpec",
    "ResultStore", "SPEC_VERSION", "SimulationSettings", "execute_spec",
    "require_ok", "run_simulation",
}

FLEET_ALL = {
    "BUDGET_STREAM", "CHECKPOINT_VERSION", "CheckpointManager",
    "CohortSpec", "DISPATCH_POLICIES", "FleetReport", "FleetService",
    "FleetSpec", "Population", "PopulationSpec", "SurvivalCurve",
    "TRAFFIC_MODELS", "TRAFFIC_STREAM", "TrafficSpec", "TrafficState",
    "annual_replacement_rate", "binomial_tail",
    "canonical_hash", "capacity_headroom", "capacity_iterations",
    "draw_day", "format_report", "interleaved_assignment", "kaplan_meier",
    "proportional_counts", "required_fleet_size", "run_campaign",
    "split_requests",
}

WORKLOADS_ALL = {
    "Phase", "Workload", "WorkloadMapping", "evaluate_networked",
    "evaluate_networked_batch", "ParallelMultiplication", "DotProduct",
    "Convolution", "ConventionalBaseline", "VectorAdd", "BinaryNeuron",
    "MatrixVectorProduct",
    # registry
    "UnknownWorkloadError", "WorkloadEntry", "WorkloadRegistrationError",
    "available_workloads", "get_workload", "get_workload_factory",
    "register", "unregister", "workload_entries",
    # trace frontend
    "AddressMapping", "TraceLoweringError", "TraceParseError",
    "TraceWorkload",
}

TRACE_ALL = {
    "AddressFormat", "AddressMapping", "GEMV_FIXTURE", "MAPPING_POLICIES",
    "PIMULATOR_FORMAT", "PhysicalAddress", "TraceInstr",
    "TraceLoweringError", "TraceOp", "TraceParseError", "TraceWorkload",
    "fixture_path", "gemv_addresses", "gemv_trace_lines", "iter_trace",
    "load_gemv_fixture", "parse_trace", "write_gemv_trace",
}

TELEMETRY_ALL = {
    "CaptureSink", "EVENT_FIELDS", "JsonlSink", "KNOWN_COUNTERS",
    "LoggingSink",
    "ProgressSink", "Sink", "Telemetry", "TextReporter", "TraceSchemaError",
    "capture",
    "format_stats", "get_telemetry", "iter_trace", "set_telemetry",
    "summarize_trace", "validate_record",
}


@pytest.mark.parametrize(
    "module_name, expected",
    [
        ("repro", REPRO_ALL),
        ("repro.engine", ENGINE_ALL),
        ("repro.fleet", FLEET_ALL),
        ("repro.telemetry", TELEMETRY_ALL),
        ("repro.verify", VERIFY_ALL),
        ("repro.workloads", WORKLOADS_ALL),
        ("repro.workloads.trace", TRACE_ALL),
    ],
)
class TestPublicSurface:
    def test_all_matches_pin(self, module_name, expected):
        module = importlib.import_module(module_name)
        assert set(module.__all__) == expected

    def test_every_name_resolves(self, module_name, expected):
        module = importlib.import_module(module_name)
        for name in module.__all__:
            assert getattr(module, name) is not None

    def test_all_is_sorted_unique(self, module_name, expected):
        module = importlib.import_module(module_name)
        assert len(module.__all__) == len(set(module.__all__))


class TestCrossExports:
    def test_settings_is_the_same_object_everywhere(self):
        import repro
        import repro.core
        import repro.engine

        assert repro.SimulationSettings is repro.core.SimulationSettings
        assert repro.SimulationSettings is repro.engine.SimulationSettings

    def test_telemetry_is_the_same_object_everywhere(self):
        import repro
        import repro.telemetry

        assert repro.Telemetry is repro.telemetry.Telemetry
        assert repro.get_telemetry is repro.telemetry.get_telemetry
