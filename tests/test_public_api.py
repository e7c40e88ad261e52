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


#: Every package whose namespace is a lazy table.
PACKAGES = (
    "repro",
    "repro.array",
    "repro.balance",
    "repro.core",
    "repro.devices",
    "repro.engine",
    "repro.fleet",
    "repro.gates",
    "repro.synth",
    "repro.telemetry",
    "repro.verify",
    "repro.workloads",
    "repro.workloads.trace",
)


def _table(package):
    """The name -> defining module table a package hands to ``attach``."""
    import ast
    from pathlib import Path

    from repro.verify.lint import _lazy_tables

    tree = ast.parse(Path(package.__file__).read_text(encoding="utf-8"))
    (call,) = _lazy_tables(tree)
    return ast.literal_eval(call.args[1])


@pytest.mark.parametrize("package_name", PACKAGES)
class TestLazyNamespaces:
    def test_every_export_is_its_defining_modules_object(self, package_name):
        package = importlib.import_module(package_name)
        table = _table(package)
        assert list(package.__all__) == list(table)
        listed = dir(package)
        for name, module in table.items():
            defined = getattr(importlib.import_module(module), name)
            assert getattr(package, name) is defined, name
            assert name in listed, name

    def test_unknown_name_is_an_attribute_error(self, package_name):
        package = importlib.import_module(package_name)
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name
        assert not hasattr(package, "__no_such_dunder__")


def test_star_import_and_submodule_access_in_a_fresh_interpreter():
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "import repro\n"
        "assert 'repro.core.simulator' not in __import__('sys').modules\n"
        "assert repro.core.simulator.EnduranceSimulator "
        "is repro.EnduranceSimulator\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "assert set(repro.__all__) <= set(namespace)\n"
        "print('ok')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert result.stdout.strip() == "ok", result.stderr
