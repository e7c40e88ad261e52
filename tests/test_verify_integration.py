"""verify integrated: simulator/engine hooks, CLI subcommand, properties.

The tentpole contract: the same static passes run (a) standalone via
``verify_mapping``, (b) automatically inside ``EnduranceSimulator.run``
(raising :class:`VerificationError`), (c) through it, in every engine
job (a bad spec fails as rejected, with its diagnostics), and (d) behind the
``repro-endurance verify`` subcommand with conventional exit codes.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.array.architecture import default_architecture
from repro.balance.config import BalanceConfig, all_configurations
from repro.cli import main
from repro.core.simulator import EnduranceSimulator, mapping_for
from repro.engine import (
    EngineError,
    ExperimentEngine,
    JobSpec,
    JobStatus,
    require_ok,
)
from repro.gates.library import MINIMAL_LIBRARY, NAND_LIBRARY
from repro.gates.ops import GateOp
from repro.synth.bits import BitVector
from repro.synth.program import (
    ConstBit,
    LaneProgram,
    LaneProgramBuilder,
    ReadInstr,
    WriteInstr,
)
from repro.telemetry import Telemetry, capture, set_telemetry
from repro.verify import VerificationError, verify_mapping
from repro.workloads.base import Phase, Workload, WorkloadMapping
from repro.workloads.registry import available_workloads, get_workload
from repro.workloads.multiply import ParallelMultiplication
from repro.workloads.trace import load_gemv_fixture
from repro.workloads.vectoradd import VectorAdd


class BrokenSchedule(Workload):
    """A real workload whose hand-written schedule drifted (RPR008)."""

    name = "broken-schedule"

    def __init__(self):
        self.inner = VectorAdd(bits=8)

    def build(self, architecture):
        mapping = self.inner.build(architecture)
        mapping.phases = [Phase("bogus", 1, 1)]
        mapping.workload_name = self.name
        return mapping


class TestVerifyMappingOnShippedWorkloads:
    @pytest.mark.parametrize("label", ["StxSt", "RaxRa", "BsxBs+Hw"])
    def test_clean_across_configs(self, small_arch, label):
        mapping = ParallelMultiplication(bits=8).build(small_arch)
        report = verify_mapping(
            mapping, BalanceConfig.from_label(label), functional=False
        )
        assert report.ok

    def test_functional_mode_flags_placeholder_tags_as_errors(self, small_arch):
        # Wear-view canonical programs are not necessarily evaluatable;
        # functional=False is what the simulator/engine rely on.
        mapping = ParallelMultiplication(bits=8).build(small_arch)
        relaxed = verify_mapping(mapping, functional=False)
        assert not relaxed.errors


class TestSimulatorHook:
    def test_run_verifies_and_rejects_broken_schedule(self, tiny_arch):
        sim = EnduranceSimulator(tiny_arch)
        with pytest.raises(VerificationError) as excinfo:
            sim.run(
                BrokenSchedule(), BalanceConfig.from_label("StxSt"),
                iterations=5,
            )
        assert "RPR008" in excinfo.value.report.codes()
        assert "verification failed" not in str(excinfo.value)  # raw report

    def test_broken_workload_rejected_on_every_run(self, tiny_arch):
        workload = BrokenSchedule()
        config = BalanceConfig.from_label("StxSt")
        sim = EnduranceSimulator(tiny_arch)
        for simulator in (sim, sim, EnduranceSimulator(tiny_arch)):
            with pytest.raises(VerificationError) as excinfo:
                simulator.run(workload, config, iterations=5)
            assert "RPR008" in excinfo.value.report.codes()

    def test_every_run_verifies_and_repeats_reuse_program_findings(
        self, tiny_arch
    ):
        fresh = Telemetry()
        previous = set_telemetry(fresh)
        try:
            workload = VectorAdd(bits=8)
            config = BalanceConfig.from_label("StxSt")
            for _ in range(3):
                EnduranceSimulator(tiny_arch).run(workload, config, 5)
        finally:
            set_telemetry(previous)
        assert fresh.counters["verify.runs"] == 3
        assert fresh.phases["verify"][1] == 3
        assert fresh.counters["verify.program_memo_hits"] >= 2

    def test_verify_phase_counted_in_telemetry(self, tiny_arch):
        fresh = Telemetry()
        previous = set_telemetry(fresh)
        try:
            sim = EnduranceSimulator(tiny_arch)
            sim.run(
                VectorAdd(bits=8), BalanceConfig.from_label("StxSt"),
                iterations=5,
            )
            assert fresh.counters.get("verify.runs", 0) >= 1
        finally:
            set_telemetry(previous)


class Defective(Workload):
    """One lane whose program trips a finding in every memoized pass
    family: an uninitialized read (RPR001, an error only in functional
    mode), a dead write (RPR002), and a footprint filling the lane, so
    only +Hw configs lack their spare bit (RPR009)."""

    name = "defective"

    def build(self, architecture):
        size = architecture.lane_size
        program = LaneProgram(
            "defective",
            [
                WriteInstr(0, ConstBit(1)),
                WriteInstr(0, ConstBit(0)),
                ReadInstr(0),
                ReadInstr(size - 1),
            ],
            size,
            {},
            {},
        )
        return WorkloadMapping(
            self.name, architecture, {0: program}, [Phase("all", 4, 1)]
        )


def _oracle_workloads():
    """Every registry workload (``gemv-trace`` is the bundled GEMV trace),
    each on a small array it fits (``dot`` needs 1024 lanes), plus one
    whose reports are not empty."""
    cases = [
        pytest.param(
            lambda name=name: get_workload(name),
            (256, 1024) if name == "dot" else (512, 64),
            id=name,
        )
        for name in available_workloads()
    ]
    return cases + [pytest.param(Defective, (64, 64), id="defective")]


def _findings(report):
    return [(d.code, d.severity, d.message) for d in report.diagnostics]


class TestProgramVerifyMemo:
    """The memoized verifier against the same passes on fresh builds."""

    def test_registry_gemv_is_the_bundled_trace(self):
        bundled = load_gemv_fixture()
        registered = get_workload("gemv-trace")
        assert registered.signature == bundled.signature
        assert registered.name == bundled.name

    def test_defective_reports_differ_by_config_and_mode(self, tiny_arch):
        mapping = mapping_for(Defective(), tiny_arch)
        plain = BalanceConfig.from_label("StxSt")
        hardware = BalanceConfig.from_label("StxSt+Hw")
        assert set(verify_mapping(mapping, plain).codes()) == {
            "RPR001", "RPR002"
        }
        assert "RPR009" in verify_mapping(mapping, hardware).codes()
        relaxed = verify_mapping(mapping, plain, functional=False)
        assert not relaxed.errors and "RPR001" in relaxed.codes()

    @pytest.mark.parametrize("make, geometry", _oracle_workloads())
    def test_memoized_reports_match_fresh_builds(self, make, geometry):
        architecture = default_architecture(*geometry)
        workload = make()
        configs = all_configurations()
        # The memoized side: the process-wide mapping, verified with the
        # spare bit switching on every call (plain and +Hw interleaved);
        # every call but perhaps the first reuses program findings.
        mapping = mapping_for(workload, architecture)
        interleaved = [
            config for pair in zip(configs[:9], configs[9:])
            for config in pair
        ]
        assert {c.hardware for c in interleaved[:2]} == {False, True}
        memoized = {
            (config, functional): _findings(
                verify_mapping(mapping, config, functional=functional)
            )
            for config in interleaved
            for functional in (False, True)
        }
        # The oracle: a fresh build no other call has verified, checked
        # in the opposite order (+Hw configs and functional mode first).
        # A memo missing part of its key then fills differently on the
        # two sides and the reports part.
        fresh = workload.build(architecture)
        for config in reversed(configs):
            for functional in (True, False):
                report = verify_mapping(fresh, config, functional=functional)
                assert memoized[config, functional] == _findings(report), (
                    config.label, functional
                )


class TestEngineHook:
    def test_bad_spec_rejected_before_dispatch(self, tiny_arch):
        spec = JobSpec(
            workload=BrokenSchedule(),
            architecture=tiny_arch,
            config=BalanceConfig.from_label("StxSt"),
            iterations=5,
            seed=3,
        )
        (outcome,) = ExperimentEngine().run([spec])
        assert outcome.status is JobStatus.FAILED
        assert "verification failed" in outcome.error
        assert "RPR008" in outcome.error

    def test_rejection_reports_instead_of_raising(self, tiny_arch):
        spec = JobSpec(
            workload=BrokenSchedule(),
            architecture=tiny_arch,
            config=BalanceConfig.from_label("StxSt"),
            iterations=5,
            seed=3,
        )
        fresh = Telemetry()
        previous = set_telemetry(fresh)
        try:
            with capture() as sink:
                (outcome,) = ExperimentEngine().run([spec])
        finally:
            set_telemetry(previous)
        assert outcome.status is JobStatus.FAILED
        assert outcome.error.startswith("verification failed:\nRPR008 error:")
        (rejected,) = sink.of("job_rejected")
        assert rejected["codes"] == ["RPR008"]
        assert fresh.counters["engine.rejected"] == 1
        assert fresh.counters["verify.runs"] == 1
        # The failure's one-line reason is the diagnostic itself.
        with pytest.raises(EngineError, match=r": RPR008 error: "):
            require_ok([outcome])

    def test_good_specs_unaffected(self, tiny_arch):
        spec = JobSpec(
            workload=ParallelMultiplication(bits=8),
            architecture=tiny_arch,
            config=BalanceConfig.from_label("RaxRa"),
            iterations=20,
            seed=3,
        )
        (outcome,) = ExperimentEngine().run([spec])
        assert outcome.status is JobStatus.COMPLETED



class TestVerifyCLI:
    def test_single_combination_exits_zero(self, capsys):
        code = main([
            "verify", "--workload", "add", "--library", "nand",
            "--config", "StxSt",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "no diagnostics" in out

    def test_json_output_parses(self, capsys):
        code = main([
            "verify", "--workload", "mult", "--library", "minimal",
            "--config", "BsxBs+Hw", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["exit_code"] == 0

    def test_unfittable_geometry_exits_one_with_rpr003(self, capsys):
        code = main([
            "--rows", "64", "--cols", "64",
            "verify", "--workload", "mult", "--library", "nand",
            "--config", "StxSt",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "RPR003" in out
        assert "cannot be built on this geometry" in out

    def test_verify_in_help(self):
        from repro.cli import build_parser

        assert "verify" in build_parser().format_help()


def _random_program(data):
    """A random straight-line gate program over two small operands."""
    library = data.draw(st.sampled_from([NAND_LIBRARY, MINIMAL_LIBRARY]))
    width = data.draw(st.integers(2, 4))
    builder = LaneProgramBuilder(library, name="prop")
    a = builder.input_vector("a", width)
    b = builder.input_vector("b", width)
    cells = [a[i] for i in range(width)] + [b[i] for i in range(width)]
    ops = [op for op in GateOp if library.supports(op)]
    for _ in range(data.draw(st.integers(1, 12))):
        op = data.draw(st.sampled_from(ops))
        inputs = [data.draw(st.sampled_from(cells)) for _ in range(op.arity)]
        cells.append(builder.gate(op, *inputs))
    result = BitVector((cells[-1],))
    builder.mark_output("r", result)
    builder.read_out(result, "r")
    program = builder.finish()
    return program, width


class TestScalarBatchEquivalence:
    """Any program passing the hazard/dataflow passes executes
    identically under ``evaluate`` and the compiled batch kernel."""

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_programs_agree(self, data):
        program, width = _random_program(data)
        from repro.verify import check_dataflow, check_levels

        hazards = [
            d
            for d in check_dataflow(program) + check_levels(program)
            if d.severity.value == "error"
        ]
        assert hazards == []  # builder-produced programs are well-formed

        draws = 3
        values_a = data.draw(
            st.lists(
                st.integers(0, 2**width - 1),
                min_size=draws, max_size=draws,
            )
        )
        values_b = data.draw(
            st.lists(
                st.integers(0, 2**width - 1),
                min_size=draws, max_size=draws,
            )
        )
        batch_outputs, batch_readouts = program.compiled().evaluate_batch(
            {"a": values_a, "b": values_b}, draws=draws
        )
        for n in range(draws):
            outputs, readouts = program.evaluate(
                {"a": values_a[n], "b": values_b[n]}
            )
            assert outputs["r"] == int(batch_outputs["r"][n])
            assert readouts["r"] == list(batch_readouts["r"][n])
