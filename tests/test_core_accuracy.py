"""Tests for repro.core.accuracy and stuck-at evaluation."""

import pytest

from repro.array.architecture import default_architecture
from repro.core.accuracy import (
    _measure_fault_accuracy_interpreted,
    measure_fault_accuracy,
)
from repro.gates.library import MINIMAL_LIBRARY
from repro.gates.ops import GateOp
from repro.synth.bits import BitVector
from repro.synth.program import LaneProgramBuilder
from repro.workloads.multiply import ParallelMultiplication


@pytest.fixture(scope="module")
def mult_program():
    return ParallelMultiplication(bits=6).build_program(
        default_architecture(256, 64)
    )


class TestStuckAtEvaluation:
    def test_stuck_cell_ignores_writes(self):
        builder = LaneProgramBuilder(MINIMAL_LIBRARY)
        a = builder.input_vector("a", 1)
        builder.mark_output("z", a)
        program = builder.finish()
        outputs, _ = program.evaluate({"a": 1}, stuck={0: 0})
        assert outputs["z"] == 0  # the write was lost
        outputs, _ = program.evaluate({"a": 0}, stuck={0: 1})
        assert outputs["z"] == 1

    def test_stuck_value_validation(self):
        builder = LaneProgramBuilder(MINIMAL_LIBRARY)
        a = builder.input_vector("a", 1)
        builder.mark_output("z", a)
        program = builder.finish()
        with pytest.raises(ValueError, match="stuck value"):
            program.evaluate({"a": 0}, stuck={0: 2})
        with pytest.raises(ValueError, match="outside footprint"):
            program.evaluate({"a": 0}, stuck={99: 0})

    def test_stuck_gate_output_corrupts_downstream(self):
        builder = LaneProgramBuilder(MINIMAL_LIBRARY)
        a = builder.input_vector("a", 2)
        x = builder.gate(GateOp.AND, a[0], a[1])
        y = builder.gate(GateOp.OR, x, a[0])
        builder.mark_output("z", BitVector([y]))
        program = builder.finish()
        healthy, _ = program.evaluate({"a": 0b11})
        faulted, _ = program.evaluate({"a": 0b11}, stuck={x: 0})
        assert healthy["z"] == 1
        assert faulted["z"] == 1  # OR with a[0]=1 masks this fault
        faulted2, _ = program.evaluate({"a": 0b10}, stuck={y: 0})
        assert faulted2["z"] == 0


class TestAccuracyReport:
    def test_zero_faults_means_zero_errors(self, mult_program):
        report = measure_fault_accuracy(
            mult_program, lambda a, b: a * b, n_faults=0, samples=10, rng=0
        )
        assert report.error_rate == 0.0
        assert report.mean_relative_error == 0.0

    def test_single_fault_corrupts_most_results(self, mult_program):
        # The paper's Section 3.3 claim, quantified: one dead cell in a
        # ring-swept lane breaks a large share of multiplications (at this
        # small 6-bit width the ring passes each cell ~1.3x per iteration;
        # wider programs reuse cells more and err even more often — E28
        # measures 83% at 16 bits).
        report = measure_fault_accuracy(
            mult_program, lambda a, b: a * b, n_faults=1, samples=40, rng=1
        )
        assert report.error_rate >= 0.3

    def test_more_faults_err_at_least_as_often(self, mult_program):
        one = measure_fault_accuracy(
            mult_program, lambda a, b: a * b, n_faults=1, samples=40, rng=2
        )
        four = measure_fault_accuracy(
            mult_program, lambda a, b: a * b, n_faults=4, samples=40, rng=2
        )
        assert four.error_rate >= one.error_rate

    def test_operand_cell_faults_always_matter(self, mult_program):
        # Restrict faults to the operand cells: a stuck input bit flips
        # the effective operand about half the time.
        operand_cells = list(mult_program.inputs["a"]) + list(
            mult_program.inputs["b"]
        )
        report = measure_fault_accuracy(
            mult_program,
            lambda a, b: a * b,
            n_faults=1,
            samples=60,
            rng=3,
            fault_addresses=operand_cells,
        )
        assert 0.2 < report.error_rate < 0.8

    def test_validation(self, mult_program):
        with pytest.raises(ValueError):
            measure_fault_accuracy(
                mult_program, lambda a, b: a * b, n_faults=-1
            )
        with pytest.raises(ValueError):
            measure_fault_accuracy(
                mult_program, lambda a, b: a * b, samples=0
            )
        with pytest.raises(ValueError, match="more faults"):
            measure_fault_accuracy(
                mult_program,
                lambda a, b: a * b,
                n_faults=3,
                fault_addresses=[0, 1],
            )

    def test_unknown_evaluator_rejected(self, mult_program):
        # No backend knob: the compiled path is the only public one.
        with pytest.raises(TypeError, match="evaluator"):
            measure_fault_accuracy(
                mult_program, lambda a, b: a * b, evaluator="interpreted"
            )

    @pytest.mark.parametrize("n_faults", [0, 1, 4])
    def test_evaluators_produce_identical_reports(
        self, mult_program, n_faults
    ):
        # Same seed, same draw code -> bit-identical statistics from the
        # compiled path and its interpreted oracle.
        kwargs = dict(
            reference=lambda a, b: a * b,
            n_faults=n_faults,
            samples=24,
            rng=11,
        )
        compiled = measure_fault_accuracy(mult_program, **kwargs)
        interpreted = _measure_fault_accuracy_interpreted(
            mult_program, **kwargs
        )
        assert compiled == interpreted

    def test_multi_output_requires_explicit_name(self):
        builder = LaneProgramBuilder(MINIMAL_LIBRARY)
        a = builder.input_vector("a", 1)
        b = builder.input_vector("b", 1)
        builder.mark_output("x", a)
        builder.mark_output("y", b)
        program = builder.finish()
        with pytest.raises(ValueError, match="multiple outputs"):
            measure_fault_accuracy(program, lambda a, b: a, samples=1)
        report = measure_fault_accuracy(
            program, lambda a, b: a, samples=4, n_faults=0, output="x", rng=0
        )
        assert report.error_rate == 0.0
