"""Tests for repro.synth.program: counting and evaluation semantics."""

import pytest

from repro.gates.library import MINIMAL_LIBRARY, NAND_LIBRARY
from repro.gates.ops import GateOp
from repro.synth.bits import BitVector
from repro.synth.program import (
    ConstBit,
    ExternalBit,
    LaneProgram,
    LaneProgramBuilder,
    OperandBit,
    ReadInstr,
    WriteInstr,
)


def _and_program():
    builder = LaneProgramBuilder(MINIMAL_LIBRARY, name="and")
    a = builder.input_vector("a", 1)
    b = builder.input_vector("b", 1)
    out = builder.gate(GateOp.AND, a[0], b[0])
    builder.mark_output("z", BitVector([out]))
    builder.read_out(BitVector([out]), tag="z")
    return builder.finish()


class TestCounting:
    def test_write_counts_without_presets(self):
        program = _and_program()
        counts = program.write_counts()
        # Two operand loads plus one gate output.
        assert counts.tolist() == [1, 1, 1]

    def test_write_counts_with_presets_double_gate_outputs(self):
        program = _and_program()
        counts = program.write_counts(include_presets=True)
        assert counts.tolist() == [1, 1, 2]

    def test_read_counts(self):
        program = _and_program()
        # Gate reads both inputs; the read-out reads the output once.
        assert program.read_counts().tolist() == [1, 1, 1]

    def test_counts_can_be_embedded_in_larger_lane(self):
        program = _and_program()
        counts = program.write_counts(10)
        assert counts.shape == (10,)
        assert counts[3:].sum() == 0

    def test_size_below_footprint_rejected(self):
        with pytest.raises(ValueError, match="smaller than footprint"):
            _and_program().write_counts(2)

    def test_counts_are_cached_but_isolated(self):
        program = _and_program()
        first = program.write_counts()
        first[0] = 999
        assert program.write_counts()[0] == 1

    def test_sequential_ops_counts_every_instruction(self):
        program = _and_program()
        # 2 loads + 1 gate + 1 read-out.
        assert program.sequential_ops == 4

    def test_totals(self):
        program = _and_program()
        assert program.total_writes == 3
        assert program.total_reads == 3


class TestEvaluation:
    @pytest.mark.parametrize("a,b", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_and_program_computes_and(self, a, b):
        outputs, readouts = _and_program().evaluate({"a": a, "b": b})
        assert outputs["z"] == (a & b)
        assert readouts["z"] == [a & b]

    def test_missing_operand_raises(self):
        with pytest.raises(KeyError, match="'b'"):
            _and_program().evaluate({"a": 1})

    def test_operand_too_wide_raises(self):
        with pytest.raises(ValueError, match="does not fit"):
            _and_program().evaluate({"a": 2, "b": 0})

    def test_uninitialized_read_raises(self):
        program = LaneProgram(
            "bad", [ReadInstr(0, tag="x", index=0)], footprint=1,
            inputs={}, outputs={},
        )
        with pytest.raises(ValueError, match="uninitialized"):
            program.evaluate({})

    def test_gate_on_uninitialized_bit_raises(self):
        builder = LaneProgramBuilder(MINIMAL_LIBRARY)
        a = builder.allocator.alloc()  # allocated but never written
        b_vec = builder.input_vector("b", 1)
        builder.gate(GateOp.AND, a, b_vec[0])
        with pytest.raises(ValueError, match="uninitialized"):
            builder.finish().evaluate({"b": 1})

    def test_external_stream_consumption(self):
        builder = LaneProgramBuilder(MINIMAL_LIBRARY)
        incoming = builder.receive_vector("stream", 3)
        builder.mark_output("value", incoming)
        outputs, _ = builder.finish().evaluate({}, {"stream": [1, 0, 1]})
        assert outputs["value"] == 0b101

    def test_missing_external_stream_raises(self):
        builder = LaneProgramBuilder(MINIMAL_LIBRARY)
        builder.receive_vector("stream", 1)
        with pytest.raises(KeyError, match="stream"):
            builder.finish().evaluate({})

    def test_short_external_stream_raises(self):
        builder = LaneProgramBuilder(MINIMAL_LIBRARY)
        builder.receive_vector("stream", 2)
        with pytest.raises(ValueError, match="needs index 1"):
            builder.finish().evaluate({}, {"stream": [1]})

    def test_const_bits(self):
        builder = LaneProgramBuilder(MINIMAL_LIBRARY)
        one = builder.const_bit(1)
        zero = builder.const_bit(0)
        builder.mark_output("v", BitVector([zero, one]))
        outputs, _ = builder.finish().evaluate({})
        assert outputs["v"] == 0b10

    def test_const_bit_validation(self):
        with pytest.raises(ValueError):
            ConstBit(2)


class TestBuilder:
    def test_non_native_gate_rejected(self):
        builder = LaneProgramBuilder(NAND_LIBRARY)
        a = builder.input_vector("a", 2)
        with pytest.raises(ValueError, match="not native"):
            builder.gate(GateOp.XOR, a[0], a[1])

    def test_duplicate_operand_rejected(self):
        builder = LaneProgramBuilder(MINIMAL_LIBRARY)
        builder.input_vector("a", 1)
        with pytest.raises(ValueError, match="already declared"):
            builder.input_vector("a", 1)

    def test_duplicate_output_rejected(self):
        builder = LaneProgramBuilder(MINIMAL_LIBRARY)
        a = builder.input_vector("a", 1)
        builder.mark_output("z", a)
        with pytest.raises(ValueError, match="already declared"):
            builder.mark_output("z", a)

    def test_copy_bit_costs_depend_on_library(self):
        for library, expected_gates in ((MINIMAL_LIBRARY, 1), (NAND_LIBRARY, 2)):
            builder = LaneProgramBuilder(library)
            a = builder.input_vector("a", 1)
            builder.copy_bit(a[0])
            assert builder.finish().gate_count == expected_gates

    def test_copy_bit_preserves_value(self):
        for library in (MINIMAL_LIBRARY, NAND_LIBRARY):
            builder = LaneProgramBuilder(library)
            a = builder.input_vector("a", 1)
            copied = builder.copy_bit(a[0])
            builder.mark_output("z", BitVector([copied]))
            for value in (0, 1):
                outputs, _ = builder.finish().evaluate({"a": value})
                assert outputs["z"] == value

    def test_gate_into_requires_live_target(self):
        builder = LaneProgramBuilder(MINIMAL_LIBRARY)
        a = builder.input_vector("a", 1)
        with pytest.raises(ValueError, match="not allocated"):
            builder.gate_into(GateOp.COPY, 99, a[0])

    def test_copy_into_lands_on_target(self):
        builder = LaneProgramBuilder(NAND_LIBRARY)
        a = builder.input_vector("a", 1)
        target = builder.allocator.alloc()
        builder.copy_into(a[0], target)
        builder.mark_output("z", BitVector([target]))
        outputs, _ = builder.finish().evaluate({"a": 1})
        assert outputs["z"] == 1

    def test_footprint_validation_on_manual_construction(self):
        with pytest.raises(ValueError, match="outside footprint"):
            LaneProgram(
                "bad", [WriteInstr(5)], footprint=2, inputs={}, outputs={}
            )


class TestConstructionTimeValidation:
    """Malformed programs are rejected when built, not deep in evaluate."""

    def test_negative_operand_index_rejected(self):
        with pytest.raises(ValueError, match="negative operand bit index"):
            OperandBit("a", -1)

    def test_negative_external_index_rejected(self):
        with pytest.raises(ValueError, match="negative external"):
            ExternalBit("t", -1)

    def test_negative_readout_index_rejected(self):
        with pytest.raises(ValueError, match="negative read-out"):
            ReadInstr(0, tag="x", index=-1)

    def test_undeclared_operand_rejected(self):
        with pytest.raises(ValueError, match="undeclared operand 'ghost'"):
            LaneProgram(
                "bad",
                [WriteInstr(0, OperandBit("ghost", 0))],
                footprint=1,
                inputs={},
                outputs={},
            )

    def test_operand_index_beyond_width_rejected(self):
        with pytest.raises(ValueError, match="only 1 bits wide"):
            LaneProgram(
                "bad",
                [
                    WriteInstr(0, OperandBit("a", 0)),
                    WriteInstr(1, OperandBit("a", 3)),
                ],
                footprint=2,
                inputs={"a": (0,)},
                outputs={},
            )

    def test_declared_output_outside_footprint_rejected(self):
        with pytest.raises(ValueError, match="outside footprint"):
            LaneProgram(
                "bad",
                [WriteInstr(0)],
                footprint=1,
                inputs={},
                outputs={"z": (4,)},
            )
