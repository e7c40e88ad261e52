"""Tests for repro.gates.ops: exhaustive truth tables."""

import itertools

import pytest

from repro.gates.ops import ONE_INPUT_OPS, TWO_INPUT_OPS, GateOp, evaluate_op


class TestArity:
    def test_one_input_ops(self):
        assert GateOp.NOT.arity == 1
        assert GateOp.COPY.arity == 1

    def test_two_input_ops(self):
        for op in TWO_INPUT_OPS:
            assert op.arity == 2

    def test_maj_is_three_input(self):
        assert GateOp.MAJ.arity == 3

    def test_partition_covers_everything(self):
        covered = ONE_INPUT_OPS | TWO_INPUT_OPS | {GateOp.MAJ}
        assert covered == set(GateOp)

    def test_index_is_definition_order(self):
        assert [op.index for op in GateOp] == list(range(len(GateOp)))


class TestTruthTables:
    @pytest.mark.parametrize("a", [0, 1])
    def test_not_and_copy(self, a):
        assert evaluate_op(GateOp.NOT, [a]) == 1 - a
        assert evaluate_op(GateOp.COPY, [a]) == a

    @pytest.mark.parametrize("a,b", list(itertools.product([0, 1], repeat=2)))
    def test_two_input_semantics(self, a, b):
        assert evaluate_op(GateOp.AND, [a, b]) == (a & b)
        assert evaluate_op(GateOp.NAND, [a, b]) == 1 - (a & b)
        assert evaluate_op(GateOp.OR, [a, b]) == (a | b)
        assert evaluate_op(GateOp.NOR, [a, b]) == 1 - (a | b)
        assert evaluate_op(GateOp.XOR, [a, b]) == (a ^ b)
        assert evaluate_op(GateOp.XNOR, [a, b]) == 1 - (a ^ b)

    @pytest.mark.parametrize("bits", list(itertools.product([0, 1], repeat=3)))
    def test_majority(self, bits):
        assert evaluate_op(GateOp.MAJ, list(bits)) == int(sum(bits) >= 2)

    @pytest.mark.parametrize("a,b", list(itertools.product([0, 1], repeat=2)))
    def test_de_morgan_duality(self, a, b):
        # NAND(a, b) == OR(!a, !b); NOR(a, b) == AND(!a, !b).
        assert evaluate_op(GateOp.NAND, [a, b]) == evaluate_op(
            GateOp.OR, [1 - a, 1 - b]
        )
        assert evaluate_op(GateOp.NOR, [a, b]) == evaluate_op(
            GateOp.AND, [1 - a, 1 - b]
        )


class TestValidation:
    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError, match="takes 2 inputs"):
            evaluate_op(GateOp.AND, [1])

    def test_non_boolean_input_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            evaluate_op(GateOp.NOT, [2])
