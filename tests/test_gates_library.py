"""Tests for repro.gates.library: the paper's gate-count contracts."""

import pytest

from repro.gates.library import (
    MINIMAL_LIBRARY,
    NAND_LIBRARY,
    NOR_LIBRARY,
    library_by_name,
)
from repro.gates.ops import GateOp


class TestNandLibrary:
    def test_adder_costs_match_fig2(self):
        # Fig. 2: a full adder is 9 NAND gates.
        assert NAND_LIBRARY.full_adder_gates == 9
        assert NAND_LIBRARY.half_adder_gates == 5

    def test_carry_adder_costs(self):
        # Carry-only chain: Fig. 2's XOR block plus the carry NAND (6),
        # its NOR dual (6), and the minimal library's carry tree (4).
        assert NAND_LIBRARY.carry_adder_gates == 6
        assert NOR_LIBRARY.carry_adder_gates == 6
        assert MINIMAL_LIBRARY.carry_adder_gates == 4

    def test_and_is_single_gate(self):
        # Section 3.1's 9,824 total counts each AND as one gate.
        assert NAND_LIBRARY.and_gate_cost == 1
        assert NAND_LIBRARY.supports(GateOp.AND)

    def test_copy_needs_two_nots(self):
        # Footnote 5: some architectures lack COPY and use two NOTs.
        assert not NAND_LIBRARY.has_native_copy
        assert NAND_LIBRARY.copy_gate_cost == 2

    def test_32bit_multiplier_is_9824_gates(self):
        assert NAND_LIBRARY.multiplier_gates(32) == 9824

    def test_xor_not_native(self):
        assert not NAND_LIBRARY.supports(GateOp.XOR)


class TestMinimalLibrary:
    @pytest.mark.parametrize("bits", [4, 8, 16, 32, 64])
    def test_multiplier_formula_6b2_minus_8b(self, bits):
        # Section 3.2: "a multiplication requires 6b^2 - 8b gates in total".
        assert MINIMAL_LIBRARY.multiplier_gates(bits) == 6 * bits * bits - 8 * bits

    @pytest.mark.parametrize("bits", [4, 8, 16, 32, 64])
    def test_adder_formula_5b_minus_3(self, bits):
        # Ripple-carry: (b-1) 5-gate full adds + one 2-gate half add.
        assert MINIMAL_LIBRARY.adder_gates(bits) == 5 * bits - 3

    def test_copy_is_native(self):
        assert MINIMAL_LIBRARY.copy_gate_cost == 1


class TestNorLibrary:
    def test_and_costs_three_gates(self):
        assert NOR_LIBRARY.and_gate_cost == 3

    def test_multiplier_more_expensive_than_nand(self):
        assert NOR_LIBRARY.multiplier_gates(32) > NAND_LIBRARY.multiplier_gates(32)

    def test_adder_costs_match_nand_duals(self):
        assert NOR_LIBRARY.adder_gates(32) == NAND_LIBRARY.adder_gates(32)


class TestLookupAndValidation:
    def test_library_by_name(self):
        assert library_by_name("nand") is NAND_LIBRARY
        assert library_by_name(" MINIMAL ") is MINIMAL_LIBRARY

    def test_unknown_library_raises(self):
        with pytest.raises(KeyError, match="minimal"):
            library_by_name("cmos")

    def test_width_below_two_rejected(self):
        with pytest.raises(ValueError):
            NAND_LIBRARY.multiplier_gates(1)
        with pytest.raises(ValueError):
            NAND_LIBRARY.adder_gates(0)

    def test_libraries_are_hashable(self):
        assert len({NAND_LIBRARY, MINIMAL_LIBRARY, NOR_LIBRARY}) == 3

    @pytest.mark.parametrize("name", ["nand", "minimal", "nor", "maj"])
    def test_native_mask_is_native_ops_by_index(self, name):
        library = library_by_name(name)
        for op in GateOp:
            assert library.native_mask[op.index] is (op in library.native_ops)
            assert library.supports(op) is (op in library.native_ops)

    def test_native_mask_stays_out_of_equality_and_repr(self):
        from dataclasses import replace

        copy = replace(NAND_LIBRARY)
        assert copy == NAND_LIBRARY and hash(copy) == hash(NAND_LIBRARY)
        assert "native_mask" not in repr(NAND_LIBRARY)
