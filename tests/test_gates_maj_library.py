"""Tests for the CRAM-style majority-gate library."""

import itertools

import pytest

from repro.gates.library import MAJ_LIBRARY, NAND_LIBRARY
from repro.gates.ops import GateOp
from repro.synth.adders import full_adder, half_adder, ripple_carry_add
from repro.synth.analysis import (
    carry_adder_counts,
    full_adder_counts,
    half_adder_counts,
    multiplier_counts,
)
from repro.synth.bits import BitVector
from repro.synth.program import LaneProgramBuilder


class TestLibraryContract:
    def test_native_ops(self):
        assert MAJ_LIBRARY.supports(GateOp.MAJ)
        assert MAJ_LIBRARY.supports(GateOp.NOT)
        assert not MAJ_LIBRARY.supports(GateOp.AND)

    def test_full_adder_is_4_gates(self):
        assert MAJ_LIBRARY.full_adder_gates == 4
        assert full_adder_counts(MAJ_LIBRARY).gates == 4

    def test_half_adder_is_4_gates(self):
        assert half_adder_counts(MAJ_LIBRARY).gates == 4

    def test_carry_adder_is_1_gate(self):
        # The comparator's borrow chain is a single native majority.
        assert MAJ_LIBRARY.carry_adder_gates == 1
        assert carry_adder_counts(MAJ_LIBRARY).gates == 1

    def test_multiplier_roughly_halves_nand_cost(self):
        maj = multiplier_counts(32, MAJ_LIBRARY)
        nand = multiplier_counts(32, NAND_LIBRARY)
        assert maj.gates == 5 * 32 * 32 - 4 * 32  # 4(b^2-2b) + 4b + b^2
        assert maj.cell_writes < 0.55 * nand.cell_writes


class TestMajArithmetic:
    @pytest.mark.parametrize(
        "a,b,cin", list(itertools.product([0, 1], repeat=3))
    )
    def test_full_adder_truth_table(self, a, b, cin):
        builder = LaneProgramBuilder(MAJ_LIBRARY)
        av = builder.input_vector("a", 1)
        bv = builder.input_vector("b", 1)
        cv = builder.input_vector("c", 1)
        s, cout = full_adder(builder, av[0], bv[0], cv[0])
        builder.mark_output("s", BitVector([s]))
        builder.mark_output("cout", BitVector([cout]))
        outputs, _ = builder.finish().evaluate({"a": a, "b": b, "c": cin})
        assert outputs["s"] == (a + b + cin) % 2
        assert outputs["cout"] == (a + b + cin) // 2

    @pytest.mark.parametrize("a,b", list(itertools.product([0, 1], repeat=2)))
    def test_half_adder_truth_table(self, a, b):
        builder = LaneProgramBuilder(MAJ_LIBRARY)
        av = builder.input_vector("a", 1)
        bv = builder.input_vector("b", 1)
        s, carry = half_adder(builder, av[0], bv[0])
        builder.mark_output("s", BitVector([s]))
        builder.mark_output("carry", BitVector([carry]))
        outputs, _ = builder.finish().evaluate({"a": a, "b": b})
        assert outputs["s"] == a ^ b
        assert outputs["carry"] == a & b

    def test_ripple_carry_add_exhaustive(self):
        for x in range(16):
            for y in range(16):
                builder = LaneProgramBuilder(MAJ_LIBRARY)
                a = builder.input_vector("a", 4)
                b = builder.input_vector("b", 4)
                total = ripple_carry_add(builder, a, b)
                builder.mark_output("s", total)
                outputs, _ = builder.finish().evaluate({"a": x, "b": y})
                assert outputs["s"] == x + y

    def test_and_via_majority_with_shared_zero(self):
        builder = LaneProgramBuilder(MAJ_LIBRARY)
        a = builder.input_vector("a", 1)
        b = builder.input_vector("b", 1)
        builder.and_bit(a[0], b[0])
        builder.and_bit(a[0], b[0])
        program = builder.finish()
        # Two ANDs cost two gates but only ONE constant-zero write.
        assert program.gate_count == 2
        const_writes = sum(
            1
            for instr in program.instructions
            if hasattr(instr, "source")
            and type(instr.source).__name__ == "ConstBit"
        )
        assert const_writes == 1
        builder2 = LaneProgramBuilder(MAJ_LIBRARY)
        av = builder2.input_vector("a", 1)
        bv = builder2.input_vector("b", 1)
        out = builder2.and_bit(av[0], bv[0])
        builder2.mark_output("z", BitVector([out]))
        for x, y in itertools.product([0, 1], repeat=2):
            outputs, _ = builder2.finish().evaluate({"a": x, "b": y})
            assert outputs["z"] == (x & y)


class TestMajEndurancePayoff:
    def test_maj_architecture_lives_longer(self, small_arch):
        # Fewer gates per multiply = fewer writes = longer lifetime: the
        # device/architecture co-design lever the paper's conclusion
        # points at.
        from dataclasses import replace

        from repro.balance.config import BalanceConfig
        from repro.core.lifetime import lifetime_from_result
        from repro.core.settings import SimulationSettings
        from repro.core.simulator import EnduranceSimulator
        from repro.workloads.multiply import ParallelMultiplication

        nand_arch = small_arch
        maj_arch = replace(small_arch, library=MAJ_LIBRARY, name="CRAM-MAJ")
        workload = ParallelMultiplication(bits=8)
        writes_only = SimulationSettings(seed=0, track_reads=False)
        nand_life = lifetime_from_result(
            EnduranceSimulator(nand_arch, writes_only).run(
                workload, BalanceConfig(), 200
            )
        )
        maj_life = lifetime_from_result(
            EnduranceSimulator(maj_arch, writes_only).run(
                workload, BalanceConfig(), 200
            )
        )
        assert maj_life.iterations_to_failure > 1.5 * nand_life.iterations_to_failure
