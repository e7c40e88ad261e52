"""Tests for repro.core.switching: data-dependent switch counting."""

import numpy as np
import pytest

from repro.core.switching import (
    _measure_switching_interpreted,
    measure_switching,
)
from repro.gates.library import MINIMAL_LIBRARY
from repro.gates.ops import GateOp
from repro.synth.bits import BitVector
from repro.synth.program import LaneProgramBuilder
from repro.workloads.multiply import ParallelMultiplication


def _copy_chain_program():
    """A program whose outputs equal its input: switches track the data."""
    builder = LaneProgramBuilder(MINIMAL_LIBRARY)
    a = builder.input_vector("a", 1)
    out = builder.gate(GateOp.COPY, a[0])
    builder.mark_output("z", BitVector([out]))
    return builder.finish()


class TestSwitchSemantics:
    def test_switch_counts_bounded_by_writes(self):
        profile = measure_switching(_copy_chain_program(), samples=10, rng=0)
        assert np.all(profile.switches <= profile.writes + 1e-9)
        assert profile.samples == 10

    def test_switches_never_exceed_writes(self):
        arch_program = ParallelMultiplication(bits=8).build_program(
            _small_arch()
        )
        profile = measure_switching(arch_program, samples=8, rng=1)
        assert np.all(profile.switches <= profile.writes + 1e-9)

    def test_zero_constant_cell_switches_at_most_zero(self):
        # The shared zero cell is written 0 into fresh state: no switch.
        from repro.gates.library import MAJ_LIBRARY

        builder = LaneProgramBuilder(MAJ_LIBRARY)
        a = builder.input_vector("a", 1)
        b = builder.input_vector("b", 1)
        builder.and_bit(a[0], b[0])
        program = builder.finish()
        profile = measure_switching(program, samples=16, rng=2)
        zero_address = [
            i.address
            for i in program.instructions
            if hasattr(i, "source") and type(i.source).__name__ == "ConstBit"
        ][0]
        assert profile.switches[zero_address] == 0.0


def _small_arch():
    from repro.array.architecture import default_architecture

    return default_architecture(128, 128)


class TestMultiplierSwitching:
    def test_random_data_switches_about_half_the_writes(self):
        program = ParallelMultiplication(bits=8).build_program(_small_arch())
        profile = measure_switching(program, samples=48, rng=3)
        assert 0.3 < profile.switch_fraction < 0.65

    def test_lifetime_factor_above_one(self):
        program = ParallelMultiplication(bits=8).build_program(_small_arch())
        profile = measure_switching(program, samples=48, rng=4)
        assert profile.lifetime_factor > 1.2

    def test_reproducible(self):
        program = ParallelMultiplication(bits=8).build_program(_small_arch())
        a = measure_switching(program, samples=8, rng=9)
        b = measure_switching(program, samples=8, rng=9)
        assert np.allclose(a.switches, b.switches)

    def test_small_width_switch_fraction_reasonable(self):
        program = ParallelMultiplication(bits=4).build_program(_small_arch())
        profile = measure_switching(program, samples=32, rng=5)
        assert 0.2 < profile.switch_fraction < 0.7

    def test_validation(self):
        program = _copy_chain_program()
        with pytest.raises(ValueError):
            measure_switching(program, samples=0)
        with pytest.raises(ValueError):
            _measure_switching_interpreted(program, samples=0)

    def test_evaluators_produce_identical_profiles(self):
        program = ParallelMultiplication(bits=6).build_program(_small_arch())
        compiled = measure_switching(program, samples=40, rng=3)
        interpreted = _measure_switching_interpreted(
            program, samples=40, rng=3
        )
        assert np.array_equal(compiled.switches, interpreted.switches)
        assert np.array_equal(compiled.writes, interpreted.writes)
        assert compiled.samples == interpreted.samples
