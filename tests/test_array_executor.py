"""Tests for repro.array.executor: replay and epoch algebra agree exactly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.array.architecture import default_architecture, PINATUBO
from repro.array.executor import accumulate_assignment, replay_assignment
from repro.array.state import ArrayState
from repro.gates.ops import GateOp
from repro.synth.program import LaneProgramBuilder
from repro.gates.library import NAND_LIBRARY


def _small_program(width=2):
    builder = LaneProgramBuilder(NAND_LIBRARY, name="small")
    a = builder.input_vector("a", width)
    b = builder.input_vector("b", width)
    x = builder.gate(GateOp.NAND, a[0], b[0])
    y = builder.gate(GateOp.NAND, a[1], b[1])
    z = builder.gate(GateOp.NAND, x, y)
    from repro.synth.bits import BitVector

    builder.read_out(BitVector([z]), tag="z")
    return builder.finish()


class TestReplay:
    def test_counts_gate_reads_and_writes(self):
        arch = default_architecture(8, 8)
        state = ArrayState(arch.geometry)
        program = _small_program()
        replay_assignment(arch, {0: program}, state)
        # 4 loads + 3 gates x 2 (preset + write) = 10 writes.
        assert state.total_writes == 10
        # 3 gates x 2 inputs + 1 read-out = 7 reads.
        assert state.total_reads == 7

    def test_presets_off_halves_gate_writes(self):
        arch = PINATUBO.resized(8, 8)
        state = ArrayState(arch.geometry)
        replay_assignment(arch, {0: _small_program()}, state)
        assert state.total_writes == 4 + 3

    def test_repetitions_scale_counts(self):
        arch = default_architecture(8, 8)
        state = ArrayState(arch.geometry)
        replay_assignment(arch, {0: _small_program()}, state, repetitions=5)
        assert state.total_writes == 50

    def test_program_too_tall_rejected(self):
        arch = default_architecture(4, 4)
        state = ArrayState(arch.geometry)
        with pytest.raises(ValueError, match="needs"):
            replay_assignment(arch, {0: _small_program(width=4)}, state)

    def test_geometry_mismatch_rejected(self):
        arch = default_architecture(8, 8)
        state = ArrayState(default_architecture(4, 4).geometry)
        with pytest.raises(ValueError, match="geometry"):
            replay_assignment(arch, {}, state)

    def test_bad_permutation_rejected(self):
        arch = default_architecture(8, 8)
        state = ArrayState(arch.geometry)
        with pytest.raises(ValueError, match="permutation"):
            replay_assignment(
                arch, {0: _small_program()}, state,
                within_map=np.zeros(8, dtype=int),
            )


class TestLaneWeightBincount:
    def test_bincount_equals_add_at_scatter(self):
        # The micro-optimization accumulate_assignment relies on: lane
        # membership is a 0/1 histogram, so bincount == np.add.at.
        rng = np.random.default_rng(9)
        lane_count = 64
        between = rng.permutation(lane_count)
        logical_lanes = rng.choice(lane_count, size=17, replace=False)
        repetitions = 2.5
        reference = np.zeros(lane_count)
        np.add.at(reference, between[logical_lanes], repetitions)
        bincounted = (
            np.bincount(between[logical_lanes], minlength=lane_count).astype(
                np.float64
            )
            * repetitions
        )
        assert np.array_equal(reference, bincounted)


class TestAccumulateMatchesReplay:
    @given(
        seed=st.integers(0, 1000),
        repetitions=st.integers(1, 4),
        presets=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_equivalence_under_random_maps(self, seed, repetitions, presets):
        # The epoch algebra must be bit-exact with instruction replay for
        # any permutations — the cornerstone of the fast simulator.
        base = default_architecture(16, 12)
        arch = base if presets else PINATUBO.resized(16, 12)
        rng = np.random.default_rng(seed)
        within = rng.permutation(arch.lane_size)
        between = rng.permutation(arch.lane_count)
        program_a = _small_program()
        program_b = _small_program(width=3)
        assignment = {0: program_a, 3: program_a, 7: program_b}

        replayed = ArrayState(arch.geometry)
        replay_assignment(
            arch, assignment, replayed, within, between, repetitions
        )
        accumulated = ArrayState(arch.geometry)
        accumulate_assignment(
            arch, assignment, accumulated, within, between, float(repetitions)
        )
        assert np.array_equal(replayed.write_counts, accumulated.write_counts)
        assert np.array_equal(replayed.read_counts, accumulated.read_counts)

    def test_write_profile_override(self):
        arch = default_architecture(8, 8)
        program = _small_program()
        state = ArrayState(arch.geometry)
        override = np.zeros(arch.lane_size)
        override[5] = 7.0
        accumulate_assignment(
            arch, {0: program}, state,
            write_profiles={id(program): override},
        )
        assert state.write_counts[5, 0] == 7.0
        # Reads still follow the program's own profile.
        assert state.total_reads == 7

    def test_fractional_repetitions(self):
        arch = default_architecture(8, 8)
        state = ArrayState(arch.geometry)
        accumulate_assignment(arch, {0: _small_program()}, state, repetitions=0.5)
        assert state.total_writes == pytest.approx(5.0)
