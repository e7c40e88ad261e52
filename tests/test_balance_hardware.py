"""Tests for repro.balance.hardware: the cycle algebra is bit-exact."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.simulator as simulator
from repro.array.architecture import default_architecture
from repro.balance.config import BalanceConfig, all_configurations
from repro.balance.hardware import (
    DOMAIN_CACHE_SIZE,
    HardwareRemapper,
    _cycles_of,
    _weighted_cycles,
    remapper_for,
)
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.gates.library import NAND_LIBRARY
from repro.gates.ops import GateOp
from repro.synth.bits import BitVector
from repro.synth.program import LaneProgramBuilder
from repro.verify import verify_mapping, verify_program
from repro.workloads.dotproduct import DotProduct
from repro.workloads.trace import TraceWorkload, write_gemv_trace


def _program(width=2):
    builder = LaneProgramBuilder(NAND_LIBRARY, name="probe")
    a = builder.input_vector("a", width)
    b = builder.input_vector("b", width)
    x = builder.gate(GateOp.NAND, a[0], b[0])
    y = builder.gate(GateOp.NAND, a[1], b[1])
    z = builder.gate(GateOp.NAND, x, y)
    builder.free_many((x, y))
    builder.read_out(BitVector([z]), tag="z")
    return builder.finish()


class TestCycles:
    def test_identity_has_singleton_cycles(self):
        cycles = _cycles_of(np.arange(4))
        assert len(cycles) == 4

    def test_rotation_is_one_cycle(self):
        tau = np.array([1, 2, 3, 0])
        cycles = _cycles_of(tau)
        assert len(cycles) == 1
        assert cycles[0].tolist() == [0, 1, 2, 3]

    def test_cycle_orbit_order(self):
        tau = np.array([2, 0, 1])  # 0 -> 2 -> 1 -> 0
        cycles = _cycles_of(tau)
        assert cycles[0].tolist() == [0, 2, 1]


def _filtered_oracle(tau, weighted):
    return [cycle for cycle in _cycles_of(tau) if weighted[cycle].any()]


def _assert_same_cycles(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype
        assert a.tolist() == b.tolist()


class TestWeightedCycles:
    """The moved-points decomposition against the full walk, filtered."""

    @given(
        n=st.integers(1, 80),
        moved=st.floats(0.0, 1.0),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_the_filtered_decomposition(self, n, moved, density, seed):
        rng = np.random.default_rng(seed)
        tau = np.arange(n)
        # Permute a random subset, leaving the rest fixed points.
        subset = np.flatnonzero(rng.random(n) < moved)
        tau[subset] = rng.permutation(subset)
        weighted = rng.random(n) < density
        _assert_same_cycles(
            _weighted_cycles(tau, weighted), _filtered_oracle(tau, weighted)
        )

    @pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
    def test_identity(self, density):
        n = 64
        weighted = np.random.default_rng(7).random(n) < density
        tau = np.arange(n)
        got = _weighted_cycles(tau, weighted)
        _assert_same_cycles(got, _filtered_oracle(tau, weighted))
        assert [c.tolist() for c in got] == [
            [i] for i in np.flatnonzero(weighted).tolist()
        ]

    def test_remapper_cycles_match_the_oracle(self):
        remapper = HardwareRemapper(_program(), 64, include_presets=True)
        tau, writes, reads = remapper._domain_trace()
        _assert_same_cycles(
            remapper._cycles,
            _filtered_oracle(tau, (writes != 0) | (reads != 0)),
        )


class TestAlgebraMatchesExplicit:
    @given(
        iterations=st.integers(1, 60),
        lane_size=st.integers(12, 24),
        presets=st.booleans(),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=30, deadline=None)
    def test_profile_equals_explicit_simulation(
        self, iterations, lane_size, presets, seed
    ):
        # The closed-form cycle algebra must match the stateful replay
        # exactly, for any horizon and any initial software mapping.
        program = _program()
        remapper = HardwareRemapper(program, lane_size, presets)
        within = np.random.default_rng(seed).permutation(lane_size)
        fast_w, fast_r = remapper.profile(iterations, within)
        slow_w, slow_r = remapper.simulate_explicit(iterations, within)
        assert np.allclose(fast_w, slow_w)
        assert np.allclose(fast_r, slow_r)

    def test_identity_map_default(self):
        program = _program()
        remapper = HardwareRemapper(program, 16, include_presets=True)
        fast = remapper.profile(10)
        slow = remapper.simulate_explicit(10)
        assert np.allclose(fast[0], slow[0])
        assert np.allclose(fast[1], slow[1])


class TestSemantics:
    def test_total_writes_preserved(self):
        # Renaming redirects writes; it never adds or removes them.
        program = _program()
        for presets in (False, True):
            remapper = HardwareRemapper(program, 16, presets)
            writes, _ = remapper.profile(25)
            per_iteration = program.write_counts(include_presets=presets).sum()
            assert writes.sum() == pytest.approx(25 * per_iteration)

    def test_total_reads_preserved(self):
        program = _program()
        remapper = HardwareRemapper(program, 16, False)
        _, reads = remapper.profile(13)
        assert reads.sum() == pytest.approx(13 * program.read_counts().sum())

    def test_renaming_spreads_writes(self):
        # Under static mapping the hottest cell takes every reuse; renaming
        # rotates the free bit so the peak must drop (Section 3.2's goal).
        builder = LaneProgramBuilder(NAND_LIBRARY)
        a = builder.input_vector("a", 2)
        hot = builder.gate(GateOp.NAND, a[0], a[1])
        for _ in range(20):  # hammer one logical bit
            builder.free(hot)
            hot = builder.gate(GateOp.NAND, a[0], a[1])
        program = builder.finish()
        lane_size = 32
        static_peak = program.write_counts(lane_size).max() * 50
        remapper = HardwareRemapper(program, lane_size, False)
        writes, _ = remapper.profile(50)
        # Renaming rotates the free bit through every written cell (plus
        # the spare): 4 cells share what one hot cell used to absorb.
        assert writes.max() < static_peak / 3
        assert np.count_nonzero(writes) == 4

    def test_preset_rides_on_same_cell(self):
        # A preset plus the gate write must land on one physical cell per
        # event: per-cell counts under presets are exactly double.
        program = _program()
        base = HardwareRemapper(program, 16, False)
        doubled = HardwareRemapper(program, 16, True)
        writes_base, _ = base.profile(7)
        writes_doubled, _ = doubled.profile(7)
        # Subtract the (unweighted) operand-load writes to compare gates.
        gate_only_base = writes_base.sum() - 7 * 4
        gate_only_doubled = writes_doubled.sum() - 7 * 4
        assert gate_only_doubled == pytest.approx(2 * gate_only_base)

    def test_footprint_must_leave_spare_bit(self):
        program = _program()
        with pytest.raises(ValueError, match="spare bit"):
            HardwareRemapper(program, program.footprint, False)

    def test_negative_iterations_rejected(self):
        remapper = HardwareRemapper(_program(), 16, False)
        with pytest.raises(ValueError):
            remapper.profile(-1)

    def test_zero_iterations_is_empty(self):
        remapper = HardwareRemapper(_program(), 16, False)
        writes, reads = remapper.profile(0)
        assert writes.sum() == 0
        assert reads.sum() == 0

    def test_profile_cache_consistency(self):
        remapper = HardwareRemapper(_program(), 16, True)
        first = remapper.profile(9)[0].copy()
        second = remapper.profile(9)[0]
        assert np.allclose(first, second)

    def test_writes_per_iteration_matches_profile_total(self):
        program = _program()
        for presets in (False, True):
            remapper = HardwareRemapper(program, 16, presets)
            writes, _ = remapper.profile(11)
            assert writes.sum() == pytest.approx(
                11 * remapper.writes_per_iteration
            )


def _hammer_program(reuses=20):
    """One logical bit rewritten many times -> one long renaming cycle."""
    builder = LaneProgramBuilder(NAND_LIBRARY)
    a = builder.input_vector("a", 2)
    hot = builder.gate(GateOp.NAND, a[0], a[1])
    for _ in range(reuses):
        builder.free(hot)
        hot = builder.gate(GateOp.NAND, a[0], a[1])
    return builder.finish()


class TestDomainCountRemainder:
    """Regression for the prefix-sum remainder pass in ``_domain_counts``.

    The optimized wrapped-backward-window computation must be bit-equal to
    the original one-roll-per-phase accumulation it replaced, on every
    horizon — in particular ones where ``K mod L`` is large relative to
    the cycle length.
    """

    @staticmethod
    def _roll_loop_counts(remapper, weights, iterations):
        # The pre-optimization implementation, kept as the oracle.
        n = remapper.lane_size
        counts = np.zeros(n)
        if iterations == 0 or not weights.any():
            return counts
        for cycle in remapper._cycles:
            length = cycle.size
            m = weights[cycle]
            if not m.any():
                continue
            full, remainder = divmod(iterations, length)
            cycle_counts = np.full(length, full * m.sum())
            for delta in range(remainder):
                cycle_counts += np.roll(m, delta)
            counts[cycle] += cycle_counts
        return counts

    @given(
        iterations=st.integers(0, 200),
        reuses=st.integers(5, 40),
        presets=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_equal_to_roll_loop_on_long_cycles(
        self, iterations, reuses, presets
    ):
        program = _hammer_program(reuses)
        remapper = HardwareRemapper(program, program.footprint + 8, presets)
        for weights in (remapper._write_weights, remapper._read_weights):
            fast = remapper._domain_counts(weights, iterations)
            slow = self._roll_loop_counts(remapper, weights, iterations)
            assert np.array_equal(fast, slow)

    def test_every_remainder_phase_of_one_cycle(self):
        # Walk the full phase range of the longest cycle so every
        # remainder value (including 0 and L-1) hits the windowed path.
        remapper = HardwareRemapper(_hammer_program(12), 24, False)
        longest = max(cycle.size for cycle in remapper._cycles)
        for iterations in range(2 * longest + 1):
            fast = remapper._domain_counts(remapper._write_weights, iterations)
            slow = self._roll_loop_counts(
                remapper, remapper._write_weights, iterations
            )
            assert np.array_equal(fast, slow)


class TestProfileMany:
    def test_rows_equal_per_epoch_profile(self):
        remapper = HardwareRemapper(_program(), 16, True)
        rng = np.random.default_rng(5)
        lengths = np.array([7, 3, 7, 0, 12, 3])
        maps = np.stack([rng.permutation(16) for _ in lengths])
        many_w, many_r = remapper.profile_many(lengths, maps)
        for e, length in enumerate(lengths):
            one_w, one_r = remapper.profile(int(length), maps[e])
            assert np.array_equal(many_w[e], one_w)
            assert np.array_equal(many_r[e], one_r)

    @pytest.mark.parametrize("lengths", [[7] * 5, [7] * 5 + [3], [3, 7, 7]])
    def test_compact_read_only_maps_in_runs(self, lengths):
        # The kernel's memoized maps: uint16 and read-only, scattered run
        # by run (one run broadcasts a single row to every epoch).
        remapper = HardwareRemapper(_program(), 16, True)
        rng = np.random.default_rng(8)
        maps = np.stack([rng.permutation(16) for _ in lengths])
        compact = maps.astype(np.uint16)
        compact.flags.writeable = False
        many_w, many_r = remapper.profile_many(np.array(lengths), compact)
        for e, length in enumerate(lengths):
            one_w, one_r = remapper.profile(length, maps[e])
            assert np.array_equal(many_w[e], one_w)
            assert np.array_equal(many_r[e], one_r)

    @pytest.mark.parametrize("lengths", [[7] * 5 + [3], [7, 3, 7, 0, 12, 3]])
    def test_gathered_rows_equal_scattered_rows(self, lengths):
        # Rows gathered through the maps' inverses, in runs or not,
        # into new arrays or the caller's, equal the scattered rows.
        from repro.balance.mapping import invert_rows

        remapper = HardwareRemapper(_program(), 16, True)
        rng = np.random.default_rng(3)
        lengths = np.array(lengths)
        maps = np.stack([rng.permutation(16) for _ in lengths])
        inverses = invert_rows(maps.astype(np.uint16))
        scattered = remapper.profile_many(lengths, maps)
        out = (np.full((len(lengths), 16), -1.0),
               np.full((len(lengths), 16), -1.0))
        for rows in (
            remapper.profile_many(lengths, inverse_maps=inverses),
            remapper.profile_many(lengths, inverse_maps=inverses, out=out),
        ):
            for ours, theirs in zip(rows, scattered):
                assert np.array_equal(ours, theirs)
        assert all(rows is given for rows, given in zip(
            remapper.profile_many(lengths, inverse_maps=inverses, out=out),
            out,
        ))

    def test_identity_maps_when_omitted(self):
        remapper = HardwareRemapper(_program(), 16, False)
        many_w, many_r = remapper.profile_many(np.array([5, 9]))
        for e, length in enumerate((5, 9)):
            one_w, one_r = remapper.profile(length)
            assert np.array_equal(many_w[e], one_w)
            assert np.array_equal(many_r[e], one_r)

    def test_empty_batch(self):
        remapper = HardwareRemapper(_program(), 16, False)
        many_w, many_r = remapper.profile_many(np.array([], dtype=np.int64))
        assert many_w.shape == (0, 16)
        assert many_r.shape == (0, 16)

    def test_batch_does_not_corrupt_domain_cache(self):
        # The scatter writes into fresh arrays; the cached domain vectors
        # behind them must stay pristine for later profile() calls.
        remapper = HardwareRemapper(_program(), 16, True)
        expected = remapper.profile(6)[0].copy()
        maps = np.stack([np.roll(np.arange(16), k) for k in (3, 5)])
        remapper.profile_many(np.array([6, 6]), maps)
        assert np.array_equal(remapper.profile(6)[0], expected)

    def test_writes_only_rows_equal_the_rows_with_reads(self):
        remapper = HardwareRemapper(_hammer_program(9), 24, True)
        rng = np.random.default_rng(2)
        lengths = np.array([4, 11, 4, 0, 30])
        maps = np.stack([rng.permutation(24) for _ in lengths])
        both_w, both_r = remapper.profile_many(lengths, maps)
        fresh = HardwareRemapper(_hammer_program(9), 24, True)
        only_w, only_r = fresh.profile_many(lengths, maps, reads=False)
        assert only_r is None
        assert np.array_equal(only_w, both_w)
        # A later call with reads fills them in from the same cache.
        assert np.array_equal(fresh.profile_many(lengths, maps)[1], both_r)

    def test_shape_validation(self):
        remapper = HardwareRemapper(_program(), 16, False)
        with pytest.raises(ValueError, match="one-dimensional"):
            remapper.profile_many(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="non-negative"):
            remapper.profile_many(np.array([3, -1]))
        with pytest.raises(ValueError, match="shape"):
            remapper.profile_many(
                np.array([3, 4]), np.zeros((2, 15), dtype=np.int64)
            )


class TestCompactState:
    """A memoized remapper keeps O(lane_size) arrays, not event lists."""

    @pytest.mark.parametrize("presets", [False, True])
    def test_weights_total_the_program_counts(self, presets):
        program = _hammer_program(7)
        remapper = HardwareRemapper(program, program.footprint + 4, presets)
        assert remapper._write_weights.shape == (remapper.lane_size,)
        assert remapper._write_weights.sum() == program.write_counts(
            include_presets=presets
        ).sum()
        assert remapper._read_weights.sum() == program.read_counts().sum()
        assert remapper.writes_per_iteration == remapper._write_weights.sum()

    def test_domain_cache_is_bounded(self):
        remapper = HardwareRemapper(_hammer_program(12), 24, False)
        horizons = range(1, DOMAIN_CACHE_SIZE + 6)
        for iterations in horizons:
            remapper.profile(iterations)
        assert len(remapper._domain_cache) == DOMAIN_CACHE_SIZE
        for iterations in horizons:  # evicted horizons recompute exactly
            fast = remapper.profile(iterations)
            slow = remapper.simulate_explicit(iterations)
            assert np.array_equal(fast[0], slow[0])
            assert np.array_equal(fast[1], slow[1])


class TestOneRemapperPerProgram:
    def test_memoized_on_the_program(self):
        program = _program()
        remapper = remapper_for(program, 16, True)
        assert remapper_for(program, 16, True) is remapper
        assert remapper_for(program, 16, False) is not remapper
        assert remapper_for(program, 17, True) is not remapper

    def test_hw_grid_builds_one_per_program_shared_with_verify(
        self, monkeypatch
    ):
        # A fresh mapping memo, so every program starts without remappers.
        monkeypatch.setattr(simulator, "_MAPPINGS", type(simulator._MAPPINGS)())
        built = []
        original = HardwareRemapper.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(HardwareRemapper, "__init__", counting)
        arch = default_architecture(64, 16)
        workload = DotProduct(n_elements=16, bits=8)
        sim = EnduranceSimulator(arch, SimulationSettings(seed=1))
        configs = [c for c in all_configurations(recompile_interval=7)
                   if c.hardware]
        assert len(configs) == 9
        for config in configs:
            sim.run(workload, config, 30)
        programs = simulator.mapping_for(workload, arch).distinct_programs()
        assert len(built) == len(programs) == 5
        run = sim._prepare(workload, configs[0], 30, sim.settings)
        for key, (program, _) in run.groups.items():
            shared = remapper_for(program, arch.lane_size, True)
            assert run.remappers[key] is shared
            assert shared in built
        assert len(built) == 5

    def test_non_hw_trace_grid_builds_no_remapper(self, monkeypatch,
                                                   tmp_path):
        # RPR006's remapper leg runs only for +Hw configurations, so a
        # trace grid without one (trace-sweep's StxSt, RaxRa, BsxBs)
        # builds no remapper in verification or simulation.
        monkeypatch.setattr(simulator, "_MAPPINGS", type(simulator._MAPPINGS)())
        built = []
        original = HardwareRemapper.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(HardwareRemapper, "__init__", counting)
        arch = default_architecture(256, 64)
        workload = TraceWorkload.from_file(
            write_gemv_trace(tmp_path / "g.trace", rows=4, cols=4)
        )
        sim = EnduranceSimulator(arch, SimulationSettings(seed=1))
        for label in ("StxSt", "RaxRa", "BsxBs"):
            sim.run(workload, BalanceConfig.from_label(label), 30)
        assert built == []
        sim.run(workload, BalanceConfig.from_label("BsxBs+Hw"), 30)
        programs = simulator.mapping_for(workload, arch).distinct_programs()
        assert len(built) == len(programs) > 0


class TestRemapperConservationCheck:
    """RPR006's remapper leg: run for +Hw, and still catching a broken
    remapper there."""

    @pytest.fixture
    def broken(self, monkeypatch):
        original = HardwareRemapper.profile

        def leaky(self, *args, **kwargs):
            writes, reads = original(self, *args, **kwargs)
            return writes * 2, reads

        monkeypatch.setattr(HardwareRemapper, "profile", leaky)

    def test_broken_remapper_caught_under_hw(self, broken):
        arch = default_architecture(64, 16)
        # A fresh build: programs carry no memoized findings or remappers.
        mapping = DotProduct(n_elements=4, bits=8).build(arch)
        plain = verify_mapping(mapping, BalanceConfig.from_label("RaxRa"))
        assert "RPR006" not in plain.codes()
        report = verify_mapping(mapping, BalanceConfig.from_label("RaxRa+Hw"))
        messages = [d.message for d in report if d.code == "RPR006"]
        assert len(messages) == len(mapping.distinct_programs())
        assert all("does not conserve writes" in m for m in messages)

    def test_verify_program_runs_the_leg_when_asked(self, broken):
        program = _program()
        assert "RPR006" not in verify_program(program, 16).codes()
        report = verify_program(program, 16, spare_bit=True)
        assert report.codes() == ["RPR006"]
