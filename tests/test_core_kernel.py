"""Tests for repro.core.kernel: the one kernel IS the epoch path.

The kernel's whole contract is bit-identity with the sequential
per-epoch oracle (``EnduranceSimulator._run_epoch_loop``) — same
permutation stream, same wear-aware decisions, same counters to the last
bit — however its chunks fall and whichever periodic axis it folds.
These tests pin that for the full strategy grid (including the stateful
``Wa`` path and hardware re-mapping), both pre-set accounting modes,
both lane orientations, recompile intervals with and without a
remainder epoch, and the random stream left after a run.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.kernel as kernel
from repro.array.architecture import CRAM_ROW, PINATUBO, default_architecture
from repro.array.state import ArrayState
from repro.balance.config import BalanceConfig, all_configurations
from repro.balance.software import (
    StrategyKind,
    make_permutation,
    make_permutations,
)
from repro.core.kernel import epoch_lengths, make_epoch_maps
from repro.core.scratch import POOL
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator, mapping_for
from repro.telemetry import Telemetry, set_telemetry
from repro.verify import VerificationError, verify_mapping
from repro.workloads.dotproduct import DotProduct
from repro.workloads.multiply import ParallelMultiplication


ARCH = default_architecture(64, 16)

#: Configs beyond the paper's 18: a periodic within axis against the
#: stateful between axis, and the bit-shift strategy on either side.
EXTRA_LABELS = ["StxWa", "BsxWa", "BsxWa+Hw", "B1xRa", "RaxB1+Hw", "B1xB1"]


def _pair(arch, config, *, seed=3, iterations=40, workload=None,
          track_reads=True):
    """``(production, oracle)`` results of one run."""
    workload = workload or ParallelMultiplication(bits=8)
    run_settings = SimulationSettings(seed=seed, track_reads=track_reads)
    sim = EnduranceSimulator(arch)
    production = sim.run(workload, config, iterations, settings=run_settings)
    oracle = sim._run_epoch_loop(
        workload, config, iterations, settings=run_settings
    )
    return production, oracle


def _assert_identical(a, b):
    assert np.array_equal(a.state.write_counts, b.state.write_counts)
    assert np.array_equal(a.state.read_counts, b.state.read_counts)
    assert a.epochs == b.epochs


def _workload_for(config):
    # Wa needs lanes with different loads to have anything to sort.
    if config.between is StrategyKind.WEAR_AWARE:
        return DotProduct(n_elements=16, bits=8)
    return ParallelMultiplication(bits=8)


class TestBitIdentity:
    @pytest.mark.parametrize(
        "config", all_configurations(recompile_interval=7),
        ids=lambda c: c.label,
    )
    def test_all_18_configurations(self, config):
        _assert_identical(*_pair(ARCH, config))

    @pytest.mark.parametrize("interval", [1, 7, 50])
    @pytest.mark.parametrize("chunk_size", [1, 13, 1024])
    def test_interval_chunk_grid(self, interval, chunk_size, monkeypatch):
        # Chunk boundaries cut through fold phases and remainder epochs;
        # none of it may show in the counters.
        monkeypatch.setattr(kernel, "CHUNK_EPOCHS", chunk_size)
        for label in ("RaxRa", "StxRa+Hw", "RaxBs"):
            config = BalanceConfig.from_label(
                label, recompile_interval=interval
            )
            _assert_identical(*_pair(ARCH, config, iterations=60))

    @given(
        within=st.sampled_from(
            [StrategyKind.STATIC, StrategyKind.RANDOM,
             StrategyKind.BYTE_SHIFT, StrategyKind.BIT_SHIFT]
        ),
        between=st.sampled_from(
            [StrategyKind.STATIC, StrategyKind.RANDOM,
             StrategyKind.BYTE_SHIFT, StrategyKind.BIT_SHIFT,
             StrategyKind.WEAR_AWARE]
        ),
        hardware=st.booleans(),
        presets=st.booleans(),
        interval=st.sampled_from([1, 7, 50]),
        chunk_size=st.sampled_from([1, 13, 1024]),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_samples_across_the_grid(
        self, within, between, hardware, presets, interval, chunk_size, seed
    ):
        arch = ARCH if presets else PINATUBO.resized(64, 16)
        config = BalanceConfig(
            within=within, between=between, hardware=hardware,
            recompile_interval=interval,
        )
        with mock.patch.object(kernel, "CHUNK_EPOCHS", chunk_size):
            production, oracle = _pair(
                arch, config, seed=seed, iterations=55,
                workload=_workload_for(config),
            )
        _assert_identical(production, oracle)

    def test_wear_aware_incremental_wear_multi_group(self, monkeypatch):
        # Wa is the stateful path: every epoch's assignment depends on all
        # earlier epochs' wear. A multi-role workload at interval 1
        # maximizes the chances for the incremental wear vector to drift
        # from the state-derived one — it must not, even with hardware
        # re-mapping layered on top or a periodic within axis folded.
        monkeypatch.setattr(kernel, "CHUNK_EPOCHS", 7)
        workload = DotProduct(n_elements=16, bits=8)
        for within in (StrategyKind.RANDOM, StrategyKind.BYTE_SHIFT):
            for hardware in (False, True):
                config = BalanceConfig(
                    within=within,
                    between=StrategyKind.WEAR_AWARE,
                    hardware=hardware,
                    recompile_interval=1,
                )
                _assert_identical(
                    *_pair(ARCH, config, iterations=30, workload=workload)
                )

    def test_row_parallel_orientation(self):
        arch = CRAM_ROW.resized(16, 64)
        for label in ("RaxBs+Hw", "BsxRa+Hw", "RaxRa"):
            config = BalanceConfig.from_label(label, recompile_interval=5)
            _assert_identical(*_pair(arch, config))

    def test_reads_untracked_parity(self):
        for label in ("RaxRa", "StxRa+Hw", "RaxSt"):
            config = BalanceConfig.from_label(label, recompile_interval=3)
            production, oracle = _pair(ARCH, config, track_reads=False)
            _assert_identical(production, oracle)
            assert production.state.total_reads == 0

    def test_chunking_never_changes_results(self, monkeypatch):
        config = BalanceConfig.from_label("BsxRa+Hw", recompile_interval=1)
        reference = _pair(ARCH, config, iterations=50)[0]
        for chunk_size in (1, 13, 1024):
            monkeypatch.setattr(kernel, "CHUNK_EPOCHS", chunk_size)
            other = _pair(ARCH, config, iterations=50)[0]
            _assert_identical(reference, other)


class TestOracleGrid:
    """Production against the per-epoch oracle, config by config."""

    @pytest.mark.parametrize(
        "config",
        all_configurations(recompile_interval=7)
        + [BalanceConfig.from_label(label, recompile_interval=7)
           for label in EXTRA_LABELS],
        ids=lambda c: c.label,
    )
    @pytest.mark.parametrize("presets", [True, False], ids=["presets",
                                                           "no-presets"])
    def test_every_config_both_preset_modes(self, config, presets):
        arch = ARCH if presets else PINATUBO.resized(64, 16)
        _assert_identical(
            *_pair(arch, config, iterations=61, workload=_workload_for(config))
        )

    @pytest.mark.parametrize("interval", [1, 7, 100])
    @pytest.mark.parametrize(
        "label", ["StxRa+Hw", "BsxRa", "RaxSt", "RaxBs+Hw", "BsxWa+Hw",
                  "BsxBs+Hw"],
    )
    def test_intervals_with_remainder_epochs(self, label, interval):
        config = BalanceConfig.from_label(label, recompile_interval=interval)
        workload = _workload_for(config)
        # At intervals 7 and 100 every horizon ends in a short epoch.
        for iterations in (3, 250, 1_007):
            _assert_identical(
                *_pair(ARCH, config, iterations=iterations, workload=workload)
            )

    @pytest.mark.parametrize("label", ["BsxBs", "BsxRa+Hw", "RaxBs"])
    def test_horizon_far_past_the_period(self, label):
        config = BalanceConfig.from_label(label, recompile_interval=1)
        _assert_identical(*_pair(ARCH, config, iterations=4_099))

    @pytest.mark.parametrize("track_reads", [True, False])
    @pytest.mark.parametrize("label", ["StxRa", "RaxBs+Hw", "B1xWa"])
    def test_both_orientations(self, label, track_reads):
        config = BalanceConfig.from_label(label, recompile_interval=3)
        workload = _workload_for(config)
        for arch in (ARCH, CRAM_ROW.resized(16, 64)):
            _assert_identical(
                *_pair(arch, config, iterations=50, workload=workload,
                       track_reads=track_reads)
            )

    @pytest.mark.parametrize(
        "label", ["RaxRa", "StxRa+Hw", "RaxBs", "BsxWa", "BsxBs"]
    )
    def test_random_stream_consumed_like_the_oracle(self, label):
        # The fold skips work, never draws: after a run, the next draw
        # from the run's stream is the same on both paths.
        config = BalanceConfig.from_label(label, recompile_interval=3)
        workload = _workload_for(config)
        sim = EnduranceSimulator(ARCH)
        run = sim._prepare(workload, config, 100, SimulationSettings(seed=5))
        kernel.run_batched_epochs(
            ARCH, config, run.state, run.rng, run.groups, 100,
            remappers=run.remappers, lane_loads=run.lane_loads,
        )
        oracle_rng = np.random.default_rng(5)
        sim._run_epoch_loop(workload, config, 100, rng=oracle_rng)
        assert run.rng.random() == oracle_rng.random()


#: Lane layouts on ``ARCH``'s 16 lanes, by which set is the largest.
#: ``(workload, GEMMs per chunk with reads untracked)``: every set but
#: the largest pays one.
LAYOUTS = {
    # One program on all 16 lanes: the reference GEMV is everything.
    "one-program": (ParallelMultiplication(bits=8), 0),
    # Five programs covering every lane; the 8-lane set is the reference.
    "covering": (DotProduct(n_elements=16, bits=8), 4),
    # One program on 12 lanes: it is the reference, and the 4 idle
    # lanes pay the signed GEMM of a zero profile.
    "idle-minority": (ParallelMultiplication(bits=8, lanes=12), 1),
    # Three programs on 4 lanes: the 12 idle lanes are the reference
    # (zero profile), so every program pays its own plain GEMM.
    "idle-majority": (DotProduct(n_elements=4, bits=8), 3),
}

ALL_CONFIGS = all_configurations(recompile_interval=7) + [
    BalanceConfig.from_label(label, recompile_interval=7)
    for label in EXTRA_LABELS
]


def _kernel_counters(arch, config, workload, track_reads=False,
                     iterations=61):
    """``(kernel.gemms, kernel.compact_gemms)`` of one production run."""
    fresh = Telemetry()
    previous = set_telemetry(fresh)
    try:
        EnduranceSimulator(arch).run(
            workload, config, iterations,
            settings=SimulationSettings(seed=3, track_reads=track_reads),
        )
    finally:
        set_telemetry(previous)
    return (fresh.counters["kernel.gemms"],
            fresh.counters["kernel.compact_gemms"])


class TestLaneLayouts:
    """Complement accumulation against the oracle, layout by layout."""

    @pytest.mark.parametrize("track_reads", [True, False],
                             ids=["reads", "writes-only"])
    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.label)
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_every_config(self, layout, config, track_reads):
        workload, _ = LAYOUTS[layout]
        _assert_identical(
            *_pair(ARCH, config, iterations=61, workload=workload,
                   track_reads=track_reads)
        )

    def test_row_parallel_layouts(self):
        arch = CRAM_ROW.resized(16, 64)
        for layout in sorted(LAYOUTS):
            for label in ("RaxRa", "BsxRa+Hw", "RaxBs", "StxSt"):
                config = BalanceConfig.from_label(label, recompile_interval=5)
                _assert_identical(
                    *_pair(arch, config, workload=LAYOUTS[layout][0])
                )

    @pytest.mark.parametrize("track_reads", [True, False])
    @pytest.mark.parametrize("label", ["RaxRa", "StxSt", "BsxRa+Hw",
                                       "RaxBs", "RaxWa"])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_gemm_count(self, layout, label, track_reads):
        # 61 iterations at interval 7 fit in one chunk, and every branch
        # (fast-forward, within fold, between fold, plain, Wa) pays one
        # GEMM per non-reference set, doubled when reads are tracked.
        workload, per_chunk = LAYOUTS[layout]
        config = BalanceConfig.from_label(label, recompile_interval=7)
        expected = per_chunk * (2 if track_reads else 1)
        assert _kernel_counters(
            ARCH, config, workload, track_reads
        )[0] == expected

    def test_fastforward_remainder_epoch_pays_its_own_gemm(self):
        # BsxBs at 61 iterations: the period block plus the short final
        # epoch, each one product per non-reference set.
        workload, per_chunk = LAYOUTS["covering"]
        config = BalanceConfig.from_label("BsxBs", recompile_interval=7)
        assert _kernel_counters(ARCH, config, workload)[0] == 2 * per_chunk

    @pytest.mark.parametrize("label", ["RaxRa", "StxRa+Hw", "BsxRa",
                                       "RaxWa", "RaxBs"])
    def test_between_maps_skipped_stream_unchanged(self, label):
        # With one program on every lane no between map is built, but
        # its uniforms are still drawn: the stream left after the run is
        # the oracle's.
        workload = LAYOUTS["one-program"][0]
        config = BalanceConfig.from_label(label, recompile_interval=3)
        sim = EnduranceSimulator(ARCH)
        run = sim._prepare(workload, config, 100, SimulationSettings(seed=5))
        with mock.patch.object(
            kernel, "_epoch_maps", wraps=kernel._epoch_maps
        ) as maps:
            kernel.run_batched_epochs(
                ARCH, config, run.state, run.rng, run.groups, 100,
                remappers=run.remappers, lane_loads=run.lane_loads,
            )
        assert maps.call_count >= 1
        for call in maps.call_args_list:
            assert call.kwargs["with_between"] is False
        # The kernel kept every lane's counts as the state's column and
        # never wrote the pooled plane; finishing copies them out before
        # the oracle's set-up zeroes the plane again.
        assert not run.state.write_counts.any()
        kernel_counts = run.state.finish(
            ARCH.orientation, track_reads=False
        ).write_counts
        oracle_rng = np.random.default_rng(5)
        oracle = sim._run_epoch_loop(workload, config, 100, rng=oracle_rng)
        assert run.rng.random() == oracle_rng.random()
        assert np.array_equal(kernel_counts, oracle.state.write_counts)

    @pytest.mark.parametrize("track_reads", [True, False])
    @pytest.mark.parametrize("label", ["StxSt", "StxSt+Hw"])
    def test_edge_of_rpr019_horizon(self, label, track_reads):
        # The longest horizon RPR019 accepts on a multi-program layout:
        # the signed GEMMs' partial sums stay below 2^53, so production
        # still equals the oracle bit for bit and conserves every write.
        workload = LAYOUTS["covering"][0]
        config = BalanceConfig.from_label(label)
        mapping = mapping_for(workload, ARCH)
        rate = mapping.writes_per_iteration
        if track_reads:
            rate = max(rate, mapping.reads_per_iteration)
        horizon = -(-(2**53) // int(rate)) - 1
        for iterations, ok in ((horizon, True), (horizon + 1, False)):
            report = verify_mapping(
                mapping, config, functional=False, iterations=iterations,
                track_reads=track_reads,
            )
            assert ("RPR019" not in report.codes()) is ok
        production, oracle = _pair(ARCH, config, iterations=horizon,
                                   workload=workload, track_reads=track_reads)
        _assert_identical(production, oracle)
        assert production.state.write_counts.sum() == (
            horizon * mapping.writes_per_iteration
        )
        assert production.state.write_counts.max() < 2**53
        with pytest.raises(VerificationError):
            _pair(ARCH, config, iterations=horizon + 1, workload=workload,
                  track_reads=track_reads)


#: 256 lanes: the compact cutoff is 256 // 16 = 16 touched lanes.
WIDE = default_architecture(128, 256)

#: Lane layouts on ``WIDE`` on either side of the compact cutoff, with
#: ``(GEMMs, lane-compact GEMMs)`` of one ``StxSt`` run, reads untracked.
#: The idle lanes are the reference set, so every program pays a GEMM.
COMPACT_LAYOUTS = {
    # A trace-like layout: three programs on 4 of 256 lanes.
    "few-lanes": (DotProduct(n_elements=4, bits=8), (3, 3)),
    # One program on 40 lanes: over the cutoff, the full-width GEMM.
    "wide-set": (ParallelMultiplication(bits=8, lanes=40), (1, 0)),
    # Sets of 1, 1, 2, 4, 8, 16 and 32 lanes: only the 32-lane set is
    # over the cutoff.
    "mixed": (DotProduct(n_elements=64, bits=8), (7, 6)),
}


def _state(arch, seed):
    """A state with nonzero counters, so an add that misses or doubles
    a lane shows."""
    state = ArrayState(arch.geometry)
    rng = np.random.default_rng(seed)
    state.write_counts[:] = rng.integers(0, 50, state.write_counts.shape)
    state.read_counts[:] = rng.integers(0, 50, state.read_counts.shape)
    return state


class TestLaneCompact:
    """GEMMs over only the lanes a set touches, against the full width
    and against the oracle."""

    @given(
        row_parallel=st.booleans(),
        kind=st.sampled_from(["write", "read"]),
        epochs=st.integers(1, 6),
        lanes=st.lists(st.integers(0, 15), min_size=1, max_size=16,
                       unique=True),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_lane_subset_equals_the_dense_form(
        self, row_parallel, kind, epochs, lanes, seed
    ):
        arch = CRAM_ROW.resized(16, 24) if row_parallel else ARCH.resized(24, 16)
        orientation = arch.orientation
        rng = np.random.default_rng(seed)
        profiles = rng.integers(-9, 10, (epochs, arch.lane_size)).astype(
            np.float64
        )
        lanes = np.array(lanes)
        compact = rng.integers(0, 7, (epochs, lanes.size)).astype(np.float64)
        dense = np.zeros((epochs, arch.lane_count))
        dense[:, lanes] = compact
        a, b = _state(arch, seed), _state(arch, seed)
        a.add_lane_profiles(profiles, compact, orientation, kind, lanes)
        b.add_lane_profiles(profiles, dense, orientation, kind)
        assert np.array_equal(a.write_counts, b.write_counts)
        assert np.array_equal(a.read_counts, b.read_counts)

    def test_lane_subset_width_is_checked(self):
        state = ArrayState(ARCH.geometry)
        with pytest.raises(ValueError, match="len\\(lanes\\)"):
            state.add_lane_profiles(
                np.ones((2, ARCH.lane_size)), np.ones((2, 3)),
                ARCH.orientation, "write", np.array([0, 5]),
            )

    @pytest.mark.parametrize("track_reads", [True, False],
                             ids=["reads", "writes-only"])
    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.label)
    @pytest.mark.parametrize("layout", sorted(COMPACT_LAYOUTS))
    def test_every_config_on_both_sides_of_the_cutoff(
        self, layout, config, track_reads
    ):
        workload, _ = COMPACT_LAYOUTS[layout]
        _assert_identical(
            *_pair(WIDE, config, iterations=61, workload=workload,
                   track_reads=track_reads)
        )

    def test_row_parallel_layouts(self):
        arch = CRAM_ROW.resized(256, 128)
        for layout in sorted(COMPACT_LAYOUTS):
            for label in ("StxSt", "RaxBs", "BsxRa+Hw", "StxWa"):
                config = BalanceConfig.from_label(label, recompile_interval=5)
                _assert_identical(
                    *_pair(arch, config, iterations=61,
                           workload=COMPACT_LAYOUTS[layout][0])
                )

    @pytest.mark.parametrize("layout", sorted(COMPACT_LAYOUTS))
    def test_compact_counter_pins_the_branch(self, layout):
        workload, expected = COMPACT_LAYOUTS[layout]
        config = BalanceConfig.from_label("StxSt")
        assert _kernel_counters(WIDE, config, workload) == expected
        # Tracked reads double both; kernel.gemms still counts every GEMM.
        assert _kernel_counters(WIDE, config, workload, True) == tuple(
            2 * count for count in expected
        )

    def test_touched_lanes_decide_not_the_set_size(self):
        # Under Bs between maps a one-lane set moves 8 lanes an epoch,
        # over a 32-epoch period on 256 lanes: a 9-epoch block touches 9
        # lanes and stays compact, a full period touches 32.
        workload = ParallelMultiplication(bits=8, lanes=1)
        config = BalanceConfig.from_label("StxBs", recompile_interval=7)
        assert _kernel_counters(
            WIDE, config, workload, iterations=7 * 9
        ) == (1, 1)
        assert _kernel_counters(
            WIDE, config, workload, iterations=7 * 40
        ) == (1, 0)

    def test_compact_runs_leave_the_full_width_slots_alone(self):
        POOL.clear()
        for label in ("StxSt", "RaxSt", "StxBs+Hw"):
            _kernel_counters(
                WIDE, BalanceConfig.from_label(label, recompile_interval=7),
                COMPACT_LAYOUTS["few-lanes"][0], track_reads=True,
            )
        names = {key[0] for key in POOL._slots}
        assert "kernel.lane_weights" not in names
        assert "state.scratch" not in names

    def test_pool_stays_bounded_as_touched_lanes_vary(self):
        # Compact weights are not pooled per width: once a grid has run
        # both branches, sets touching other numbers of lanes add no
        # slot, and every pooled row spans a lane or the lane count.
        first = [ParallelMultiplication(bits=8, lanes=lanes)
                 for lanes in (1, 2, 3)]
        later = [ParallelMultiplication(bits=8, lanes=lanes)
                 for lanes in (5, 8, 13, 16)]
        later.append(DotProduct(n_elements=4, bits=8))
        for label in ("StxSt", "RaxSt", "StxRa", "RaxBs"):
            config = BalanceConfig.from_label(label, recompile_interval=7)
            POOL.clear()
            for workload in first:
                _kernel_counters(WIDE, config, workload, track_reads=True)
            size = len(POOL)
            for workload in later:
                _kernel_counters(WIDE, config, workload, track_reads=True)
            assert len(POOL) == size, label
            widths = {key[1][-1] for key in POOL._slots}
            assert widths <= {WIDE.lane_size, WIDE.lane_count}, label


#: Column-parallel arrays whose lane sizes give the memo's uint8 and
#: uint16 rank blocks.
GATHER_ARCHS = {
    "uint8": default_architecture(64, 16),
    "uint16": default_architecture(300, 16),
}


class TestGatheredProfileRows:
    """Profile rows gathered through a memo block's inverse equal the
    rows scattered through its maps, and the per-epoch oracle."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        kernel._MAPS_MEMO.clear()
        yield
        kernel._MAPS_MEMO.clear()

    @pytest.mark.parametrize("hardware", [False, True], ids=["St", "Hw"])
    @pytest.mark.parametrize("dtype", sorted(GATHER_ARCHS))
    def test_rows_equal_the_scatter(self, dtype, hardware):
        arch = GATHER_ARCHS[dtype]
        config = BalanceConfig(
            within=StrategyKind.RANDOM, hardware=hardware,
            recompile_interval=7,
        )
        sim = EnduranceSimulator(arch)
        run = sim._prepare(
            ParallelMultiplication(bits=8), config, 7 * 9 + 3, sim.settings
        )
        acc = kernel._Accumulator(
            arch, config, run.state, run.groups, run.remappers, True,
            np.zeros(arch.lane_count, dtype=bool),
        )
        # Nine whole epochs and a short final one.
        lengths = np.array([7] * 9 + [3])
        maps = kernel._memo_ranked(
            np.random.default_rng(4), lengths.size, (arch.lane_size,), (True,)
        )[0]
        assert maps.dtype == np.dtype(dtype)
        # The entry holds no inverse until the block serves as within maps.
        (_, _, inverses), = kernel._MAPS_MEMO.values()
        assert inverses == [None]
        for key, (program, _) in run.groups.items():
            gathered = [
                None if rows is None else rows.copy()
                for rows in acc.profiles(key, maps, lengths, "test.gather")
            ]
            scattered = acc.profiles(
                key, np.array(maps), lengths, "test.scatter"
            )
            inverse = kernel._memo_inverse(maps)
            assert inverse is not None and inverse.dtype == maps.dtype
            assert not inverse.flags.writeable
            for ours, theirs in zip(gathered, scattered):
                assert np.array_equal(ours, theirs)
            # Each row held to its epoch's own profile.
            for e, length in enumerate(lengths.tolist()):
                if hardware:
                    writes, reads = run.remappers[key].profile(
                        length, maps[e]
                    )
                else:
                    writes = np.zeros(arch.lane_size)
                    reads = np.zeros(arch.lane_size)
                    writes[maps[e]] = program.write_profile(
                        arch.lane_size, include_presets=arch.presets_output
                    )
                    reads[maps[e]] = program.read_profile(arch.lane_size)
                assert np.array_equal(gathered[0][e], writes)
                assert np.array_equal(gathered[1][e], reads)

    @pytest.mark.parametrize(
        "label", ["RaxSt", "RaxRa", "RaxBs", "RaxSt+Hw", "RaxRa+Hw",
                  "RaxBs+Hw"],
    )
    @pytest.mark.parametrize("dtype", sorted(GATHER_ARCHS))
    def test_runs_equal_the_oracle(self, dtype, label):
        arch = GATHER_ARCHS[dtype]
        config = BalanceConfig.from_label(label, recompile_interval=7)
        for workload in (ParallelMultiplication(bits=8),
                         DotProduct(n_elements=16, bits=8)):
            _assert_identical(*_pair(
                arch, config, iterations=7 * 9 + 3, workload=workload
            ))
        inverses = [
            inverse
            for _, _, entry_inverses in kernel._MAPS_MEMO.values()
            for inverse in entry_inverses
            if inverse is not None
        ]
        assert inverses and all(
            inverse.dtype == np.dtype(dtype) for inverse in inverses
        )

    @pytest.mark.parametrize("order", [("RaxSt", "StxRa"),
                                       ("StxRa", "RaxSt")])
    def test_one_block_as_within_and_between_maps(self, order):
        # On a square array one memo entry serves RaxSt's within maps
        # and StxRa's between maps; its inverse serves only the first.
        arch = default_architecture(64, 64)
        for _ in range(2):
            for label in order:
                config = BalanceConfig.from_label(label, recompile_interval=7)
                _assert_identical(*_pair(arch, config, iterations=7 * 9 + 3))
        assert len(kernel._MAPS_MEMO) == 1
        (_, segments, inverses), = kernel._MAPS_MEMO.values()
        assert inverses[0] is not None
        rows = np.arange(len(segments[0]))[:, None]
        assert np.array_equal(
            segments[0][rows, inverses[0]],
            np.broadcast_to(np.arange(64), segments[0].shape),
        )


class TestBatchedPermutations:
    @pytest.mark.parametrize(
        "kind",
        [StrategyKind.STATIC, StrategyKind.BYTE_SHIFT, StrategyKind.BIT_SHIFT],
    )
    def test_deterministic_rows_match_per_epoch_function(self, kind):
        batch = make_permutations(kind, 48, 6, epoch_start=2)
        for row, epoch in enumerate(range(2, 8)):
            assert np.array_equal(batch[row], make_permutation(kind, 48, epoch))

    def test_random_rows_are_permutations(self):
        batch = make_permutations(
            StrategyKind.RANDOM, 32, 10, rng=np.random.default_rng(0)
        )
        expected = np.arange(32)
        for row in batch:
            assert np.array_equal(np.sort(row), expected)

    def test_random_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            make_permutations(StrategyKind.RANDOM, 8, 2)

    def test_wear_aware_rejected(self):
        with pytest.raises(ValueError, match="stateful"):
            make_permutations(StrategyKind.WEAR_AWARE, 8, 2)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            make_permutations(StrategyKind.STATIC, 8, -1)

    def test_chunked_draws_equal_per_epoch_draws(self):
        # The contract that keeps chunk boundaries out of the counters: one
        # (E, k) block consumes the stream exactly like E per-epoch draws.
        whole_w, whole_b = make_epoch_maps(
            StrategyKind.RANDOM, StrategyKind.RANDOM, 24, 8, 5,
            np.random.default_rng(42),
        )
        rng = np.random.default_rng(42)
        for epoch in range(5):
            one_w, one_b = make_epoch_maps(
                StrategyKind.RANDOM, StrategyKind.RANDOM, 24, 8, 1, rng,
                epoch_start=epoch,
            )
            assert np.array_equal(whole_w[epoch], one_w[0])
            assert np.array_equal(whole_b[epoch], one_b[0])

    def test_skipped_between_maps_draw_the_same_block(self):
        # with_between=False builds no between map but consumes the
        # stream exactly like a call that builds one.
        kept_rng, skipped_rng = (np.random.default_rng(8) for _ in "ab")
        kept_w, kept_b = make_epoch_maps(
            StrategyKind.RANDOM, StrategyKind.RANDOM, 24, 8, 5, kept_rng,
        )
        skipped_w, skipped_b = make_epoch_maps(
            StrategyKind.RANDOM, StrategyKind.RANDOM, 24, 8, 5, skipped_rng,
            with_between=False,
        )
        assert kept_b is not None and skipped_b is None
        assert np.array_equal(kept_w, skipped_w)
        assert kept_rng.random() == skipped_rng.random()

    def test_wear_aware_between_maps_are_none(self):
        _, between = make_epoch_maps(
            StrategyKind.RANDOM, StrategyKind.WEAR_AWARE, 16, 4, 3,
            np.random.default_rng(0),
        )
        assert between is None


class TestEpochLengths:
    def test_static_is_one_epoch(self):
        lengths = epoch_lengths(BalanceConfig(), 1000)
        assert lengths.tolist() == [1000]

    def test_interval_splits_with_remainder(self):
        config = BalanceConfig.from_label("RaxRa", recompile_interval=100)
        lengths = epoch_lengths(config, 250)
        assert lengths.tolist() == [100, 100, 50]

    def test_exact_multiple_has_no_remainder_epoch(self):
        config = BalanceConfig.from_label("RaxRa", recompile_interval=50)
        assert epoch_lengths(config, 100).tolist() == [50, 50]

    def test_non_positive_iterations_rejected(self):
        with pytest.raises(ValueError):
            epoch_lengths(BalanceConfig(), 0)


class TestKernelKnob:
    """The kernel knobs are gone; passing one is a ``TypeError``."""

    def test_unknown_kernel_rejected_at_construction(self):
        with pytest.raises(TypeError, match="kernel"):
            EnduranceSimulator(ARCH, kernel="epoch")

    def test_unknown_kernel_rejected_at_run(self):
        sim = EnduranceSimulator(ARCH)
        with pytest.raises(TypeError, match="kernel"):
            sim.run(
                ParallelMultiplication(bits=8), BalanceConfig(),
                iterations=5, kernel="batched",
            )

    def test_non_positive_chunk_rejected(self):
        with pytest.raises(TypeError, match="chunk_size"):
            EnduranceSimulator(ARCH, chunk_size=0)

    def test_run_override_beats_simulator_default(self):
        sim = EnduranceSimulator(ARCH, SimulationSettings(seed=1))
        config = BalanceConfig.from_label("RaxRa", recompile_interval=4)
        a = EnduranceSimulator(ARCH, SimulationSettings(seed=9)).run(
            ParallelMultiplication(bits=8), config, iterations=20
        )
        b = sim.run(
            ParallelMultiplication(bits=8), config, iterations=20,
            settings=SimulationSettings(seed=9),
        )
        _assert_identical(a, b)
