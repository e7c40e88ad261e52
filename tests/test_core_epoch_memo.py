"""Tests for the kernel's ranked-block memo (``repro.core.kernel``).

Every run seeds its stream from the same settings seed, so a grid's
``Ra`` cells draw the same uniform blocks; the kernel ranks each block
once per process and replays it. The memo's oracle is a fresh draw:
:func:`make_permutations` and :func:`make_epoch_maps` on a fresh
``default_rng``, which never read the memo. These tests pin hit maps and
miss maps to that oracle, the stream left after a hit to the one a draw
leaves, the entries to read-only compact arrays under a bounded LRU,
and the kernel's results in grid order to the per-epoch loop.
"""

import numpy as np
import pytest

import repro.core.kernel as kernel
from repro.array.architecture import default_architecture
from repro.balance.config import BalanceConfig, all_configurations
from repro.balance.software import StrategyKind, make_permutations
from repro.core.kernel import MAPS_MEMO_SIZE, make_epoch_maps
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.core.sweep import configuration_grid
from repro.telemetry import Telemetry, set_telemetry
from repro.workloads.dotproduct import DotProduct
from repro.workloads.multiply import ParallelMultiplication
from repro.workloads.registry import get_workload

RANDOM = StrategyKind.RANDOM
STATIC = StrategyKind.STATIC
LANE_SIZE, LANE_COUNT, COUNT, SEED = 24, 16, 9, 11


@pytest.fixture(autouse=True)
def empty_memo():
    kernel._MAPS_MEMO.clear()
    yield
    kernel._MAPS_MEMO.clear()


def _memo_maps(within, between, rng, with_between=True,
               lane_size=LANE_SIZE, lane_count=LANE_COUNT):
    """The kernel's chunk maps, ranked through the memo."""
    return kernel._epoch_maps(
        within, between, lane_size, lane_count, COUNT, rng,
        epoch_start=0, with_between=with_between, rank=kernel._memo_ranked,
    )


def _counted(call):
    """``(call(), memo hits, memo misses)`` under a fresh registry."""
    fresh = Telemetry()
    previous = set_telemetry(fresh)
    try:
        value = call()
    finally:
        set_telemetry(previous)
    return (
        value,
        fresh.counters.get("kernel.maps_memo_hits", 0),
        fresh.counters.get("kernel.maps_memo_misses", 0),
    )


def _oracle(within, between, with_between=True):
    """``(within maps, between maps, next uniform)`` of a fresh draw."""
    rng = np.random.default_rng(SEED)
    maps = make_epoch_maps(
        within, between, LANE_SIZE, LANE_COUNT, COUNT, rng,
        with_between=with_between,
    )
    return (*maps, rng.random())


CASES = {
    "RaxSt": (RANDOM, STATIC, True),
    "StxRa": (STATIC, RANDOM, True),
    "RaxRa": (RANDOM, RANDOM, True),
    "RaxRa-within-only": (RANDOM, RANDOM, False),
}


class TestHitsEqualTheOracle:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_hit_equals_miss_equals_fresh_draw(self, case):
        within, between, with_between = CASES[case]
        oracle = _oracle(within, between, with_between)
        outcomes = []
        for expected in ((0, 1), (1, 0)):  # a miss, then a hit
            rng = np.random.default_rng(SEED)
            maps, hits, misses = _counted(
                lambda: _memo_maps(within, between, rng, with_between)
            )
            assert (hits, misses) == expected
            outcomes.append((*maps, rng.random()))
        for within_maps, between_maps, after in outcomes:
            assert np.array_equal(within_maps, oracle[0])
            if oracle[1] is None:
                assert between_maps is None
            else:
                assert np.array_equal(between_maps, oracle[1])
            # The stream moves on exactly as after a draw.
            assert after == oracle[2]

    def test_single_sides_equal_make_permutations(self):
        within, _ = _memo_maps(RANDOM, STATIC, np.random.default_rng(SEED))
        _, between = _memo_maps(STATIC, RANDOM, np.random.default_rng(SEED))
        assert np.array_equal(within, make_permutations(
            RANDOM, LANE_SIZE, COUNT, np.random.default_rng(SEED)
        ))
        assert np.array_equal(between, make_permutations(
            RANDOM, LANE_COUNT, COUNT, np.random.default_rng(SEED)
        ))

    def test_missing_segment_is_redrawn_from_the_start_state(self):
        # mult's RaxRa builds no between map; conv's, at the same state,
        # needs one: the entry gets it by drawing the block again.
        _memo_maps(RANDOM, RANDOM, np.random.default_rng(SEED), False)
        rng = np.random.default_rng(SEED)
        maps, hits, misses = _counted(
            lambda: _memo_maps(RANDOM, RANDOM, rng)
        )
        assert (hits, misses) == (0, 1)
        oracle = _oracle(RANDOM, RANDOM)
        assert np.array_equal(maps[0], oracle[0])
        assert np.array_equal(maps[1], oracle[1])
        assert rng.random() == oracle[2]
        assert len(kernel._MAPS_MEMO) == 1
        # Now whole, the entry serves both sides as a hit.
        _, hits, misses = _counted(lambda: _memo_maps(
            RANDOM, RANDOM, np.random.default_rng(SEED)
        ))
        assert (hits, misses) == (1, 0)

    def test_one_entry_serves_within_and_between_on_a_square_array(self):
        square = dict(lane_size=LANE_COUNT, lane_count=LANE_COUNT)
        within, _ = _memo_maps(
            RANDOM, STATIC, np.random.default_rng(SEED), **square
        )
        (_, between), hits, misses = _counted(lambda: _memo_maps(
            STATIC, RANDOM, np.random.default_rng(SEED), **square
        ))
        assert (hits, misses) == (1, 0)
        assert between is within
        assert len(kernel._MAPS_MEMO) == 1

    def test_buffered_uint32_state_is_part_of_the_key(self):
        # Generators at one PCG64 state that differ only in the buffered
        # 32-bit half (its flag, then its value): distinct entries, each
        # left where a draw leaves it.
        def generator(has_uint32, uinteger):
            rng = np.random.default_rng(SEED)
            state = rng.bit_generator.state
            state["has_uint32"], state["uinteger"] = has_uint32, uinteger
            rng.bit_generator.state = state
            return rng

        buffers = [(0, 0), (1, 0), (1, 12345)]
        ends = []
        for buffer in buffers:
            rng = generator(*buffer)
            _memo_maps(RANDOM, STATIC, rng)
            ends.append(rng.bit_generator.state)
            # A double draw leaves the buffered half alone.
            assert (ends[-1]["has_uint32"], ends[-1]["uinteger"]) == buffer
        assert len(kernel._MAPS_MEMO) == len(buffers)
        for buffer, end in zip(buffers, ends):
            replay = generator(*buffer)
            _, hits, _ = _counted(lambda: _memo_maps(RANDOM, STATIC, replay))
            assert hits == 1
            assert replay.bit_generator.state == end


class TestEntries:
    def test_maps_are_read_only_and_compact(self):
        within, between = _memo_maps(
            RANDOM, RANDOM, np.random.default_rng(SEED)
        )
        for maps in (within, between):
            assert maps.dtype == np.uint8
            assert not maps.flags.writeable
            with pytest.raises(ValueError):
                maps[0, 0] = 0
        wide, _ = kernel._epoch_maps(
            RANDOM, STATIC, 1024, 4, 2, np.random.default_rng(SEED),
            epoch_start=0, with_between=True, rank=kernel._memo_ranked,
        )
        assert wide.dtype == np.uint16

    def test_other_bit_generators_bypass_the_memo(self):
        def mt():
            return np.random.Generator(np.random.MT19937(SEED))

        expected = make_epoch_maps(
            RANDOM, RANDOM, LANE_SIZE, LANE_COUNT, COUNT, mt()
        )
        for _ in range(2):
            maps, hits, misses = _counted(
                lambda: _memo_maps(RANDOM, RANDOM, mt())
            )
            assert (hits, misses) == (0, 0)
            assert np.array_equal(maps[0], expected[0])
            assert np.array_equal(maps[1], expected[1])
        assert not kernel._MAPS_MEMO

    def test_oracle_never_reads_the_memo(self):
        _memo_maps(RANDOM, RANDOM, np.random.default_rng(SEED))
        (_, hits, misses) = _counted(lambda: make_epoch_maps(
            RANDOM, RANDOM, LANE_SIZE, LANE_COUNT, COUNT,
            np.random.default_rng(SEED),
        ))
        assert (hits, misses) == (0, 0)

    def test_lru_bound(self):
        for seed in range(MAPS_MEMO_SIZE + 3):
            _memo_maps(RANDOM, STATIC, np.random.default_rng(seed))
            assert len(kernel._MAPS_MEMO) <= MAPS_MEMO_SIZE
        assert len(kernel._MAPS_MEMO) == MAPS_MEMO_SIZE
        # The least recently used seeds were dropped; the newest stays.
        _, hits, misses = _counted(lambda: _memo_maps(
            RANDOM, STATIC, np.random.default_rng(0)
        ))
        assert (hits, misses) == (0, 1)
        _, hits, misses = _counted(lambda: _memo_maps(
            RANDOM, STATIC, np.random.default_rng(MAPS_MEMO_SIZE + 2)
        ))
        assert (hits, misses) == (1, 0)


ARCH = default_architecture(64, 16)


class TestGridOrder:
    def test_layouts_in_turn_equal_the_per_epoch_loop(self):
        # One process, one seed: the one-program layout fills entries
        # without between maps, the covering layout then hits them and
        # needs its between maps too.
        settings = SimulationSettings(seed=4)
        sim = EnduranceSimulator(ARCH, settings=settings)
        labels = ("RaxRa", "RaxSt", "StxRa", "RaxRa+Hw", "BsxRa")
        layouts = (ParallelMultiplication(bits=8),
                   DotProduct(n_elements=16, bits=8))
        for workload in layouts:
            for label in labels:
                config = BalanceConfig.from_label(label, recompile_interval=7)
                production = sim.run(workload, config, 61)
                oracle = sim._run_epoch_loop(workload, config, 61)
                for name in ("write_counts", "read_counts"):
                    assert np.array_equal(
                        getattr(production.state, name),
                        getattr(oracle.state, name),
                    ), (workload.name, label, name)
        assert kernel._MAPS_MEMO


class TestLongRuns:
    def test_a_long_run_does_not_evict_the_blocks_it_replays(self):
        # 9,216 epochs are 9 chunks, more than the memo holds. Only
        # the first MAPS_MEMO_RUN_CHUNKS insert, so a long mult run
        # leaves them for a dot run on the same seed, and the first dot
        # run (which adds the between maps) leaves them for the second.
        sim = EnduranceSimulator(ARCH, settings=SimulationSettings(seed=3))
        config = BalanceConfig.from_label("RaxRa", recompile_interval=1)
        dot = DotProduct(n_elements=16, bits=4)
        chunks = 9_216 // kernel.CHUNK_EPOCHS
        assert chunks > MAPS_MEMO_SIZE
        counts = [
            _counted(lambda: sim.run(workload, config, 9_216))
            for workload in (ParallelMultiplication(bits=8), dot, dot)
        ]
        assert [(hits, misses) for _, hits, misses in counts] == [
            (0, chunks),
            (0, chunks),
            (kernel.MAPS_MEMO_RUN_CHUNKS,
             chunks - kernel.MAPS_MEMO_RUN_CHUNKS),
        ]
        assert len(kernel._MAPS_MEMO) == kernel.MAPS_MEMO_RUN_CHUNKS
        oracle = sim._run_epoch_loop(dot, config, 9_216)
        for result, _, _ in counts[1:]:
            for name in ("write_counts", "read_counts"):
                assert np.array_equal(
                    getattr(result.state, name), getattr(oracle.state, name)
                )


def test_paper_grid_draws_each_block_once():
    # The 18 paper configurations of mult and conv at the paper's
    # horizon share three ranked segments in two blocks: a cold pass
    # counts 3 misses and 17 hits.
    architecture = default_architecture()
    sim = EnduranceSimulator(architecture, settings=SimulationSettings(seed=1))

    def grids():
        for name in ("mult", "conv"):
            configuration_grid(sim, get_workload(name), iterations=100_000)

    _, hits, misses = _counted(grids)
    assert (hits, misses) == (17, 3)
    random_cells = sum(
        RANDOM in (config.within, config.between)
        for config in all_configurations()
    )
    assert hits + misses == 2 * random_cells
