"""The epoch maps checked against laws the kernel's code does not share.

The kernel and its per-epoch oracle both take their ``Ra`` and ``Bs``
maps from ``_epoch_maps``, so their identity tests cannot see a fault
in the maps themselves. These checks hold the maps to independent
facts instead:

* a ``Bs`` row is the identity shifted by eight addresses per epoch,
  modulo the size, written out here rather than imported, and a
  ``B1`` row the same shifted by one; the kernel takes both as
  read-only strided views over one ring, held to the formula here
  across sizes, chunk starts and chunk lengths;
* ``Ra`` rows are uniform random permutations: over many epochs every
  (source, destination) pair is about equally frequent, tested with a
  chi-square statistic against a band taken from theory at a nominal
  false-alarm rate, through both the fresh draw (``_draw_ranked``) and
  the kernel's ranked-block memo (``_memo_ranked``).

The seeds are fixed, so every check is deterministic.
"""

import math

import numpy as np
import pytest

import repro.core.kernel as kernel
from repro.balance.software import StrategyKind, make_permutations
from repro.core.kernel import make_epoch_maps

#: Nominal probability that a correct ``Ra`` draw falls outside the band.
FALSE_ALARM = 1e-6

#: Odd sizes, so each statistic has an even number of degrees of freedom
#: and its chi-square tail has the closed form below.
RA_LANE_SIZE, RA_LANE_COUNT = 7, 5
RA_EPOCHS = 700  # 100 expected visits per (source, destination) pair


@pytest.fixture(autouse=True)
def empty_memo():
    kernel._MAPS_MEMO.clear()
    yield
    kernel._MAPS_MEMO.clear()


def chi2_survival(x, df):
    """P(chi-square with ``df`` degrees of freedom > ``x``), ``df`` even:
    ``exp(-x/2) * sum_{j < df/2} (x/2)^j / j!``."""
    half = x / 2.0
    term, total = 1.0, 0.0
    for j in range(df // 2):
        total += term
        term *= half / (j + 1)
    return math.exp(-half) * total


def chi2_quantile(survival, df):
    """The ``x`` whose chi-square tail is ``survival``, by bisection."""
    low, high = 0.0, 10.0 * df + 100.0
    for _ in range(200):
        middle = (low + high) / 2.0
        if chi2_survival(middle, df) > survival:
            low = middle
        else:
            high = middle
    return (low + high) / 2.0


def permutation_statistic(maps):
    """The chi-square statistic of a stack of permutation rows.

    ``counts[i, j]`` is how often source ``i`` went to destination ``j``.
    Summed over independent uniform permutations of ``n`` addresses,
    Pearson's statistic is ``n / (n - 1)`` times a chi-square with
    ``(n - 1)^2`` degrees of freedom: each permutation's rows and
    columns sum to one, which leaves ``(n - 1)^2`` free cells, and each
    cell's variance is ``(n - 1) / n^2``. Returns the rescaled
    statistic and its degrees of freedom.
    """
    epochs, n = maps.shape
    assert (np.sort(maps, axis=1) == np.arange(n)).all(), "not permutations"
    counts = np.zeros((n, n))
    np.add.at(counts, (np.broadcast_to(np.arange(n), maps.shape), maps), 1)
    expected = epochs / n
    pearson = ((counts - expected) ** 2 / expected).sum()
    return pearson * (n - 1) / n, (n - 1) ** 2


def _drawn(seed):
    return make_epoch_maps(
        StrategyKind.RANDOM, StrategyKind.RANDOM,
        RA_LANE_SIZE, RA_LANE_COUNT, RA_EPOCHS,
        np.random.default_rng(seed),
    )


def _memoized(seed):
    return kernel._epoch_maps(
        StrategyKind.RANDOM, StrategyKind.RANDOM,
        RA_LANE_SIZE, RA_LANE_COUNT, RA_EPOCHS,
        np.random.default_rng(seed),
        epoch_start=0, with_between=True, rank=kernel._memo_ranked,
    )


class TestRandomShuffleIsUniform:
    @pytest.mark.parametrize("seed", [3, 2024])
    @pytest.mark.parametrize("draw", [_drawn, _memoized],
                             ids=["draw", "memo"])
    def test_pairs_pass_chi_square(self, draw, seed):
        for maps in draw(seed):
            statistic, df = permutation_statistic(np.asarray(maps))
            low = chi2_quantile(1 - FALSE_ALARM / 2, df)
            high = chi2_quantile(FALSE_ALARM / 2, df)
            assert low < statistic < high, (statistic, df, low, high)

    def test_memo_hit_replays_the_tested_maps(self):
        missed = _memoized(3)
        hit = _memoized(3)
        for ours, theirs in zip(missed, hit):
            assert np.array_equal(ours, theirs)

    def test_band_matches_known_quantiles(self):
        # The 95th percentiles of chi-square with 2 and 16 degrees of
        # freedom, from published tables.
        assert chi2_quantile(0.05, 2) == pytest.approx(5.991, abs=1e-3)
        assert chi2_quantile(0.05, 16) == pytest.approx(26.296, abs=1e-3)


class TestByteShiftFormula:
    def test_rows_shift_eight_addresses_per_epoch(self):
        # Neither size is a multiple of eight, and the chunk starts
        # mid-run.
        lane_size, lane_count, epoch_start, count = 13, 20, 5, 30
        maps = make_epoch_maps(
            StrategyKind.BYTE_SHIFT, StrategyKind.BYTE_SHIFT,
            lane_size, lane_count, count, epoch_start=epoch_start,
        )
        for rows, size in zip(maps, (lane_size, lane_count)):
            assert rows.shape == (count, size)
            for row, epoch in zip(rows, range(epoch_start, epoch_start + count)):
                expected = [(a + 8 * epoch) % size for a in range(size)]
                assert row.tolist() == expected, (size, epoch)


#: ``(kind, step)``: the shift strategies and the addresses they move
#: per epoch.
SHIFTS = [(StrategyKind.BYTE_SHIFT, 8), (StrategyKind.BIT_SHIFT, 1)]


def shift_period(step, size):
    """Epochs until a shift by ``step`` per epoch repeats on ``size``
    addresses."""
    return size // math.gcd(step, size)


class TestStridedShiftRows:
    @pytest.mark.parametrize("size", [13, 20, 1024])
    @pytest.mark.parametrize("kind,step", SHIFTS, ids=["Bs", "B1"])
    def test_rows_follow_the_formula(self, kind, step, size):
        period = shift_period(step, size)
        starts = [0, 5, size - 1, 3 * period + 2]
        counts = [0, 1, period, size + 3]
        for epoch_start in starts:
            for count in counts:
                rows = make_permutations(
                    kind, size, count, epoch_start=epoch_start
                )
                assert rows.shape == (count, size)
                epochs = epoch_start + np.arange(count)[:, None]
                expected = (np.arange(size)[None, :] + step * epochs) % size
                assert np.array_equal(rows, expected), (
                    epoch_start, count
                )

    @pytest.mark.parametrize("kind,step", SHIFTS, ids=["Bs", "B1"])
    def test_views_hold_one_small_ring(self, kind, step):
        # 1,000 epochs on 1,024 addresses: one row's worth plus a step
        # per further epoch, not a matrix.
        rows = make_permutations(kind, 1024, 1000, epoch_start=7)
        # numpy 2 moved byte_bounds out of the top-level namespace.
        byte_bounds = getattr(np, "byte_bounds", None) or (
            np.lib.array_utils.byte_bounds
        )
        low, high = byte_bounds(rows)
        assert high - low == (1024 + step * 999) * rows.itemsize
        assert rows.strides == (step * rows.itemsize, rows.itemsize)

    @pytest.mark.parametrize("kind,step", SHIFTS, ids=["Bs", "B1"])
    def test_writing_to_a_view_raises(self, kind, step):
        rows = make_permutations(kind, 20, 6, epoch_start=3)
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 1
        with pytest.raises(ValueError):
            rows[...] = 0
