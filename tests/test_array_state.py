"""Tests for repro.array.state."""

import numpy as np
import pytest

from repro.array.geometry import ArrayGeometry, Orientation
from repro.array.state import ArrayState, InexactCountError


class TestSingleCellEvents:
    def test_record_write_column_parallel(self):
        state = ArrayState(ArrayGeometry(4, 4))
        state.record_write(lane=2, offset=1, orientation=Orientation.COLUMN_PARALLEL)
        assert state.write_counts[1, 2] == 1
        assert state.total_writes == 1

    def test_record_read_row_parallel(self):
        state = ArrayState(ArrayGeometry(4, 4))
        state.record_read(lane=2, offset=1, orientation=Orientation.ROW_PARALLEL)
        assert state.read_counts[2, 1] == 1

    def test_max_writes(self):
        state = ArrayState(ArrayGeometry(2, 2))
        for _ in range(3):
            state.record_write(0, 0, Orientation.COLUMN_PARALLEL)
        state.record_write(1, 1, Orientation.COLUMN_PARALLEL)
        assert state.max_writes == 3


class TestLaneProfiles:
    def test_outer_product_column_parallel(self):
        state = ArrayState(ArrayGeometry(3, 2))
        state.add_lane_profile(
            np.array([1.0, 2.0, 0.0]),
            np.array([1.0, 3.0]),
            Orientation.COLUMN_PARALLEL,
        )
        expected = np.outer([1.0, 2.0, 0.0], [1.0, 3.0])
        assert np.allclose(state.write_counts, expected)

    def test_outer_product_row_parallel_transposes(self):
        state = ArrayState(ArrayGeometry(2, 3))
        state.add_lane_profile(
            np.array([1.0, 2.0, 0.0]),
            np.array([1.0, 3.0]),
            Orientation.ROW_PARALLEL,
        )
        expected = np.outer([1.0, 3.0], [1.0, 2.0, 0.0])
        assert np.allclose(state.write_counts, expected)

    def test_kind_selects_counter(self):
        state = ArrayState(ArrayGeometry(2, 2))
        state.add_lane_profile(
            np.ones(2), np.ones(2), Orientation.COLUMN_PARALLEL, kind="read"
        )
        assert state.total_reads == 4
        assert state.total_writes == 0

    def test_invalid_kind_rejected(self):
        state = ArrayState(ArrayGeometry(2, 2))
        with pytest.raises(ValueError, match="kind"):
            state.add_lane_profile(
                np.ones(2), np.ones(2), Orientation.COLUMN_PARALLEL, kind="x"
            )

    def test_shape_mismatch_rejected(self):
        state = ArrayState(ArrayGeometry(2, 3))
        with pytest.raises(ValueError, match="offset_counts"):
            state.add_lane_profile(
                np.ones(3), np.ones(3), Orientation.COLUMN_PARALLEL
            )
        with pytest.raises(ValueError, match="lane_weights"):
            state.add_lane_profile(
                np.ones(2), np.ones(2), Orientation.COLUMN_PARALLEL
            )


class TestEveryLaneColumn:
    """Counts every lane shares stay one column until the state is
    finished: a broadcast of it when the plane was never written, the
    plane plus it otherwise."""

    NO_LANES = np.empty(0, dtype=np.int64)

    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_untouched_plane_finishes_as_a_broadcast(self, orientation):
        state = ArrayState(ArrayGeometry(rows=4, cols=6))
        size = state.geometry.lane_size(orientation)
        column = np.arange(1.0, size + 1)
        state.add_every_lane(column, orientation)
        state.add_every_lane(column, orientation)
        state.add_every_lane(column, orientation, "read")
        # The plane itself is never written.
        assert not state.write_counts.any()
        finished = state.finish(orientation, self.NO_LANES)
        count = state.geometry.lane_count(orientation)
        for name, scale in (("write", 2), ("read", 1)):
            lanes, block = finished.packed[name]
            assert lanes.tolist() == list(range(count))
            assert block.shape == (size, count)
            assert block.strides[1] == 0
            assert not block.flags.writeable
            assert block.dtype == np.uint8
            assert np.array_equal(block[:, 0], scale * column)
        expected = np.broadcast_to((2 * column)[:, None], (size, count))
        assert np.array_equal(
            state.lane_view(finished.write_counts, orientation), expected
        )
        assert finished.max_writes == 2 * size

    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_written_plane_gets_the_column_added(self, orientation):
        state = ArrayState(ArrayGeometry(rows=4, cols=6))
        size = state.geometry.lane_size(orientation)
        count = state.geometry.lane_count(orientation)
        weights = np.zeros(count)
        weights[1] = 3.0
        state.add_lane_profile(np.ones(size), weights, orientation)
        state.add_every_lane(np.full(size, 2.0), orientation)
        finished = state.finish(orientation, np.array([1]))
        lanes, block = finished.packed["write"]
        assert lanes.tolist() == list(range(count))
        assert block.strides[1] != 0
        expected = np.full((size, count), 2)
        expected[:, 1] = 5
        assert np.array_equal(block, expected)
        # The accumulator is left as it was.
        plane = state.lane_view(state.write_counts, orientation)
        assert plane[:, 1].tolist() == [3.0] * size

    def test_zero_column_packs_no_lanes(self):
        state = ArrayState(ArrayGeometry(rows=4, cols=6))
        orientation = Orientation.COLUMN_PARALLEL
        state.add_every_lane(np.zeros(4), orientation)
        state.add_every_lane(np.zeros(4), orientation, "read")
        finished = state.finish(orientation, self.NO_LANES)
        lanes, block = finished.packed["write"]
        assert len(lanes) == 0 and block.shape == (4, 0)
        # A read block covering no lane is dropped, as if untracked.
        assert "read" not in finished.packed
        assert not finished.write_counts.any()

    @pytest.mark.parametrize("value", [0.5, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("lanes", [NO_LANES, None])
    def test_inexact_column_raises(self, value, lanes):
        state = ArrayState(ArrayGeometry(rows=4, cols=6))
        column = np.ones(4)
        column[2] = value
        state.add_every_lane(column, Orientation.COLUMN_PARALLEL)
        with pytest.raises(InexactCountError):
            state.finish(Orientation.COLUMN_PARALLEL, lanes)

    def test_untracked_reads_refuse_a_column(self):
        geometry = ArrayGeometry(rows=4, cols=6)
        state = ArrayState.from_counts(geometry, np.zeros((4, 6)))
        with pytest.raises(ValueError, match="not tracked"):
            state.add_every_lane(
                np.ones(4), Orientation.COLUMN_PARALLEL, "read"
            )
        with pytest.raises(ValueError, match="kind"):
            state.add_every_lane(
                np.ones(4), Orientation.COLUMN_PARALLEL, "erase"
            )


class TestViews:
    def test_lane_view_orientation(self):
        state = ArrayState(ArrayGeometry(2, 3))
        state.write_counts[0, 2] = 5.0
        column_view = state.lane_view(state.write_counts, Orientation.COLUMN_PARALLEL)
        assert column_view[0, 2] == 5.0  # (offset 0, lane 2)
        row_view = state.lane_view(state.write_counts, Orientation.ROW_PARALLEL)
        assert row_view[2, 0] == 5.0  # (offset 2, lane 0)

    def test_lane_view_rejects_wrong_shape(self):
        state = ArrayState(ArrayGeometry(2, 3))
        with pytest.raises(ValueError):
            state.lane_view(np.zeros((3, 3)), Orientation.COLUMN_PARALLEL)
