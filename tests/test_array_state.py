"""Tests for repro.array.state."""

import numpy as np
import pytest

from repro.array.geometry import ArrayGeometry, Orientation
from repro.array.state import ArrayState


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
