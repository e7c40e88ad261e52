"""The packed result format: exact round trips, validation, v1 misses.

The oracle is the dense float64 counter matrix a run accumulates:
whatever lanes hold counts and whatever exact integer counts they hold
(up to 2^53 - 1), the finished state and every path back — the saved
sealed record and the encoded in-memory pair — must give an unsigned
integer matrix equal to it. A count that is not an
exact non-negative integer raises :class:`InexactCountError`.
"""

import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.array.architecture import default_architecture
from repro.array.geometry import Orientation
from repro.array.state import ArrayState, InexactCountError
from repro.balance.config import BalanceConfig
from repro.core.io import (
    dump_sealed_arrays,
    encode_result,
    load_result,
    load_sealed_arrays,
    restore_result,
    result_metadata,
    save_result,
)
from repro.core.lifetime import lifetime_from_result
from repro.core.simulator import EnduranceSimulator, SimulationResult
from repro.core.sweep import configuration_grid
from repro.engine import ExperimentEngine, JobSpec, JobStatus, ResultStore
from repro.workloads.multiply import ParallelMultiplication

#: Counts at both sides of every integer block dtype's limit and the
#: largest exactly countable value.
EDGE_VALUES = (
    1.0,
    2.0,
    255.0,
    256.0,
    65535.0,
    65536.0,
    2.0**32 - 1,
    2.0**32,
    2.0**53 - 1,
)

#: Values no counter may hold.
INEXACT_VALUES = (0.5, 1234.25, -1.0, np.nan, np.inf)


def narrowest(block):
    """The dtype the format promises for ``block`` (exact integers)."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if block.size == 0 or block.max() <= np.iinfo(dtype).max:
            return dtype
    return np.uint64


def result_of(write_counts, read_counts, orientation):
    """A mapping-free result over the given dense counters, finished by
    scanning them for their written lanes."""
    rows, cols = write_counts.shape
    architecture = default_architecture(rows, cols)
    if architecture.orientation is not orientation:
        architecture = replace(architecture, orientation=orientation)
    state = ArrayState.from_counts(
        architecture.geometry, write_counts, read_counts
    )
    return SimulationResult(
        workload_name="probe",
        config=BalanceConfig.from_label("RaxBs"),
        architecture=architecture,
        iterations=7,
        epochs=1,
        state=state.finish(orientation, track_reads=read_counts is not None),
        iteration_latency_s=1.5e-6,
        lane_utilization=0.25,
    )


@st.composite
def counters(draw):
    """A dense counter matrix whose written lanes vary from none to all."""
    rows = draw(st.integers(1, 9))
    cols = draw(st.integers(1, 9))
    orientation = draw(st.sampled_from(list(Orientation)))
    n_lanes = cols if orientation is Orientation.COLUMN_PARALLEL else rows
    lane_size = rows if orientation is Orientation.COLUMN_PARALLEL else cols
    lanes = draw(
        st.one_of(
            st.just([]),
            st.integers(0, n_lanes - 1).map(lambda lane: [lane]),
            st.just(list(range(n_lanes))),
            st.sets(st.integers(0, n_lanes - 1)).map(sorted),
        )
    )
    lane_major = np.zeros((lane_size, n_lanes))
    values = st.one_of(st.just(0.0), st.sampled_from(EDGE_VALUES))
    for lane in lanes:
        lane_major[:, lane] = draw(
            st.lists(values, min_size=lane_size, max_size=lane_size)
        )
    matrix = (
        lane_major
        if orientation is Orientation.COLUMN_PARALLEL
        else np.ascontiguousarray(lane_major.T)
    )
    return matrix, orientation


def assert_restored(loaded, write_counts, read_counts):
    for restored, original in (
        (loaded.state.write_counts, write_counts),
        (loaded.state.read_counts, read_counts),
    ):
        assert restored.dtype.kind == "u"
        assert restored.shape == original.shape
        assert np.array_equal(restored, original)


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(
        writes=counters(),
        reads=st.one_of(st.none(), counters()),
    )
    def test_every_path_restores_the_dense_matrix(
        self, tmp_path_factory, writes, reads
    ):
        write_counts, orientation = writes
        # Reads share the writes' shape: draw them, then fit them.
        read_counts = np.zeros_like(write_counts)
        if reads is not None:
            drawn = reads[0]
            rows = min(drawn.shape[0], read_counts.shape[0])
            cols = min(drawn.shape[1], read_counts.shape[1])
            read_counts[:rows, :cols] = drawn[:rows, :cols]
        result = result_of(write_counts, read_counts, orientation)
        assert_restored(result, write_counts, read_counts)

        metadata, arrays = encode_result(result)
        assert metadata == dict(
            result_metadata(result), counters=metadata["counters"]
        )
        tracked = bool(read_counts.any())
        assert ("read_lanes" in arrays) == tracked
        assert metadata["counters"] == (
            ["write", "read"] if tracked else ["write"]
        )
        lane_axis = 0 if orientation is Orientation.COLUMN_PARALLEL else 1
        for name, counts in (("write", write_counts), ("read", read_counts)):
            if f"{name}_lanes" not in arrays:
                continue
            lanes = arrays[f"{name}_lanes"]
            assert np.array_equal(
                lanes, np.flatnonzero(counts.any(axis=lane_axis))
            )
            block = arrays[f"{name}_block"]
            dense = (
                counts[:, lanes]
                if orientation is Orientation.COLUMN_PARALLEL
                else counts[lanes, :].T
            )
            assert block.dtype == narrowest(dense)
            assert np.array_equal(block, dense)
            # The payload is the result's own packed arrays.
            assert block is result.state.packed[name][1]

        assert_restored(
            restore_result(metadata, arrays), write_counts, read_counts
        )
        path = str(tmp_path_factory.mktemp("packed") / "run.result")
        save_result(result, path)
        assert_restored(load_result(path), write_counts, read_counts)

    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_lanes_follow_the_orientation(self, orientation):
        counts = np.zeros((4, 6))
        counts[1, 4] = 3.0
        metadata, arrays = encode_result(
            result_of(counts, np.zeros_like(counts), orientation)
        )
        column = orientation is Orientation.COLUMN_PARALLEL
        assert arrays["write_lanes"].tolist() == ([4] if column else [1])
        assert arrays["write_block"].shape == ((4, 1) if column else (6, 1))
        assert arrays["write_block"].dtype == np.uint8
        assert metadata["counters"] == ["write"]

    def test_untracked_reads_restore_as_zeros(self):
        counts = np.zeros((4, 6))
        counts[:, 2] = 9.0
        result = result_of(counts, None, Orientation.COLUMN_PARALLEL)
        loaded = restore_result(*encode_result(result))
        assert not loaded.state.read_counts.any()
        assert loaded.state.read_counts.shape == (4, 6)
        # A broadcast zero plane, which holds no memory.
        assert loaded.state.read_counts.strides == (0, 0)

    def test_restored_counters_are_the_blocks_read_only(self):
        counts = np.full((4, 6), 300.0)
        loaded = restore_result(
            *encode_result(result_of(counts, None, Orientation.ROW_PARALLEL))
        )
        block = loaded.state.packed["write"][1]
        assert block.dtype == np.uint16
        assert np.shares_memory(loaded.state.write_counts, block)
        with pytest.raises(ValueError, match="read-only"):
            loaded.state.write_counts += 1


class TestInexactCounts:
    @pytest.mark.parametrize("value", INEXACT_VALUES)
    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_finishing_raises_the_typed_error(self, value, orientation):
        counts = np.zeros((4, 6))
        counts[1, 2] = value
        with pytest.raises(InexactCountError):
            result_of(counts, None, orientation)
        with pytest.raises(InexactCountError):
            result_of(np.zeros((4, 6)), counts, orientation)
        assert issubclass(InexactCountError, ValueError)


def packed_probe():
    counts = np.zeros((4, 6))
    counts[:, [1, 3]] = [[1.0, 2.0]] * 4
    return encode_result(
        result_of(counts, np.zeros_like(counts), Orientation.COLUMN_PARALLEL)
    )


class TestValidation:
    @pytest.mark.parametrize(
        "lanes",
        [
            np.array([3, 1]),
            np.array([1, 1]),
            np.array([1, 6]),
            np.array([-1, 3]),
            np.array([1.0, 3.0]),
            np.array([[1, 3]]),
        ],
        ids=["unsorted", "duplicate", "past-end", "negative", "float", "2-d"],
    )
    def test_bad_lane_indices_are_rejected(self, lanes):
        metadata, arrays = packed_probe()
        arrays["write_lanes"] = lanes
        with pytest.raises(ValueError):
            restore_result(metadata, arrays)

    @pytest.mark.parametrize(
        "block",
        [
            np.ones((4, 3), dtype=np.uint8),
            np.ones((6, 2), dtype=np.uint8),
            np.ones((4, 2), dtype=np.int64),
            np.ones((4, 2), dtype=np.float32),
            np.ones((4, 2), dtype=np.float64),
            np.ones((4, 2), dtype=">u2"),
        ],
        ids=["lane-count", "lane-size", "int64", "float32", "float64",
             "big-endian"],
    )
    def test_bad_blocks_are_rejected(self, block):
        metadata, arrays = packed_probe()
        arrays["write_block"] = block
        with pytest.raises(ValueError):
            restore_result(metadata, arrays)

    def test_a_missing_declared_array_is_rejected(self):
        counts = np.ones((4, 6))
        metadata, arrays = encode_result(
            result_of(counts, counts, Orientation.COLUMN_PARALLEL)
        )
        del arrays["read_block"]
        with pytest.raises(ValueError, match="missing read"):
            restore_result(metadata, arrays)
        metadata["counters"] = ["read"]
        with pytest.raises(ValueError, match="counter list"):
            restore_result(metadata, arrays)


class TestVersionOneEntry:
    @pytest.fixture
    def job(self, tiny_arch):
        return JobSpec(
            workload=ParallelMultiplication(bits=8),
            architecture=tiny_arch,
            config=BalanceConfig.from_label("RaxRa"),
            iterations=40,
            seed=2,
            track_reads=True,
        )

    @pytest.fixture
    def result(self, job):
        return EnduranceSimulator(
            job.architecture, settings=job.settings
        ).run(job.workload, job.config, job.iterations)

    def assert_resimulated(self, store, job, result):
        outcome = ExperimentEngine(store=store).run_one(job)
        assert outcome.status is JobStatus.COMPLETED  # re-simulated
        metadata, arrays = load_sealed_arrays(
            store.path_for(job).read_bytes()
        )
        assert metadata["format_version"] == 2
        assert "write_counts" not in arrays
        loaded = store.load(job)
        assert_restored(
            loaded, result.state.write_counts, result.state.read_counts
        )
        assert ExperimentEngine(store=store).run_one(job).status is (
            JobStatus.CACHED
        )

    def test_dense_entry_is_a_miss_then_replaced(self, tmp_path, job, result):
        store = ResultStore(tmp_path)
        store.save(job, result)
        # A version 1 entry: dense float64 matrices under their own names.
        path = store.path_for(job)
        path.write_bytes(
            dump_sealed_arrays(
                dict(result_metadata(result), format_version=1),
                {
                    "write_counts": result.state.write_counts,
                    "read_counts": result.state.read_counts,
                },
            )
        )
        with pytest.raises(ValueError, match="unsupported result format 1"):
            load_result(path)
        assert store.load(job) is None
        assert len(store) == 0
        self.assert_resimulated(store, job, result)

    def test_npz_entry_is_a_miss_then_replaced(self, tmp_path, job, result):
        # Entries of releases that wrote an .npz payload and a JSON
        # sidecar are not read: the job is re-simulated beside them.
        store = ResultStore(tmp_path)
        digest = job.content_hash
        shard = tmp_path / digest[:2]
        shard.mkdir()
        metadata, arrays = encode_result(result)
        np.savez(shard / f"{digest}.npz", metadata=json.dumps(metadata),
                 **arrays)
        (shard / f"{digest}.json").write_text(
            json.dumps({"content_hash": digest, "spec": job.identity()})
        )
        assert store.load(job) is None
        assert len(store) == 0
        self.assert_resimulated(store, job, result)


class TestOneResultType:
    """A store hit is the simulated run's :class:`SimulationResult`
    without its mapping: every other field, its lifetime and its
    improvement over the baseline are bit-equal."""

    @pytest.mark.parametrize("label", ["StxSt", "RaxRa+Hw", "BsxBs"])
    def test_store_hit_equals_the_simulated_run(
        self, tiny_arch, tmp_path, label
    ):
        def grid():
            (entry,) = configuration_grid(
                EnduranceSimulator(tiny_arch),
                ParallelMultiplication(bits=8),
                iterations=40,
                configs=[BalanceConfig.from_label(label)],
                track_reads=True,
                cache_dir=str(tmp_path),
            )
            return entry

        simulated, restored = grid(), grid()
        assert type(restored.result) is SimulationResult
        assert simulated.result.mapping is not None
        assert restored.result.mapping is None  # answered by the store
        for field in fields(SimulationResult):
            ours, theirs = (
                getattr(entry.result, field.name)
                for entry in (simulated, restored)
            )
            if field.name == "state":
                for name in ("write_counts", "read_counts"):
                    a, b = getattr(ours, name), getattr(theirs, name)
                    assert a.dtype == b.dtype and np.array_equal(a, b)
            elif field.name != "mapping":
                assert ours == theirs, field.name
        assert lifetime_from_result(restored.result) == lifetime_from_result(
            simulated.result
        )
        assert restored.lifetime == simulated.lifetime
        assert restored.improvement == simulated.improvement
