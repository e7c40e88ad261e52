"""Damaged fleet checkpoints, store manifests and store payloads read
as absent.

A real checkpoint, a real manifest and a real lane-packed result payload
are truncated or have one byte replaced. Every damaged file must read as
absent, or, when the damage left the recorded content intact (it hit
only the name of the manifest's digest key, or a field of the payload's
zip container that reading does not depend on), as exactly what was
written: never as different data, never as a crash. A checkpoint's
digest covers all of it, so a damaged checkpoint always reads as
absent, and ``CheckpointManager.latest()`` falls back to the
next-newest checkpoint.
"""

import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.array.architecture import default_architecture
from repro.balance.config import BalanceConfig
from repro.core.simulator import EnduranceSimulator
from repro.engine import JobSpec, ResultStore
from repro.core.io import dump_sealed_arrays
from repro.fleet import (
    CHECKPOINT_VERSION,
    CheckpointManager,
    CohortSpec,
    FleetService,
    FleetSpec,
    PopulationSpec,
    TrafficSpec,
)
from repro.workloads.multiply import ParallelMultiplication


@st.composite
def damaged(draw, raw: bytes):
    """``(damaged bytes, truncated?)``: a proper prefix or one new byte."""
    if draw(st.booleans()):
        return raw[: draw(st.integers(0, len(raw) - 1))], True
    index = draw(st.integers(0, len(raw) - 1))
    byte = draw(st.integers(0, 255).filter(lambda b: b != raw[index]))
    return raw[:index] + bytes([byte]) + raw[index + 1:], False


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """A paused 4-array campaign's day-2 and day-4 checkpoints."""
    spec = FleetSpec(
        population=PopulationSpec(
            n_arrays=4,
            technology_mix=(("PCM", 1.0),),
            cohorts=(CohortSpec("add"),),
            endurance_sigma=0.5,
        ),
        traffic=TrafficSpec(model="poisson", rate=2e5),
        days=12,
        seed=3,
        rows=128,
        cols=128,
        cohort_iterations=200,
    )
    service = FleetService(
        spec,
        checkpoint_dir=tmp_path_factory.mktemp("checkpoints"),
        checkpoint_every=2,
    )
    service.run(stop_after_day=4)
    manager = service.checkpoints
    files = {
        day: (manager.path_for(day).read_bytes(), manager.load(day))
        for day in (2, 4)
    }
    assert all(state is not None for _, state in files.values())
    return spec.content_hash, files


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    """A real store entry's spec, raw manifest bytes and parsed manifest."""
    arch = default_architecture(64, 64)
    spec = JobSpec(
        workload=ParallelMultiplication(bits=8),
        architecture=arch,
        config=BalanceConfig.from_label("RaxRa"),
        iterations=50,
        seed=3,
    )
    result = EnduranceSimulator(arch, settings=spec.settings).run(
        spec.workload, spec.config, spec.iterations
    )
    store = ResultStore(tmp_path_factory.mktemp("store"))
    store.save(spec, result, wall_s=0.5)
    loaded = store.load_manifest(spec)
    assert loaded is not None
    return spec, store.manifest_for(spec).read_bytes(), loaded


@pytest.fixture(scope="module")
def payload(tmp_path_factory):
    """A real store entry with tracked reads: the store, spec, raw payload
    bytes and the saved counters."""
    arch = default_architecture(64, 64)
    spec = JobSpec(
        workload=ParallelMultiplication(bits=8),
        architecture=arch,
        config=BalanceConfig.from_label("RaxRa"),
        iterations=50,
        seed=3,
        track_reads=True,
    )
    result = EnduranceSimulator(arch, settings=spec.settings).run(
        spec.workload, spec.config, spec.iterations
    )
    store = ResultStore(tmp_path_factory.mktemp("store"))
    store.save(spec, result, wall_s=0.5)
    counters = (result.state.write_counts, result.state.read_counts)
    assert all(counts.any() for counts in counters)
    return store, spec, store.path_for(spec).read_bytes(), counters


def same_state(a, b) -> bool:
    """Two checkpoint states are equal, arrays bit for bit."""
    return a.keys() == b.keys() and all(
        a[key].dtype == b[key].dtype and a[key].tobytes() == b[key].tobytes()
        if isinstance(a[key], np.ndarray)
        else a[key] == b[key]
        for key in a
    )


class TestDamagedCheckpoint:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_reads_as_absent_and_latest_falls_back(self, checkpoints, data):
        # The digest covers every byte after the magic, and the magic
        # and the digest are compared whole, so every damaged
        # checkpoint reads as absent.
        campaign, files = checkpoints
        newest, _ = files[4]
        bad, _ = data.draw(damaged(newest))
        with tempfile.TemporaryDirectory() as directory:
            manager = CheckpointManager(directory, campaign)
            manager.path_for(2).write_bytes(files[2][0])
            manager.path_for(4).write_bytes(bad)
            assert manager.load(4) is None
            day, state = manager.latest()
            assert day == 2 and same_state(state, files[2][1])

    def test_every_truncation_and_byte_flip_reads_as_absent(
        self, checkpoints, tmp_path
    ):
        # Exhaustive over the metadata (the seal line and the JSON
        # header) and a stride of the array bytes.
        campaign, files = checkpoints
        raw = files[4][0]
        header = raw.index(b"\n", raw.index(b"\n") + 1) + 1
        manager = CheckpointManager(tmp_path, campaign)
        for index in [*range(header), *range(header, len(raw), 7)]:
            for bad in (
                raw[:index],
                raw[:index] + bytes([raw[index] ^ 0x01]) + raw[index + 1:],
            ):
                manager.path_for(4).write_bytes(bad)
                assert manager.load(4) is None, index

    @pytest.mark.parametrize("state", [[1], 1, None, "x"])
    def test_non_object_state_reads_as_absent(self, tmp_path, state):
        # A record sealed intact but without the checkpoint schema
        # (RPR017) reads as absent too.
        manager = CheckpointManager(tmp_path, "c" * 64)
        manager.path_for(1).write_bytes(
            dump_sealed_arrays(
                {
                    "campaign_hash": "c" * 64,
                    "day": 1,
                    "state": state,
                    "version": CHECKPOINT_VERSION,
                },
                {},
            )
        )
        assert manager.load(1) is None
        assert manager.latest() is None

    @pytest.mark.parametrize(
        "key, vector",
        [
            ("cumulative", np.zeros(4, dtype=np.float32)),
            ("death_day", np.zeros(3, dtype=np.int64)),
        ],
    )
    def test_off_schema_vector_reads_as_absent(
        self, checkpoints, tmp_path, key, vector
    ):
        # Sealed intact, but not a checkpoint (RPR017): the reader runs
        # the schema and falls back.
        campaign, files = checkpoints
        state = dict(files[4][1], **{key: vector})
        manager = CheckpointManager(tmp_path, campaign)
        manager.path_for(2).write_bytes(files[2][0])
        manager.save(4, state)
        assert manager.load(4) is None
        assert manager.latest()[0] == 2


class TestDamagedManifest:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_reads_as_absent(self, manifest, data):
        spec, raw, original = manifest
        bad, truncated = data.draw(damaged(raw))
        with tempfile.TemporaryDirectory() as root:
            store = ResultStore(root)
            path = store.manifest_for(spec)
            path.parent.mkdir(parents=True)
            path.write_bytes(bad)
            loaded = store.load_manifest(spec)
            if truncated:
                assert loaded is None
            assert loaded is None or all(
                key in loaded and loaded[key] == value
                for key, value in original.items()
            )
            streamed = [entry for _, entry in store.iter_manifests()]
            assert streamed == ([] if loaded is None else [loaded])

    @pytest.mark.parametrize("text", ["[1]", "1", "null", '"x"'])
    def test_non_object_manifest_reads_as_absent(self, tmp_path, text):
        store = ResultStore(tmp_path)
        path = store.manifest_for("ab" * 32)
        path.parent.mkdir(parents=True)
        path.write_text(text, encoding="utf-8")
        assert store.load_manifest("ab" * 32) is None
        assert list(store.iter_manifests()) == []


class TestDamagedPayload:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_reads_as_miss_or_as_saved(self, payload, data):
        store, spec, raw, counters = payload
        bad, truncated = data.draw(damaged(raw))
        with tempfile.TemporaryDirectory() as root:
            copy = ResultStore(root)
            path = copy.path_for(spec)
            path.parent.mkdir(parents=True)
            shutil.copyfile(store.sidecar_for(spec), copy.sidecar_for(spec))
            path.write_bytes(bad)
            loaded = copy.load(spec)
            if truncated:
                assert loaded is None
            if loaded is not None:
                restored = (
                    loaded.state.write_counts,
                    loaded.state.read_counts,
                )
                for ours, theirs in zip(restored, counters):
                    assert ours.dtype == theirs.dtype
                    assert np.array_equal(ours, theirs)
