"""Damaged fleet checkpoints and store files read as absent.

A real checkpoint and a real store entry's payload, sidecar and manifest
are truncated or have one byte replaced. Every file is one sealed
record whose digest covers all of it, so every damaged file reads as
absent — a damaged payload or sidecar as a cache miss — never as
different data and never as a crash, and ``CheckpointManager.latest()``
falls back to the next-newest checkpoint. A failed write leaves no
temp file behind.
"""

import os
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
from repro.core.io import dump_sealed_arrays, load_sealed_arrays
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


def every_truncation_and_bit_flip(raw: bytes, stride: int):
    """Every proper prefix and one-bit flip of ``raw`` over its seal line
    and header, and over a stride of the bytes after them."""
    header = raw.index(b"\n", raw.index(b"\n") + 1) + 1
    for index in [*range(header), *range(header, len(raw), stride)]:
        yield raw[:index]
        yield raw[:index] + bytes([raw[index] ^ 0x01]) + raw[index + 1:]


class TestDamagedManifest:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_reads_as_absent(self, manifest, data):
        spec, raw, _ = manifest
        bad, _ = data.draw(damaged(raw))
        with tempfile.TemporaryDirectory() as root:
            store = ResultStore(root)
            path = store.manifest_for(spec)
            path.parent.mkdir(parents=True)
            path.write_bytes(bad)
            assert store.load_manifest(spec) is None
            assert list(store.iter_manifests()) == []

    def test_every_truncation_and_byte_flip_reads_as_absent(
        self, manifest, tmp_path
    ):
        spec, raw, _ = manifest
        store = ResultStore(tmp_path)
        path = store.manifest_for(spec)
        path.parent.mkdir(parents=True)
        for bad in every_truncation_and_bit_flip(raw, 7):
            path.write_bytes(bad)
            assert store.load_manifest(spec) is None

    @pytest.mark.parametrize("text", ["[1]", "1", "null", '"x"', "{}"])
    def test_non_record_manifest_reads_as_absent(self, tmp_path, text):
        store = ResultStore(tmp_path)
        path = store.manifest_for("ab" * 32)
        path.parent.mkdir(parents=True)
        path.write_text(text, encoding="utf-8")
        assert store.load_manifest("ab" * 32) is None
        assert list(store.iter_manifests()) == []

    def test_off_schema_manifest_is_not_counted_by_the_fleet(
        self, manifest, tmp_path
    ):
        # A sealed manifest without ``content_hash`` (RPR017) reads as
        # absent, so a campaign's manifest census skips it.
        spec, _, original = manifest
        fleet = FleetSpec(
            population=PopulationSpec(
                n_arrays=2,
                technology_mix=(("PCM", 1.0),),
                cohorts=(CohortSpec("add"),),
            ),
            traffic=TrafficSpec(model="deterministic", rate=100.0),
            days=2,
            rows=128,
            cols=128,
            cohort_iterations=50,
        )
        store = ResultStore(tmp_path)
        counted = FleetService(fleet, store=store).run().runtime["manifests"]
        path = store.manifest_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        stray = {k: v for k, v in original.items() if k != "content_hash"}
        path.write_bytes(dump_sealed_arrays(stray, {}))
        assert store.load_manifest(spec) is None
        again = FleetService(fleet, store=store).run().runtime["manifests"]
        assert again == counted


class TestDamagedPayload:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_reads_as_miss(self, payload, data):
        store, spec, raw, _ = payload
        bad, _ = data.draw(damaged(raw))
        with tempfile.TemporaryDirectory() as root:
            copy = ResultStore(root)
            path = copy.path_for(spec)
            path.parent.mkdir(parents=True)
            shutil.copyfile(store.sidecar_for(spec), copy.sidecar_for(spec))
            path.write_bytes(bad)
            assert copy.load(spec) is None

    def test_every_truncation_and_byte_flip_reads_as_miss(
        self, payload, tmp_path
    ):
        store, spec, raw, counters = payload
        copy = ResultStore(tmp_path)
        path = copy.path_for(spec)
        path.parent.mkdir(parents=True)
        shutil.copyfile(store.sidecar_for(spec), copy.sidecar_for(spec))
        for bad in every_truncation_and_bit_flip(raw, 41):
            path.write_bytes(bad)
            assert copy.load(spec) is None
        path.write_bytes(raw)
        loaded = copy.load(spec)
        restored = (loaded.state.write_counts, loaded.state.read_counts)
        for ours, theirs in zip(restored, counters):
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs)


class TestDamagedSidecar:
    def test_every_truncation_and_byte_flip_reads_as_miss(
        self, payload, tmp_path
    ):
        store, spec, _, _ = payload
        raw = store.sidecar_for(spec).read_bytes()
        copy = ResultStore(tmp_path)
        path = copy.sidecar_for(spec)
        path.parent.mkdir(parents=True)
        shutil.copyfile(store.path_for(spec), copy.path_for(spec))
        for bad in every_truncation_and_bit_flip(raw, 1):
            path.write_bytes(bad)
            assert copy.load(spec) is None
        path.write_bytes(raw)
        assert copy.load(spec) is not None


class TestFailedCheckpointWrite:
    def test_leaves_no_temp_file(self, checkpoints, tmp_path, monkeypatch):
        campaign, files = checkpoints
        manager = CheckpointManager(tmp_path, campaign)

        def broken(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", broken)
        with pytest.raises(OSError, match="disk gone"):
            manager.save(4, files[4][1])
        assert list(tmp_path.iterdir()) == []
        assert manager.latest() is None

    def test_checkpoint_is_a_sealed_record(self, checkpoints):
        _, files = checkpoints
        for raw, _ in files.values():
            assert dump_sealed_arrays(*load_sealed_arrays(raw)) == raw
