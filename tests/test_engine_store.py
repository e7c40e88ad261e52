"""ResultStore round-trips: the engine's stored format must be exact."""

import multiprocessing
import os

import numpy as np
import pytest

from repro.balance.config import BalanceConfig
from repro.core.io import (
    dump_sealed_arrays,
    encode_result,
    load_sealed_arrays,
    restore_result,
)
from repro.core.simulator import EnduranceSimulator
from repro.engine import JobSpec, ResultStore
from repro.engine.store import blas_implementation
from repro.verify import check_manifest
from repro.workloads.multiply import ParallelMultiplication


@pytest.fixture
def workload():
    return ParallelMultiplication(bits=8)


@pytest.fixture
def spec(small_arch, workload):
    return JobSpec(
        workload=workload,
        architecture=small_arch,
        config=BalanceConfig.from_label("RaxBs+Hw"),
        iterations=250,
        seed=3,
        track_reads=True,
    )


@pytest.fixture
def result(small_arch, spec):
    simulator = EnduranceSimulator(small_arch, settings=spec.settings)
    return simulator.run(spec.workload, spec.config, spec.iterations)


class TestRoundTrip:
    def test_counters_bit_exact(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        store.save(spec, result)
        loaded = store.load(spec)
        assert np.array_equal(loaded.state.write_counts, result.state.write_counts)
        assert np.array_equal(loaded.state.read_counts, result.state.read_counts)
        assert loaded.state.write_counts.dtype == result.state.write_counts.dtype

    def test_metadata_survives(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        store.save(spec, result)
        loaded = store.load(spec)
        assert loaded.config.label == result.config.label
        assert loaded.config.recompile_interval == result.config.recompile_interval
        assert loaded.epochs == result.epochs
        assert loaded.iterations == result.iterations
        assert loaded.workload_name == result.workload_name
        assert loaded.iteration_latency_s == result.iteration_latency_s
        assert loaded.lane_utilization == result.lane_utilization

    def test_write_distribution_bit_exact(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        store.save(spec, result)
        loaded = store.load(spec)
        ours = loaded.write_distribution
        theirs = result.write_distribution
        assert np.array_equal(ours.counts, theirs.counts)
        assert ours.label == theirs.label
        assert loaded.max_writes_per_iteration == result.max_writes_per_iteration

    def test_in_memory_transport_matches_disk(self, tmp_path, spec, result):
        """The encoded in-memory pair decodes to what the store loads."""
        shipped = restore_result(*encode_result(result))
        store = ResultStore(tmp_path)
        store.save(spec, result)
        loaded = store.load(spec)
        for name in ("write_counts", "read_counts"):
            ours = getattr(shipped.state, name)
            theirs = getattr(loaded.state, name)
            assert np.array_equal(ours, theirs)
            original = getattr(result.state, name)
            assert np.array_equal(ours, original)
            assert ours.dtype == theirs.dtype == original.dtype
        assert shipped.iteration_latency_s == loaded.iteration_latency_s

    def test_restore_rejects_alien_version(self, result):
        metadata, arrays = encode_result(result)
        metadata["format_version"] = 999
        with pytest.raises(ValueError, match="unsupported result format"):
            restore_result(metadata, arrays)


class TestStoreSemantics:
    def test_miss_returns_none(self, tmp_path, spec):
        store = ResultStore(tmp_path)
        assert store.load(spec) is None
        assert len(store) == 0

    def test_contains_after_save(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        store.save(spec, result, wall_s=1.25)
        assert store.load(spec) is not None
        assert len(store) == 1
        assert list(store.hashes()) == [spec.content_hash]

    def test_sidecar_records_identity_and_timing(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        store.save(spec, result, wall_s=1.25)
        record, arrays = load_sealed_arrays(
            store.sidecar_for(spec).read_bytes()
        )
        assert arrays == {}
        assert record["content_hash"] == spec.content_hash
        assert record["wall_s"] == 1.25
        assert record["spec"] == spec.identity()

    def test_payload_without_sidecar_is_incomplete(self, tmp_path, spec, result):
        """An interrupted save (no sidecar yet) must read as a miss."""
        store = ResultStore(tmp_path)
        store.save(spec, result)
        store.sidecar_for(spec).unlink()
        assert store.load(spec) is None
        assert len(store) == 0

    def test_corrupt_payload_is_a_miss(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        store.save(spec, result)
        store.path_for(spec).write_bytes(b"not a sealed record")
        assert store.load(spec) is None

    def test_truncated_payload_is_a_miss(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        store.save(spec, result)
        path = store.path_for(spec)
        path.write_bytes(path.read_bytes()[:100])
        assert store.load(spec) is None

    def test_sidecar_of_another_key_is_a_miss(self, tmp_path, spec, result):
        # Both files are intact, but the sidecar names another key.
        source = ResultStore(tmp_path / "source")
        source.save(spec, result)
        store = ResultStore(tmp_path / "store")
        other = "ab" * 32
        store.sidecar_for(other).parent.mkdir()
        store.sidecar_for(other).write_bytes(
            source.sidecar_for(spec).read_bytes()
        )
        store.path_for(other).write_bytes(source.path_for(spec).read_bytes())
        assert store.load(other) is None
        assert len(store) == 0
        assert list(store.hashes()) == []

    def test_count_is_the_keys_load_answers(self, tmp_path, spec, result):
        # One intact entry beside one of each kind load refuses.
        store = ResultStore(tmp_path)
        specs = [
            JobSpec(
                workload=spec.workload,
                architecture=spec.architecture,
                config=spec.config,
                iterations=spec.iterations,
                seed=seed,
            )
            for seed in range(5)
        ]
        for job in specs:
            store.save(job, result)
        intact, corrupt, truncated, unsidecared, foreign = specs
        store.path_for(corrupt).write_bytes(b"not a sealed record")
        raw = store.path_for(truncated).read_bytes()
        store.path_for(truncated).write_bytes(raw[: len(raw) // 2])
        store.sidecar_for(unsidecared).unlink()
        store.sidecar_for(foreign).write_bytes(
            store.sidecar_for(intact).read_bytes()
        )
        answered = [
            job.content_hash for job in specs if store.load(job) is not None
        ]
        assert answered == [intact.content_hash]
        assert len(store) == len(answered)
        assert list(store.hashes()) == answered

    def test_every_file_is_a_sealed_record(self, tmp_path, spec, result):
        # Payload, sidecar and manifest decode through the one codec and
        # re-encode to the same bytes.
        store = ResultStore(tmp_path)
        store.save(spec, result, wall_s=0.5)
        paths = (
            store.path_for(spec),
            store.sidecar_for(spec),
            store.manifest_for(spec),
        )
        assert [path.suffix for path in paths] == [
            ".result", ".spec", ".manifest"
        ]
        for path in paths:
            raw = path.read_bytes()
            assert dump_sealed_arrays(*load_sealed_arrays(raw)) == raw
        metadata, arrays = encode_result(result)
        loaded_metadata, loaded = load_sealed_arrays(paths[0].read_bytes())
        assert loaded_metadata == metadata
        assert {k: v.tobytes() for k, v in loaded.items()} == {
            k: v.tobytes() for k, v in arrays.items()
        }

    @pytest.mark.parametrize("failing", [1, 2, 3])
    def test_failed_write_leaves_no_temp_file(
        self, tmp_path, spec, result, monkeypatch, failing
    ):
        # The payload, the sidecar or the manifest fails to land.
        replace, calls = os.replace, []

        def flaky(src, dst):
            calls.append(dst)
            if len(calls) == failing:
                raise OSError("disk gone")
            replace(src, dst)

        store = ResultStore(tmp_path)
        monkeypatch.setattr(os, "replace", flaky)
        with pytest.raises(OSError, match="disk gone"):
            store.save(spec, result)
        assert [p for p in tmp_path.rglob("*") if "tmp" in p.name] == []
        # The entry is complete once its sidecar has landed.
        assert (store.load(spec) is not None) == (failing == 3)

    def test_clear(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        store.save(spec, result)
        assert store.clear() == 1
        assert len(store) == 0
        assert store.load(spec) is None

    def test_clear_removes_entries_load_refuses(self, tmp_path, spec, result):
        # A damaged payload and a lone foreign sidecar are not counted,
        # but clearing the store still deletes their files.
        store = ResultStore(tmp_path)
        store.save(spec, result)
        store.path_for(spec).write_bytes(b"not a sealed record")
        other = "ab" * 32
        store.sidecar_for(other).parent.mkdir()
        store.sidecar_for(other).write_bytes(
            store.sidecar_for(spec).read_bytes()
        )
        assert len(store) == 0
        assert store.clear() == 2
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

    def test_no_temp_files_left_behind(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        store.save(spec, result)
        leftovers = [
            p for p in tmp_path.rglob("*") if "tmp" in p.name
        ]
        assert leftovers == []

    def test_concurrent_saves_of_one_key_leave_one_entry(
        self, tmp_path, spec, result
    ):
        # Every temp file is per process, so two processes saving the
        # same key never replace each other's temp file away.
        context = multiprocessing.get_context("spawn")
        start = context.Barrier(2)
        workers = [
            context.Process(
                target=_save_repeatedly,
                args=(tmp_path, spec, result, start, 150),
            )
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert not any(worker.is_alive() for worker in workers)
        assert [worker.exitcode for worker in workers] == [0, 0]
        store = ResultStore(tmp_path)
        assert list(store.hashes()) == [spec.content_hash]
        loaded = store.load(spec)
        assert np.array_equal(
            loaded.state.write_counts, result.state.write_counts
        )
        assert store.load_manifest(spec)["content_hash"] == spec.content_hash
        assert [p for p in tmp_path.rglob("*") if "tmp" in p.name] == []


def _save_repeatedly(root, spec, result, start, times):
    store = ResultStore(root)
    start.wait()
    for _ in range(times):
        store.save(spec, result)


class TestManifestReadApi:
    def test_load_manifest_round_trip(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        store.save(spec, result, wall_s=0.5)
        manifest = store.load_manifest(spec)
        assert manifest is not None
        assert manifest["content_hash"] == spec.content_hash
        assert manifest["seed"] == spec.seed
        assert manifest["iterations"] == spec.iterations
        assert manifest["wall_s"] == 0.5
        assert "telemetry" in manifest

    def test_manifest_records_numpy_provenance(
        self, tmp_path, spec, result
    ):
        store = ResultStore(tmp_path)
        store.save(spec, result)
        manifest = store.load_manifest(spec)
        assert "backend" not in manifest
        assert "fastforward" not in manifest
        assert manifest["numpy_version"] == np.__version__
        assert manifest["blas"] == blas_implementation()

    def test_blas_implementation_is_nonempty_string(self):
        label = blas_implementation()
        assert isinstance(label, str) and label

    def test_manifest_with_retired_backend_key_still_checks(
        self, tmp_path, spec, result
    ):
        """Manifests that record the retired array backend keep passing
        the RPR017 schema check, and keep loading once written sealed."""
        store = ResultStore(tmp_path)
        store.save(spec, result)
        old = {**store.load_manifest(spec), "backend": "numpy"}
        assert check_manifest(old) == []
        store.manifest_for(spec).write_bytes(dump_sealed_arrays(old, {}))
        assert store.load_manifest(spec) == old

    def test_manifest_with_retired_kernel_keys_still_checks(
        self, tmp_path, spec, result
    ):
        """Manifests that carry the retired ``kernel``/``chunk_size``/
        ``fastforward`` keys keep passing RPR017 and keep loading once
        written sealed, and their entries stay cache hits."""
        store = ResultStore(tmp_path)
        store.save(spec, result)
        assert not {"kernel", "chunk_size", "fastforward"} & set(
            store.load_manifest(spec)
        )
        old = {
            **store.load_manifest(spec),
            "kernel": "epoch",
            "chunk_size": 64,
            "fastforward": False,
        }
        assert check_manifest(old) == []
        store.manifest_for(spec).write_bytes(dump_sealed_arrays(old, {}))
        assert store.load_manifest(spec) == old
        assert dict(store.iter_manifests())[spec.content_hash] == old
        assert store.load(spec) is not None

    @pytest.mark.parametrize("drop", ["content_hash", "seed", "telemetry"])
    def test_off_schema_manifest_reads_as_absent(
        self, tmp_path, spec, result, drop
    ):
        # Sealed intact, but missing a required key (RPR017).
        store = ResultStore(tmp_path)
        store.save(spec, result)
        manifest = store.load_manifest(spec)
        del manifest[drop]
        assert check_manifest(manifest)
        store.manifest_for(spec).write_bytes(
            dump_sealed_arrays(manifest, {})
        )
        assert store.load_manifest(spec) is None
        assert list(store.iter_manifests()) == []
        assert store.load(spec) is not None  # the result itself still hits

    def test_manifest_with_arrays_reads_as_absent(
        self, tmp_path, spec, result
    ):
        store = ResultStore(tmp_path)
        store.save(spec, result)
        store.manifest_for(spec).write_bytes(
            dump_sealed_arrays(
                store.load_manifest(spec), {"x": np.zeros(1)}
            )
        )
        assert store.load_manifest(spec) is None

    def test_load_manifest_missing_is_none(self, tmp_path, spec):
        store = ResultStore(tmp_path)
        assert store.load_manifest(spec) is None

    def test_iter_manifests_streams_every_entry(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        store.save(spec, result, wall_s=0.5)
        entries = dict(store.iter_manifests())
        assert spec.content_hash in entries
        assert entries[spec.content_hash] == store.load_manifest(spec)

    def test_iter_manifests_skips_unreadable(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        store.save(spec, result)
        store.manifest_for(spec).write_text("{broken json")
        assert list(store.iter_manifests()) == []

    def test_iter_manifests_is_sorted_and_deterministic(
        self, tmp_path, spec, result
    ):
        store = ResultStore(tmp_path)
        store.save(spec, result)
        other = JobSpec(
            workload=spec.workload,
            architecture=spec.architecture,
            config=spec.config,
            iterations=spec.iterations,
            seed=spec.seed + 1,
        )
        store.save(other, result)
        first = [digest for digest, _ in store.iter_manifests()]
        second = [digest for digest, _ in store.iter_manifests()]
        assert first == second
        assert set(first) == {spec.content_hash, other.content_hash}


class TestSharding:
    def test_shard_is_isolated_sub_store(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        shard = store.shard("mult-StxSt")
        shard.save(spec, result)
        assert shard.load(spec) is not None
        assert store.load(spec) is None
        assert len(store) == 0  # parent hashes() stays clean
        assert shard.root == store.root / "shards" / "mult-StxSt"

    def test_parent_iter_manifests_covers_shards(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        store.shard("cohort-a").save(spec, result)
        entries = dict(store.iter_manifests())
        assert spec.content_hash in entries

    def test_shard_names_are_slugged(self, tmp_path):
        store = ResultStore(tmp_path)
        shard = store.shard("conv/RaxBs+Hw")
        assert shard.root.name == "conv_RaxBs_Hw"

    def test_unusable_shard_name_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="no usable characters"):
            store.shard("///")
