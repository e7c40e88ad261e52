"""Tests for repro.core.io: result persistence and the sealed record."""

import json
import os

import numpy as np
import pytest

from repro.balance.config import BalanceConfig
from repro.core.io import (
    dump_sealed_arrays,
    encode_result,
    load_result,
    load_sealed_arrays,
    save_distributions_csv,
    save_result,
    write_atomic,
)
from repro.core.lifetime import lifetime_from_result
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.workloads.multiply import ParallelMultiplication


@pytest.fixture
def result(small_arch):
    sim = EnduranceSimulator(small_arch, settings=SimulationSettings(seed=5))
    return sim.run(
        ParallelMultiplication(bits=8),
        BalanceConfig.from_label("RaxSt+Hw"),
        iterations=100,
    )


class TestRoundTrip:
    def test_counters_survive(self, result, tmp_path):
        path = str(tmp_path / "run.result")
        save_result(result, path)
        loaded = load_result(path)
        for name in ("write_counts", "read_counts"):
            restored = getattr(loaded.state, name)
            original = getattr(result.state, name)
            assert restored.dtype == original.dtype
            assert restored.dtype.kind == "u"
            assert np.array_equal(restored, original)

    def test_metadata_survives(self, result, tmp_path):
        path = str(tmp_path / "run.result")
        save_result(result, path)
        loaded = load_result(path)
        assert loaded.workload_name == result.workload_name
        assert loaded.config.label == "RaxSt+Hw"
        assert loaded.iterations == result.iterations
        assert loaded.epochs == result.epochs
        assert loaded.iteration_latency_s == pytest.approx(
            result.iteration_latency_s
        )
        assert loaded.architecture.geometry == result.architecture.geometry
        assert (
            loaded.architecture.technology.name
            == result.architecture.technology.name
        )

    def test_lifetime_computable_from_loaded(self, result, tmp_path):
        path = str(tmp_path / "run.result")
        save_result(result, path)
        loaded = load_result(path)
        original = lifetime_from_result(result)
        restored = lifetime_from_result(loaded)
        assert restored.iterations_to_failure == pytest.approx(
            original.iterations_to_failure
        )
        assert restored.seconds_to_failure == pytest.approx(
            original.seconds_to_failure
        )

    def test_distributions_from_loaded(self, result, tmp_path):
        path = str(tmp_path / "run.result")
        save_result(result, path)
        loaded = load_result(path)
        assert loaded.write_distribution.max == result.write_distribution.max
        assert "RaxSt+Hw" in loaded.write_distribution.label

    def test_file_is_the_sealed_encoded_result(self, result, tmp_path):
        path = tmp_path / "run.result"
        save_result(result, path)
        metadata, arrays = encode_result(result)
        loaded_metadata, loaded = load_sealed_arrays(path.read_bytes())
        assert loaded_metadata == metadata
        assert loaded.keys() == arrays.keys()
        for name, array in arrays.items():
            assert loaded[name].dtype == array.dtype
            assert loaded[name].tobytes() == array.tobytes()

    def test_version_check(self, result, tmp_path):
        path = tmp_path / "run.result"
        metadata, arrays = encode_result(result)
        metadata["format_version"] = 99
        path.write_bytes(dump_sealed_arrays(metadata, arrays))
        with pytest.raises(ValueError, match="unsupported"):
            load_result(path)


class TestDamagedResultFile:
    @pytest.fixture
    def raw(self, result, tmp_path):
        path = tmp_path / "run.result"
        save_result(result, path)
        return path.read_bytes()

    def test_every_truncation_and_bit_flip_raises_value_error(
        self, raw, tmp_path
    ):
        # Exhaustive over the seal line and the header, and a stride of
        # the array bytes (about 68 kB of them).
        header = raw.index(b"\n", raw.index(b"\n") + 1) + 1
        path = tmp_path / "bad.result"
        for index in [*range(header), *range(header, len(raw), 101)]:
            for bad in (
                raw[:index],
                raw[:index] + bytes([raw[index] ^ 0x01]) + raw[index + 1:],
            ):
                path.write_bytes(bad)
                with pytest.raises(ValueError):
                    load_result(path)

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"PK\x03\x04 a zip archive",
            b'{"metadata": "{}"}',
            dump_sealed_arrays({}, {}),
            dump_sealed_arrays({"content_hash": "ab" * 32}, {}),
            dump_sealed_arrays(
                {"version": 2, "day": 1}, {"cumulative": np.zeros(3)}
            ),
        ],
        ids=["empty", "zip", "json", "empty-record", "manifest", "checkpoint"],
    )
    def test_foreign_file_raises_value_error(self, tmp_path, data):
        path = tmp_path / "foreign.result"
        path.write_bytes(data)
        with pytest.raises(ValueError):
            load_result(path)

    def test_legacy_npz_export_raises_value_error(self, result, tmp_path):
        metadata, arrays = encode_result(result)
        path = tmp_path / "run.npz"
        np.savez(path, metadata=json.dumps(metadata), **arrays)
        with pytest.raises(ValueError, match="damaged or foreign"):
            load_result(path)


class TestWriteAtomic:
    def test_replaces_the_file_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "record"
        write_atomic(path, b"old")
        write_atomic(path, b"new")
        assert path.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["record"]

    def test_failed_replace_leaves_the_old_file_and_no_temp_file(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "record"
        write_atomic(path, b"old")

        def broken(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", broken)
        with pytest.raises(OSError, match="disk gone"):
            write_atomic(path, b"new")
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["record"]


def reseal(header: bytes, blob: bytes) -> bytes:
    """A record with a valid digest over an arbitrary header and body."""
    import hashlib

    body = header + b"\n" + blob
    seal = hashlib.sha256(body).hexdigest().encode()
    return b"repro-sealed-arrays 1 " + seal + b"\n" + body


class TestSealedArrays:
    def test_round_trip(self):
        arrays = {
            "f": np.array([0.1, -0.0, 2.0**60, np.inf]),
            "i": np.array([[-1, 2**62], [3, 4]], dtype=np.int64),
            "u": np.arange(5, dtype=np.uint8),
            "empty": np.zeros((0, 3), dtype=np.int32),
            "strided": np.arange(10.0)[::2],
        }
        metadata = {"day": 3, "big": 2**100, "text": "é\n"}
        loaded_metadata, loaded = load_sealed_arrays(
            dump_sealed_arrays(metadata, arrays)
        )
        assert loaded_metadata == metadata
        assert list(loaded) == list(arrays)
        for name, array in arrays.items():
            assert loaded[name].dtype == array.dtype
            assert loaded[name].shape == array.shape
            assert loaded[name].tobytes() == array.tobytes()
            assert not loaded[name].flags.writeable

    def test_object_arrays_are_refused(self):
        with pytest.raises(ValueError, match="cannot seal"):
            dump_sealed_arrays({}, {"o": np.array([1, "x"], dtype=object)})

    @pytest.mark.parametrize(
        "header, blob",
        [
            (b'{"arrays": [], "metadata": {}}', b"x"),  # bytes left over
            (b'{"arrays": [["a", "<f8", [2]]], "metadata": {}}', b"\0" * 8),
            (b'{"arrays": [["a", "|O", [1]]], "metadata": {}}', b"\0" * 8),
            (b'{"arrays": [["a", "<f8", [-1]]], "metadata": {}}', b""),
            (b'{"arrays": [["a", "<f8", [1.0]]], "metadata": {}}', b"\0" * 8),
            (  # 2**70 elements
                b'{"arrays": [["a", "<f8", [1180591620717411303424]]], '
                b'"metadata": {}}',
                b"",
            ),
            (
                b'{"arrays": [["a", "|u1", [1]], ["a", "|u1", [1]]], '
                b'"metadata": {}}',
                b"\0\0",
            ),
            (b'{"arrays": {}, "metadata": {}}', b""),
            (b'{"arrays": [["a"]], "metadata": {}}', b""),
            (b'{"arrays": [], "metadata": []}', b""),
            (b"[]", b""),
            (b"\xff", b""),
            (b"[" * 100000, b""),
        ],
    )
    def test_sealed_but_inconsistent_reads_as_none(self, header, blob):
        assert load_sealed_arrays(reseal(header, blob)) is None

    def test_resealed_valid_record_reads(self):
        # The inconsistent records above differ from a readable one only
        # in their header.
        loaded = load_sealed_arrays(
            reseal(
                b'{"arrays": [["a", "<f8", [1]]], "metadata": {}}',
                np.array([2.5]).tobytes(),
            )
        )
        assert loaded[0] == {} and loaded[1]["a"].tolist() == [2.5]


class TestCsvExport:
    def test_writes_one_file_per_distribution(self, result, tmp_path):
        paths = save_distributions_csv(
            [result.write_distribution, result.read_distribution],
            str(tmp_path / "out"),
        )
        assert len(paths) == 2
        for path in paths:
            loaded = np.loadtxt(path, delimiter=",")
            assert loaded.shape == (128, 128)
