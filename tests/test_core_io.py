"""Tests for repro.core.io: result persistence."""

import numpy as np
import pytest

from repro.balance.config import BalanceConfig
from repro.core.io import load_result, save_result, save_distributions_csv
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
        path = str(tmp_path / "run.npz")
        save_result(result, path)
        loaded = load_result(path)
        for name in ("write_counts", "read_counts"):
            restored = getattr(loaded.state, name)
            original = getattr(result.state, name)
            assert restored.dtype == original.dtype
            assert restored.dtype.kind == "u"
            assert np.array_equal(restored, original)

    def test_metadata_survives(self, result, tmp_path):
        path = str(tmp_path / "run.npz")
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
        path = str(tmp_path / "run.npz")
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
        path = str(tmp_path / "run.npz")
        save_result(result, path)
        loaded = load_result(path)
        assert loaded.write_distribution.max == result.write_distribution.max
        assert "RaxSt+Hw" in loaded.write_distribution.label

    def test_version_check(self, result, tmp_path):
        import json

        path = str(tmp_path / "run.npz")
        save_result(result, path)
        # Corrupt the version field.
        with np.load(path) as archive:
            metadata = json.loads(str(archive["metadata"]))
            arrays = {
                name: archive[name]
                for name in archive.files
                if name != "metadata"
            }
        metadata["format_version"] = 99
        np.savez_compressed(path, metadata=json.dumps(metadata), **arrays)
        with pytest.raises(ValueError, match="unsupported"):
            load_result(path)


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
