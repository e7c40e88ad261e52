"""JobSpec content hashing: stability and sensitivity."""

import pickle

import pytest

from repro.balance.config import BalanceConfig
from repro.core.settings import SimulationSettings
from repro.engine import JobSpec
from repro.synth.bits import AllocationPolicy
from repro.workloads.multiply import ParallelMultiplication


def spec(arch, **overrides):
    defaults = dict(
        workload=ParallelMultiplication(bits=8),
        architecture=arch,
        config=BalanceConfig.from_label("RaxBs"),
        iterations=500,
        seed=7,
        track_reads=False,
    )
    defaults.update(overrides)
    return JobSpec(**defaults)


class TestHashStability:
    def test_equal_parts_equal_hash(self, tiny_arch):
        assert spec(tiny_arch).content_hash == spec(tiny_arch).content_hash

    def test_fresh_workload_instance_same_hash(self, tiny_arch):
        a = spec(tiny_arch, workload=ParallelMultiplication(bits=8))
        b = spec(tiny_arch, workload=ParallelMultiplication(bits=8))
        assert a.content_hash == b.content_hash

    def test_hash_is_hex_sha256(self, tiny_arch):
        digest = spec(tiny_arch).content_hash
        assert len(digest) == 64
        int(digest, 16)

    def test_content_hash_is_pinned(self, tiny_arch):
        """Store entries and checkpoints are keyed by this hash; a spec
        field change that moves it would orphan every cached result."""
        assert spec(tiny_arch).content_hash == (
            "47a20fab50226eec0b1e88f5c9ffce4688446033b028edeb3983a17534bf6275"
        )

    def test_hash_is_computed_once_per_spec(self, tiny_arch, monkeypatch):
        job = spec(tiny_arch)
        calls = []
        identity = JobSpec.identity
        monkeypatch.setattr(
            JobSpec, "identity", lambda self: calls.append(1) or identity(self)
        )
        assert job.content_hash == job.content_hash == spec(
            tiny_arch
        ).content_hash
        assert len(calls) == 2  # once for each of the two specs

    def test_pickled_spec_keeps_its_hash(self, tiny_arch):
        expected = spec(tiny_arch).content_hash
        cold, warm = spec(tiny_arch), spec(tiny_arch)
        warm.content_hash  # cached before pickling
        for job in (cold, warm):
            copy = pickle.loads(pickle.dumps(job))
            assert copy.content_hash == expected


class TestHashSensitivity:
    def test_iterations_change_hash(self, tiny_arch):
        assert (
            spec(tiny_arch).content_hash
            != spec(tiny_arch, iterations=501).content_hash
        )

    def test_seed_changes_hash(self, tiny_arch):
        assert (
            spec(tiny_arch).content_hash
            != spec(tiny_arch, seed=8).content_hash
        )

    def test_config_changes_hash(self, tiny_arch):
        other = spec(tiny_arch, config=BalanceConfig.from_label("RaxBs+Hw"))
        assert spec(tiny_arch).content_hash != other.content_hash

    def test_recompile_interval_changes_hash(self, tiny_arch):
        other = spec(
            tiny_arch,
            config=BalanceConfig.from_label("RaxBs").with_interval(50),
        )
        assert spec(tiny_arch).content_hash != other.content_hash

    def test_track_reads_changes_hash(self, tiny_arch):
        assert (
            spec(tiny_arch).content_hash
            != spec(tiny_arch, track_reads=True).content_hash
        )

    def test_architecture_changes_hash(self, tiny_arch, small_arch):
        assert (
            spec(tiny_arch).content_hash
            != spec(small_arch).content_hash
        )

    def test_workload_params_change_hash_despite_shared_name(self, tiny_arch):
        """Two workloads sharing a display name must not collide."""
        ring = ParallelMultiplication(bits=8)
        packed = ParallelMultiplication(
            bits=8, allocation_policy=AllocationPolicy.LOWEST_FIRST
        )
        assert ring.name == packed.name
        assert (
            spec(tiny_arch, workload=ring).content_hash
            != spec(tiny_arch, workload=packed).content_hash
        )


class TestHashExclusions:
    """The kernel path is chosen per config and never reaches the hash.

    The hashes below were computed before the ``kernel`` /
    ``chunk_size`` / ``fastforward`` knobs were removed, with every
    value of those knobs; cached results and checkpoints keyed by them
    stay valid.
    """

    def test_kernel_hash_excluded(self, tiny_arch):
        # RaxBs takes the kernel's chunked ("batched") branch.
        assert "kernel" not in spec(tiny_arch).identity()
        assert spec(tiny_arch).content_hash == (
            "47a20fab50226eec0b1e88f5c9ffce4688446033b028edeb3983a17534bf6275"
        )

    def test_fastforward_hash_excluded(self, tiny_arch):
        # BsxBs takes the fast-forward branch.
        bsxbs = spec(tiny_arch, config=BalanceConfig.from_label("BsxBs"))
        assert "fastforward" not in bsxbs.identity()
        assert bsxbs.content_hash == (
            "ee867116f369f91ff7b42497de6621c69fd83ba5a088e5f20193966d3b9d8343"
        )

    def test_settings_round_trip_carries_speed_knobs(self, tiny_arch):
        """No speed knob is left to carry: the settings round trip holds
        exactly seed and read tracking, and the old knobs are refused."""
        settings = SimulationSettings(seed=7, track_reads=True)
        round_trip = JobSpec.from_settings(
            ParallelMultiplication(bits=8), tiny_arch, settings=settings
        ).settings
        assert round_trip == settings
        for knob in ("kernel", "chunk_size", "fastforward"):
            with pytest.raises(TypeError, match=knob):
                spec(tiny_arch, **{knob: None})


class TestValidation:
    def test_rejects_non_positive_iterations(self, tiny_arch):
        with pytest.raises(ValueError, match="iterations"):
            spec(tiny_arch, iterations=0)

    def test_label_mentions_workload_and_config(self, tiny_arch):
        label = spec(tiny_arch).label
        assert "multiplication-8b" in label
        assert "RaxBs" in label
