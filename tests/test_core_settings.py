"""SimulationSettings: validation, legacy aliases, hash stability."""

import warnings

import numpy as np
import pytest

from repro.balance.config import BalanceConfig
from repro.core.settings import (
    SimulationSettings,
    reset_deprecation_latch,
)
from repro.core.simulator import EnduranceSimulator
from repro.core.sweep import simulate_configs
from repro.engine import JobSpec, run_simulation
from repro.workloads.multiply import ParallelMultiplication


@pytest.fixture(autouse=True)
def rearmed_latch():
    """Each test sees the once-per-process warning fresh."""
    reset_deprecation_latch()
    yield
    reset_deprecation_latch()


class TestValidation:
    def test_defaults(self):
        s = SimulationSettings()
        assert s.seed == 0
        assert s.track_reads is True

    def test_unknown_kernel_rejected(self):
        # The kernel knobs are gone: every run takes the one epoch
        # kernel, so naming one is an error, not a silent no-op.
        for knob in ("kernel", "chunk_size", "fastforward"):
            with pytest.raises(TypeError, match=knob):
                SimulationSettings(**{knob: None})

    def test_unknown_log_level_rejected(self):
        with pytest.raises(ValueError, match="log_level"):
            SimulationSettings(log_level="loud")

    def test_unknown_evaluator_rejected(self):
        assert SimulationSettings().evaluator == "compiled"
        assert (
            SimulationSettings(evaluator="interpreted").evaluator
            == "interpreted"
        )
        with pytest.raises(ValueError, match="evaluator"):
            SimulationSettings(evaluator="magic")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SimulationSettings().seed = 1

    def test_replace_revalidates(self):
        s = SimulationSettings()
        assert s.replace(seed=3).seed == 3
        with pytest.raises(ValueError, match="evaluator"):
            s.replace(evaluator="magic")


class TestDeprecationWarning:
    def test_legacy_kwarg_warns_once_per_process(self, tiny_arch):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            EnduranceSimulator(tiny_arch, seed=1)
            EnduranceSimulator(tiny_arch, seed=2)
        deprecations = [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]
        assert len(deprecations) == 1
        assert "settings=" in str(deprecations[0].message)

    def test_settings_path_never_warns(self, tiny_arch):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            EnduranceSimulator(tiny_arch, SimulationSettings(seed=1))
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]

    def test_run_legacy_kwargs_warn(self, tiny_arch):
        sim = EnduranceSimulator(tiny_arch)
        with pytest.warns(DeprecationWarning, match="EnduranceSimulator.run"):
            sim.run(
                ParallelMultiplication(bits=8), BalanceConfig(),
                iterations=50, track_reads=False,
            )

    @pytest.mark.parametrize("knob", ["kernel", "chunk_size"])
    def test_removed_kernel_kwargs_are_type_errors(self, tiny_arch, knob):
        sim = EnduranceSimulator(tiny_arch)
        with pytest.raises(TypeError, match=knob):
            EnduranceSimulator(tiny_arch, **{knob: None})
        with pytest.raises(TypeError, match=knob):
            sim.run(
                ParallelMultiplication(bits=8), BalanceConfig(),
                iterations=5, **{knob: None},
            )
        with pytest.raises(TypeError, match=knob):
            run_simulation(
                ParallelMultiplication(bits=8), BalanceConfig(), tiny_arch,
                5, **{knob: None},
            )
        with pytest.raises(TypeError, match=knob):
            simulate_configs(
                sim, ParallelMultiplication(bits=8), [BalanceConfig()], 5,
                **{knob: None},
            )


class TestEquivalence:
    def test_legacy_and_settings_paths_agree_bitwise(self, tiny_arch):
        workload = ParallelMultiplication(bits=8)
        config = BalanceConfig.from_label("RaxRa")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            legacy = EnduranceSimulator(tiny_arch, seed=11).run(
                workload, config, iterations=200
            )
        modern = EnduranceSimulator(
            tiny_arch, SimulationSettings(seed=11)
        ).run(workload, config, iterations=200)
        assert np.array_equal(
            legacy.state.write_counts, modern.state.write_counts
        )

    def test_simulator_properties_delegate_to_settings(self, tiny_arch):
        sim = EnduranceSimulator(tiny_arch, SimulationSettings(seed=5))
        assert sim.seed == 5
        assert sim.settings.track_reads is True

    def test_run_settings_override_simulator_settings(self, tiny_arch):
        workload = ParallelMultiplication(bits=8)
        sim = EnduranceSimulator(tiny_arch, SimulationSettings(seed=1))
        overridden = sim.run(
            workload, BalanceConfig.from_label("RaxRa"), iterations=100,
            settings=SimulationSettings(seed=2),
        )
        direct = EnduranceSimulator(
            tiny_arch, SimulationSettings(seed=2)
        ).run(workload, BalanceConfig.from_label("RaxRa"), iterations=100)
        assert np.array_equal(
            overridden.state.write_counts, direct.state.write_counts
        )

    def test_simulate_configs_settings_path_matches_legacy(self, tiny_arch):
        workload = ParallelMultiplication(bits=8)
        configs = [BalanceConfig(), BalanceConfig.from_label("RaxRa")]
        sim = EnduranceSimulator(tiny_arch, SimulationSettings(seed=3))
        via_settings = simulate_configs(
            sim, workload, configs, 100,
            settings=SimulationSettings(seed=3, track_reads=False),
        )
        plain = simulate_configs(sim, workload, configs, 100)
        for config in configs:
            assert np.array_equal(
                via_settings[config].state.write_counts,
                plain[config].state.write_counts,
            )

    def test_run_simulation_settings_path(self, tiny_arch, tmp_path):
        workload = ParallelMultiplication(bits=8)
        result = run_simulation(
            workload, BalanceConfig(), tiny_arch, 100,
            settings=SimulationSettings(seed=4),
            cache_dir=str(tmp_path),
        )
        assert result.state.write_counts.sum() > 0


class TestHashStability:
    def test_from_settings_hash_matches_legacy_spec(self, tiny_arch):
        workload = ParallelMultiplication(bits=8)
        config = BalanceConfig.from_label("RaxRa")
        legacy = JobSpec(
            workload=workload, architecture=tiny_arch, config=config,
            iterations=500, seed=9, track_reads=True,
        )
        modern = JobSpec.from_settings(
            workload, tiny_arch, config=config, iterations=500,
            settings=SimulationSettings(seed=9, track_reads=True),
        )
        assert legacy.content_hash == modern.content_hash

    def test_telemetry_options_never_reach_the_hash(self, tiny_arch):
        workload = ParallelMultiplication(bits=8)
        quiet = JobSpec.from_settings(
            workload, tiny_arch, settings=SimulationSettings(seed=1)
        )
        loud = JobSpec.from_settings(
            workload, tiny_arch,
            settings=SimulationSettings(
                seed=1, log_level="debug", trace_path="t.jsonl", progress=True
            ),
        )
        assert quiet.content_hash == loud.content_hash

    def test_evaluator_never_reaches_the_hash(self, tiny_arch):
        # The evaluator is a pure speed knob:
        # results are bit-identical, so caches must not split on it.
        workload = ParallelMultiplication(bits=8)
        compiled = JobSpec.from_settings(
            workload, tiny_arch, settings=SimulationSettings(seed=1)
        )
        interpreted = JobSpec.from_settings(
            workload, tiny_arch,
            settings=SimulationSettings(seed=1, evaluator="interpreted"),
        )
        assert compiled.content_hash == interpreted.content_hash

    def test_spec_settings_round_trip(self, tiny_arch):
        spec = JobSpec.from_settings(
            ParallelMultiplication(bits=8), tiny_arch,
            settings=SimulationSettings(seed=2, track_reads=True),
        )
        assert spec.settings == SimulationSettings(seed=2, track_reads=True)
