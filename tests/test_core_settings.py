"""SimulationSettings: the one configuration path, hash stability."""

import warnings

import numpy as np
import pytest

from repro.array.executor import replay_assignment
from repro.array.state import ArrayState
from repro.balance.config import BalanceConfig
from repro.cli import _make_settings, build_parser
from repro.core.accuracy import measure_fault_accuracy
from repro.core.io import save_result
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator
from repro.core.sweep import simulate_configs
from repro.core.switching import measure_switching
from repro.engine import JobSpec, ResultStore, run_simulation
from repro.workloads.multiply import ParallelMultiplication


_SIMULATION_ENTRY_POINTS = (
    "EnduranceSimulator", "run", "run_simulation", "simulate_configs",
)

#: Every removed keyword, and the entry points that used to take it.
#: The sweeps keep their own ``track_reads=`` (the writes-only default).
_REMOVED_KWARGS = {
    "kernel": _SIMULATION_ENTRY_POINTS,
    "chunk_size": _SIMULATION_ENTRY_POINTS,
    "seed": ("EnduranceSimulator", "run_simulation"),
    "track_reads": ("EnduranceSimulator", "run", "run_simulation"),
    "evaluator": ("measure_fault_accuracy", "measure_switching"),
    "method": ("replay_assignment",),
    "compress": ("ResultStore", "save_result"),
}


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
        # Telemetry options configure sinks, not runs: the settings
        # carry none of them.
        for knob in ("log_level", "trace_path", "progress"):
            with pytest.raises(TypeError, match=knob):
                SimulationSettings(**{knob: None})

    def test_unknown_evaluator_rejected(self):
        # There is no backend knob: evaluation always takes the
        # compiled path.
        with pytest.raises(TypeError, match="evaluator"):
            SimulationSettings(evaluator="compiled")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SimulationSettings().seed = 1

    def test_replace_revalidates(self):
        s = SimulationSettings()
        assert s.replace(seed=3).seed == 3
        with pytest.raises(TypeError, match="evaluator"):
            s.replace(evaluator="magic")


class TestDeprecationWarning:
    def test_settings_path_never_warns(self, tiny_arch):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            EnduranceSimulator(tiny_arch, SimulationSettings(seed=1))
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]

    @pytest.mark.parametrize("knob", sorted(_REMOVED_KWARGS))
    def test_removed_kernel_kwargs_are_type_errors(
        self, tiny_arch, tmp_path, knob
    ):
        # The kernel knobs, the per-field settings aliases, the backend
        # switches and the compression switches of the store and of
        # save_result are gone: each entry point that took one now
        # rejects it.
        sim = EnduranceSimulator(tiny_arch)
        workload = ParallelMultiplication(bits=8)
        program = ParallelMultiplication(bits=4).build_program(tiny_arch)
        entry_points = {
            "EnduranceSimulator": lambda **kw: EnduranceSimulator(
                tiny_arch, **kw
            ),
            "run": lambda **kw: sim.run(
                workload, BalanceConfig(), iterations=5, **kw
            ),
            "run_simulation": lambda **kw: run_simulation(
                workload, BalanceConfig(), tiny_arch, 5, **kw
            ),
            "simulate_configs": lambda **kw: simulate_configs(
                sim, workload, [BalanceConfig()], 5, **kw
            ),
            "measure_fault_accuracy": lambda **kw: measure_fault_accuracy(
                program, lambda a, b: a * b, samples=1, **kw
            ),
            "measure_switching": lambda **kw: measure_switching(
                program, samples=1, **kw
            ),
            "replay_assignment": lambda **kw: replay_assignment(
                tiny_arch, {0: program}, ArrayState(tiny_arch.geometry), **kw
            ),
            "ResultStore": lambda **kw: ResultStore(tmp_path, **kw),
            "save_result": lambda **kw: save_result(
                sim.run(workload, BalanceConfig(), iterations=5),
                str(tmp_path / "run.result"),
                **kw,
            ),
        }
        for name in _REMOVED_KWARGS[knob]:
            with pytest.raises(TypeError, match=knob):
                entry_points[name](**{knob: None})


class TestEquivalence:
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
        # The CLI's telemetry flags attach sinks; the settings (and so
        # the job hash) see only --seed.
        parser = build_parser()
        quiet = _make_settings(parser.parse_args(["--seed", "1", "fig5"]))
        loud = _make_settings(
            parser.parse_args(
                ["--seed", "1", "--log-level", "debug", "--trace", "t.jsonl",
                 "--progress", "fig5"]
            )
        )
        assert quiet == loud == SimulationSettings(seed=1)
        workload = ParallelMultiplication(bits=8)
        assert (
            JobSpec.from_settings(workload, tiny_arch, settings=quiet)
            .content_hash
            == JobSpec.from_settings(workload, tiny_arch, settings=loud)
            .content_hash
        )

    def test_spec_settings_round_trip(self, tiny_arch):
        spec = JobSpec.from_settings(
            ParallelMultiplication(bits=8), tiny_arch,
            settings=SimulationSettings(seed=2, track_reads=True),
        )
        assert spec.settings == SimulationSettings(seed=2, track_reads=True)
