"""ExperimentEngine behaviour: caching, single attempts, failure containment."""

import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.balance.config import BalanceConfig, all_configurations
from repro.core.sweep import (
    configuration_grid,
    remap_frequency_sweep,
    simulate_configs,
)
from repro.engine import (
    EngineError,
    ExperimentEngine,
    JobSpec,
    JobStatus,
    ResultStore,
    require_ok,
    run_simulation,
)
from repro.telemetry import (
    CaptureSink,
    Telemetry,
    capture,
    get_telemetry,
    set_telemetry,
)
from repro.workloads.multiply import ParallelMultiplication


@pytest.fixture
def fresh_telemetry():
    """An isolated process-local registry for counter assertions."""
    fresh = Telemetry()
    previous = set_telemetry(fresh)
    try:
        yield fresh
    finally:
        set_telemetry(previous)


class BatchCapture(CaptureSink):
    """Captures a batch's bus events; reads its census and its tallies."""

    @property
    def batch_starts(self):
        return [(r["total"], r["cached"]) for r in self.of("batch_start")]

    @property
    def batch_end(self):
        (end,) = self.of("batch_end")
        return end


def run_captured(engine, specs):
    """Run one batch with a :class:`BatchCapture` on the bus."""
    sink = get_telemetry().add_sink(BatchCapture())
    try:
        return engine.run(specs), sink
    finally:
        get_telemetry().remove_sink(sink)


def make_specs(arch, configs, iterations=150, seed=7, bits=8):
    workload = ParallelMultiplication(bits=bits)
    return [
        JobSpec(
            workload=workload,
            architecture=arch,
            config=config,
            iterations=iterations,
            seed=seed,
        )
        for config in configs
    ]


class TestCaching:
    def test_second_run_is_all_cache_hits(self, tiny_arch, tmp_path):
        specs = make_specs(tiny_arch, all_configurations()[:4])
        store = ResultStore(tmp_path)
        cold = ExperimentEngine(store=store).run(specs)
        assert [o.status for o in cold] == [JobStatus.COMPLETED] * 4

        warm, batch = run_captured(ExperimentEngine(store=store), specs)
        assert [o.status for o in warm] == [JobStatus.CACHED] * 4
        assert batch.batch_starts == [(4, 4)]
        assert batch.batch_end["completed"] == 0

    def test_cached_counters_match_fresh(self, tiny_arch, tmp_path):
        specs = make_specs(tiny_arch, [BalanceConfig.from_label("RaxRa")])
        store = ResultStore(tmp_path)
        fresh = ExperimentEngine(store=store).run(specs)[0]
        cached = ExperimentEngine(store=store).run(specs)[0]
        assert np.array_equal(
            cached.result.state.write_counts,
            fresh.result.state.write_counts,
        )

    def test_interrupted_batch_resumes_from_completed_jobs(
        self, tiny_arch, tmp_path
    ):
        """A killed grid re-simulates only the jobs that had not finished."""
        specs = make_specs(tiny_arch, all_configurations())
        store = ResultStore(tmp_path)
        # "Interrupted" run: only 6 of 18 jobs completed before the kill.
        ExperimentEngine(store=store).run(specs[:6])
        assert len(store) == 6

        resumed, batch = run_captured(ExperimentEngine(store=store), specs)
        assert batch.batch_starts == [(18, 6)]
        assert batch.batch_end["cached"] == 6
        assert batch.batch_end["completed"] == 12
        assert all(o.ok for o in resumed)

    def test_cache_probe_never_sizes_the_store(
        self, tiny_arch, tmp_path, monkeypatch
    ):
        """The probe tests for a store by identity, not truthiness:
        ``len(store)`` globs every sidecar, and an empty store is falsy."""
        specs = make_specs(tiny_arch, all_configurations()[:3])
        store = ResultStore(tmp_path)
        ExperimentEngine(store=store).run(specs[:2])

        def refuse(self):
            raise AssertionError("cache probe sized the store")

        monkeypatch.setattr(ResultStore, "__len__", refuse)
        outcomes, batch = run_captured(ExperimentEngine(store=store), specs)
        assert [o.status for o in outcomes] == [
            JobStatus.CACHED,
            JobStatus.CACHED,
            JobStatus.COMPLETED,
        ]
        assert batch.batch_starts == [(3, 2)]
        assert batch.batch_end["cached"] == 2

    def test_engine_without_store_always_simulates(self, tiny_arch):
        specs = make_specs(tiny_arch, all_configurations()[:2])
        outcomes, batch = run_captured(ExperimentEngine(), specs)
        assert [o.status for o in outcomes] == [JobStatus.COMPLETED] * 2
        assert batch.batch_end["cached"] == 0


class TestDeduplication:
    def test_identical_specs_simulated_once(self, tiny_arch):
        spec = make_specs(tiny_arch, [BalanceConfig()])[0]
        outcomes, batch = run_captured(ExperimentEngine(), [spec, spec, spec])
        assert batch.batch_starts == [(1, 0)]
        assert batch.batch_end["completed"] == 1
        assert len(outcomes) == 3
        assert all(o.ok for o in outcomes)
        assert outcomes[1].result is outcomes[0].result


class TestFailureContainment:
    def test_failed_job_records_traceback_and_batch_continues(self, tiny_arch):
        # 32-bit multiply cannot fit a 63-bit-capacity lane: deterministic
        # failure, while the 8-bit jobs around it succeed.
        good = make_specs(tiny_arch, [BalanceConfig()], bits=8)
        bad = make_specs(tiny_arch, [BalanceConfig()], bits=32)
        outcomes = ExperimentEngine().run(good + bad)
        assert outcomes[0].status is JobStatus.COMPLETED
        assert outcomes[1].status is JobStatus.FAILED
        assert outcomes[1].result is None
        assert "lane capacity" in outcomes[1].error

    def test_deterministic_failure_runs_once_without_sleeping(
        self, tiny_arch, monkeypatch
    ):
        # A job fails the same way every time, so it is never re-run
        # and never waited on.
        def refuse(seconds):
            raise AssertionError(f"engine slept {seconds}s")

        monkeypatch.setattr(time, "sleep", refuse)
        bad = make_specs(tiny_arch, [BalanceConfig()], bits=32)
        with capture() as sink:
            (outcome,) = ExperimentEngine().run(bad)
        assert outcome.status is JobStatus.FAILED
        assert len(sink.of("job_start")) == 1

    def test_failed_job_in_pool_mode(self, tiny_arch, tmp_path):
        good = make_specs(tiny_arch, [BalanceConfig()], bits=8)
        bad = make_specs(tiny_arch, [BalanceConfig()], bits=32)
        engine = ExperimentEngine(store=ResultStore(tmp_path), jobs=2)
        outcomes = engine.run(good + bad)
        assert outcomes[0].status is JobStatus.COMPLETED
        assert outcomes[1].status is JobStatus.FAILED
        assert "lane capacity" in outcomes[1].error

    def test_failed_pool_job_is_submitted_once(
        self, tiny_arch, tmp_path, fresh_telemetry
    ):
        good = make_specs(tiny_arch, [BalanceConfig()], bits=8)
        bad = make_specs(tiny_arch, [BalanceConfig()], bits=32)
        engine = ExperimentEngine(store=ResultStore(tmp_path), jobs=2)
        with capture() as sink:
            outcomes = engine.run(good + bad)
        assert outcomes[1].status is JobStatus.FAILED
        starts = [e["label"] for e in sink.of("job_start")]
        assert starts.count(bad[0].label) == 1
        assert fresh_telemetry.counters["engine.failures"] == 1

    def test_require_ok_raises_engine_error(self, tiny_arch):
        bad = make_specs(tiny_arch, [BalanceConfig()], bits=32)
        outcomes = ExperimentEngine().run(bad)
        with pytest.raises(EngineError, match="1 job\\(s\\) failed"):
            require_ok(outcomes)

    def test_require_ok_passes_clean_batches_through(self, tiny_arch):
        good = make_specs(tiny_arch, [BalanceConfig()])
        outcomes = ExperimentEngine().run(good)
        assert require_ok(outcomes) == outcomes


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched worker function reaches workers only by fork",
)
class TestWorkerDeath:
    @pytest.mark.parametrize(
        "start_delay_s", [0.0, 0.3], ids=["burst", "slow-submits"]
    )
    def test_dead_worker_fails_its_jobs_without_raising(
        self, tiny_arch, monkeypatch, fresh_telemetry, start_delay_s
    ):
        # Patched before the pool forks, so only the workers exit.
        def die(spec):
            os._exit(3)

        class SlowStarts(CaptureSink):
            """A sink slow on ``job_start``: at 0.3 s the pool breaks
            between two submits, so the later submits themselves raise."""

            def handle(self, record):
                if record["event"] == "job_start":
                    time.sleep(start_delay_s)

        monkeypatch.setattr("repro.engine.runner.execute_spec", die)
        fresh_telemetry.add_sink(SlowStarts())
        specs = make_specs(tiny_arch, all_configurations()[:3])
        outcomes = ExperimentEngine(jobs=2).run(specs)
        assert [o.status for o in outcomes] == [JobStatus.FAILED] * 3
        for outcome in outcomes:
            assert "BrokenProcessPool" in outcome.error


class TestValidation:
    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            ExperimentEngine(jobs=-1)

    @pytest.mark.parametrize(
        "entry",
        [
            ExperimentEngine,
            run_simulation,
            simulate_configs,
            configuration_grid,
            remap_frequency_sweep,
        ],
    )
    def test_hooks_parameter_is_gone(self, entry):
        # The telemetry bus is the one way to observe a batch.
        with pytest.raises(TypeError, match="hooks"):
            entry(**{"hooks": None})

    @pytest.mark.parametrize(
        "option", ["retries", "backoff_s", "timeout_s", "verify"]
    )
    def test_single_attempt_options_are_gone(self, option):
        # Every job runs once and is always verified before dispatch,
        # so the engine takes only a store and a worker count.
        with pytest.raises(TypeError, match=option):
            ExperimentEngine(**{option: None})


class TestFailureTelemetry:
    """Failures leave a full audit trail: outcome fields, counters, events."""

    def test_raising_worker_emits_events_and_counters(
        self, tiny_arch, fresh_telemetry
    ):
        bad = make_specs(tiny_arch, [BalanceConfig()], bits=32)[0]
        with capture() as sink:
            outcome = ExperimentEngine().run_one(bad)

        assert outcome.status is JobStatus.FAILED
        assert outcome.result is None
        assert "lane capacity" in outcome.error

        assert fresh_telemetry.counters["engine.failures"] == 1

        (end,) = sink.of("job_end")
        assert end["status"] == "failed"
        assert end["label"] == bad.label
        # The failure's reason rides on the event: the traceback's last line.
        assert end["error"] == outcome.error.strip().splitlines()[-1]
        assert end["error"].startswith("MemoryError: lane capacity")

    def test_batch_events_cover_census_and_metrics(
        self, tiny_arch, tmp_path, fresh_telemetry
    ):
        specs = make_specs(tiny_arch, all_configurations()[:3])
        store = ResultStore(tmp_path)
        ExperimentEngine(store=store).run(specs[:1])
        fresh_telemetry.reset()

        with capture() as sink:
            ExperimentEngine(store=store).run(specs)

        (start,) = sink.of("batch_start")
        assert start["total"] == 3
        assert start["cached"] == 1
        (end,) = sink.of("batch_end")
        assert end["completed"] == 2
        assert end["cached"] == 1
        assert end["failed"] == 0
        assert 0.0 <= end["utilization"]
        assert fresh_telemetry.counters["engine.cache_hits"] == 1
        assert fresh_telemetry.counters["engine.cache_misses"] == 2
        cached_ends = [
            e for e in sink.of("job_end") if e["status"] == "cached"
        ]
        assert len(cached_ends) == 1

    def test_job_end_events_round_trip_through_trace_schema(
        self, tiny_arch, fresh_telemetry
    ):
        from repro.telemetry import validate_record

        specs = make_specs(tiny_arch, [BalanceConfig()])
        with capture() as sink:
            (outcome,) = ExperimentEngine().run(specs)
        for record in sink.records:
            validate_record(record)
        (end,) = sink.of("job_end")
        assert end["status"] == "completed"
        assert "error" not in end
        # Unrounded, so a sink printing it rounds exactly once.
        assert end["wall_s"] == outcome.wall_s


class TestPoolWorkerTelemetry:
    """Pool workers start on a fresh registry, not the parent's."""

    def test_worker_manifest_holds_only_its_own_counters(
        self, tiny_arch, tmp_path, fresh_telemetry
    ):
        fresh_telemetry.count("engine.jobs", 99)  # parent-side history
        store = ResultStore(tmp_path)
        specs = make_specs(tiny_arch, all_configurations()[:3])
        outcomes = ExperimentEngine(store=store, jobs=2).run(specs)
        assert all(o.status is JobStatus.COMPLETED for o in outcomes)
        manifests = dict(store.iter_manifests())
        assert len(manifests) == 3
        for manifest in manifests.values():
            counters = manifest["telemetry"]["counters"]
            assert counters["sim.runs"] >= 1
            assert not [name for name in counters if name.startswith("engine.")]

    def test_worker_progress_stays_out_of_stderr(self, tmp_path):
        """Under ``--progress --jobs 2`` only the parent prints."""
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
        }
        done = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "--rows", "256",
                "--cols", "64", "fig17", "--workload", "mult",
                "--iterations", "30", "--jobs", "2", "--cache-dir",
                str(tmp_path / "store"), "--progress",
            ],
            capture_output=True, text=True, env=env, timeout=300,
            check=True,
        )
        lines = done.stderr.splitlines()
        assert lines[0] == "[engine] 18 job(s): 0 cached, 18 to simulate"
        assert sum(line.startswith("[job] completed") for line in lines) == 18
        # The parent compiles the mapping for pre-dispatch verification;
        # the runs themselves happen in the workers.
        assert "[phase] mapping_compile" in done.stderr
        assert not [
            line for line in lines
            if line.startswith(("[sim]", "[phase] kernel"))
        ]
