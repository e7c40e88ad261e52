"""ExperimentEngine behaviour: caching, single attempts, failure containment."""

import time

import numpy as np
import pytest

from repro.balance.config import BalanceConfig, all_configurations
from repro.core.simulator import EnduranceSimulator
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
from repro.fleet.service import FleetService, run_campaign
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
        ``len(store)`` reads every entry, and an empty store is falsy."""
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

    def test_require_ok_raises_engine_error(self, tiny_arch):
        bad = make_specs(tiny_arch, [BalanceConfig()], bits=32)
        outcomes = ExperimentEngine().run(bad)
        with pytest.raises(EngineError, match="1 job\\(s\\) failed"):
            require_ok(outcomes)

    def test_require_ok_passes_clean_batches_through(self, tiny_arch):
        good = make_specs(tiny_arch, [BalanceConfig()])
        outcomes = ExperimentEngine().run(good)
        assert require_ok(outcomes) == outcomes


class TestValidation:
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
        # so the engine takes only a store.
        with pytest.raises(TypeError, match=option):
            ExperimentEngine(**{option: None})

    @pytest.mark.parametrize(
        "entry",
        [
            ExperimentEngine,
            run_simulation,
            simulate_configs,
            configuration_grid,
            remap_frequency_sweep,
            FleetService,
            run_campaign,
        ],
    )
    def test_jobs_option_is_gone(self, entry):
        # Every job runs in the caller's process: there is no worker
        # count to choose.
        with pytest.raises(TypeError, match="jobs"):
            entry(**{"jobs": 2})


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
        assert end["error"].startswith(
            "repro.synth.bits.LaneCapacityError: lane capacity"
        )

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


class TestVerifiedOnce:
    """The simulator's gate is the only static check: ``verify.runs``
    equals the number of jobs simulated, on every route."""

    CONFIGS = [BalanceConfig.from_label(c) for c in ("RaxRa", "BsxBs+Hw")]

    def test_storeless_grid(self, tiny_arch, fresh_telemetry):
        configuration_grid(
            EnduranceSimulator(tiny_arch),
            ParallelMultiplication(bits=8),
            iterations=40,
            configs=self.CONFIGS,
        )
        # The static baseline is simulated first, so three jobs ran.
        assert fresh_telemetry.counters["engine.completed"] == 3
        assert fresh_telemetry.counters["verify.runs"] == 3

    def test_cold_then_warm_store_grid(
        self, tiny_arch, tmp_path, fresh_telemetry
    ):
        def grid():
            configuration_grid(
                EnduranceSimulator(tiny_arch),
                ParallelMultiplication(bits=8),
                iterations=40,
                configs=self.CONFIGS,
                cache_dir=str(tmp_path),
            )

        grid()
        assert fresh_telemetry.counters["verify.runs"] == 3
        grid()  # all cache hits: nothing simulates, nothing verifies
        assert fresh_telemetry.counters["engine.cache_hits"] == 3
        assert fresh_telemetry.counters["verify.runs"] == 3

    def test_direct_engine_run(self, tiny_arch, fresh_telemetry):
        specs = make_specs(tiny_arch, all_configurations()[:4])
        outcomes = ExperimentEngine().run(specs + specs[:1])  # one repeat
        assert all(o.ok for o in outcomes)
        assert fresh_telemetry.counters["verify.runs"] == 4

    def test_rejected_spec_counts_once_and_names_its_code(
        self, tiny_arch, fresh_telemetry
    ):
        good = make_specs(tiny_arch, [BalanceConfig()])[0]
        refused = make_specs(tiny_arch, [BalanceConfig()], iterations=2**53)[0]
        with capture() as sink:
            outcomes = ExperimentEngine().run([refused, good])
        assert [o.status for o in outcomes] == [
            JobStatus.FAILED,
            JobStatus.COMPLETED,
        ]
        assert fresh_telemetry.counters["verify.runs"] == 2
        assert fresh_telemetry.counters["engine.rejected"] == 1
        error = outcomes[0].error
        assert error.startswith("verification failed:\nRPR019 error: ")
        (rejected,) = sink.of("job_rejected")
        assert rejected["codes"] == ["RPR019"]
        # A job_start, then the rejection, then its job_end.
        events = [
            r["event"] for r in sink.records
            if r.get("label") == refused.label
        ]
        assert events == ["job_start", "job_rejected", "job_end"]
        # The one-line reason is the diagnostic, message and hint, not
        # the report's summary line.
        (end, _) = sink.of("job_end")
        assert end["error"] == error.splitlines()[1]
        assert "(hint: shorten the horizon" in end["error"]
        with pytest.raises(EngineError, match="RPR019 error: "):
            require_ok(outcomes)
