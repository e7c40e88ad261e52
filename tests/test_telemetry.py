"""repro.telemetry: registry, sinks, trace schema, and instrumentation."""

import io
import json
import logging
import threading

import pytest

from repro.balance.config import BalanceConfig
from repro.core.simulator import EnduranceSimulator
from repro.telemetry import (
    CaptureSink,
    JsonlSink,
    LoggingSink,
    ProgressSink,
    Telemetry,
    TextReporter,
    TraceSchemaError,
    capture,
    format_stats,
    get_telemetry,
    iter_trace,
    set_telemetry,
    summarize_trace,
    validate_record,
)
from repro.workloads.multiply import ParallelMultiplication


@pytest.fixture
def tele():
    """A fresh, isolated registry installed as the process default."""
    fresh = Telemetry()
    previous = set_telemetry(fresh)
    try:
        yield fresh
    finally:
        set_telemetry(previous)


class TestAggregates:
    def test_counters_accumulate(self, tele):
        tele.count("x")
        tele.count("x", 4)
        assert tele.counters["x"] == 5

    def test_gauges_keep_last_value(self, tele):
        tele.gauge("g", 1.0)
        tele.gauge("g", 2.5)
        assert tele.gauges["g"] == 2.5

    def test_snapshot_is_json_able_and_detached(self, tele):
        tele.count("a", 2)
        tele.gauge("b", 3.0)
        with tele.timed_phase("p"):
            pass
        snap = tele.snapshot()
        json.dumps(snap)
        assert snap["counters"]["a"] == 2
        assert snap["phases"]["p"]["calls"] == 1
        tele.count("a")
        assert snap["counters"]["a"] == 2  # copy, not a view

    def test_reset_zeroes_everything_but_keeps_sinks(self, tele):
        sink = tele.add_sink(CaptureSink())
        tele.count("a")
        tele.reset()
        assert tele.counters == {}
        assert sink in tele.sinks

    def test_counts_are_thread_safe(self, tele):
        def bump():
            for _ in range(1000):
                tele.count("n")

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tele.counters["n"] == 4000


class TestPhases:
    def test_nested_phases_record_dotted_paths(self, tele):
        with tele.timed_phase("outer"):
            with tele.timed_phase("inner"):
                pass
        assert set(tele.phases) == {"outer", "outer.inner"}

    def test_phase_events_emitted_with_fields(self, tele):
        sink = tele.add_sink(CaptureSink())
        with tele.timed_phase("work", workload="mult"):
            pass
        (record,) = sink.of("phase")
        assert record["name"] == "work"
        assert record["workload"] == "mult"
        assert record["seconds"] >= 0

    def test_span_decorator_times_calls(self, tele):
        @tele.span("analysis")
        def f(x):
            return x + 1

        assert f(1) == 2
        assert f(2) == 3
        assert tele.phases["analysis"][1] == 2

    def test_span_defaults_to_function_name(self, tele):
        @tele.span()
        def compute():
            return 7

        assert compute() == 7
        assert "compute" in tele.phases


class TestEventBus:
    def test_emit_without_sinks_is_a_no_op(self, tele):
        assert not tele.enabled
        tele.emit("anything", x=1)  # must not raise or allocate records

    def test_capture_attaches_and_detaches(self, tele):
        with capture() as sink:
            get_telemetry().emit("ping", n=1)
        assert sink.of("ping")[0]["n"] == 1
        assert not tele.sinks

    def test_emit_fans_out_to_every_sink(self, tele):
        first, second = CaptureSink(), CaptureSink()
        tele.add_sink(first)
        tele.add_sink(second)
        tele.emit("e")
        assert len(first.records) == len(second.records) == 1

    def test_remove_missing_sink_is_ignored(self, tele):
        tele.remove_sink(CaptureSink())


class TestSinks:
    def test_jsonl_round_trips_through_iter_trace(self, tele, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = tele.add_sink(JsonlSink(str(path)))
        tele.emit("phase", name="p", seconds=0.25)
        tele.emit("custom", anything="goes")
        sink.close()
        records = list(iter_trace(str(path)))
        assert [r["event"] for r in records] == ["phase", "custom"]
        assert records[0]["seconds"] == 0.25

    def test_jsonl_stringifies_non_json_fields(self, tele, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = tele.add_sink(JsonlSink(str(path)))
        tele.emit("odd", payload=object())
        sink.close()
        (record,) = list(iter_trace(str(path)))
        assert "object" in record["payload"]

    def test_jsonl_record_is_on_disk_before_close(self, tele, tmp_path):
        # Line-buffered: a run killed mid-batch keeps every whole record.
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        sink.handle({"ts": 0.0, "event": "phase", "name": "p", "seconds": 0.1})
        try:
            assert path.read_text(encoding="utf-8").count("\n") == 1
        finally:
            sink.close()

    def test_logging_sink_bridges_to_stdlib(self, tele, caplog):
        tele.add_sink(LoggingSink(level=logging.INFO))
        with caplog.at_level(logging.INFO, logger="repro.telemetry"):
            tele.emit("phase", name="p", seconds=0.1)
        assert "phase" in caplog.text
        assert "name=p" in caplog.text

    def test_progress_sink_formats_known_events(self, tele):
        stream = io.StringIO()
        tele.add_sink(ProgressSink(stream=stream))
        tele.emit("phase", name="kernel", seconds=0.5)
        tele.emit("grid_progress", done=3, total=18, label="RaxRa")
        tele.emit("unknown_event", x=1)
        text = stream.getvalue()
        assert "[phase] kernel" in text
        assert "[grid] 3/18 RaxRa" in text
        assert "unknown_event" not in text


class TestTextReporter:
    """The engine's ``[engine]`` lines, rendered from its bus events."""

    def lines(self, tele, *events):
        stream = io.StringIO()
        tele.add_sink(TextReporter(stream=stream))
        for event, fields in events:
            tele.emit(event, **fields)
        return stream.getvalue().splitlines()

    def test_renders_a_batch(self, tele):
        lines = self.lines(
            tele,
            ("batch_start", {"total": 4, "cached": 1}),
            ("job_end", {"label": "a", "status": "cached", "wall_s": 0.0}),
            ("job_start", {"label": "b", "attempt": 1}),
            ("job_end", {"label": "b", "status": "completed", "wall_s": 1.0}),
            ("job_end", {"label": "c", "status": "completed", "wall_s": 2.0}),
            ("job_end", {"label": "d", "status": "failed", "wall_s": 0.0,
                         "error": "MemoryError: full"}),
            ("batch_end", {"completed": 2, "cached": 1, "failed": 1,
                           "wall_s": 4.0}),
            ("counters", {"counters": {}}),
        )
        assert lines == [
            "[engine] 4 job(s): 1 cached, 3 to simulate",
            "[engine] 2/4 done b (1.00s)",
            "[engine] 3/4 done c (2.00s)",
            "[engine] 4/4 FAILED d: MemoryError: full",
            "[engine] batch done in 4.00s: 2 simulated, 1 cached, 1 failed "
            "(0.75 cells/s, mean job 1.50s)",
        ]

    def test_batch_start_resets_the_counts(self, tele):
        lines = self.lines(
            tele,
            ("batch_start", {"total": 2, "cached": 0}),
            ("job_end", {"label": "a", "status": "completed", "wall_s": 3.0}),
            ("batch_end", {"completed": 1, "cached": 0, "failed": 0,
                           "wall_s": 3.0}),
            ("batch_start", {"total": 1, "cached": 0}),
            ("job_end", {"label": "b", "status": "completed", "wall_s": 1.0}),
            ("batch_end", {"completed": 1, "cached": 0, "failed": 0,
                           "wall_s": 0.0}),
        )
        assert lines[-2:] == [
            "[engine] 1/1 done b (1.00s)",
            "[engine] batch done in 0.00s: 1 simulated, 0 cached, 0 failed "
            "(0.00 cells/s, mean job 1.00s)",
        ]

    def test_times_are_rounded_once(self, tele):
        # 0.0049999 would print as 0.01 if it were rounded to 6 places
        # before being formatted to 2.
        (line,) = self.lines(
            tele,
            ("job_end", {"label": "a", "status": "completed",
                         "wall_s": 0.0049999}),
        )
        assert line.endswith("(0.00s)")


class TestTraceSchema:
    def test_unknown_events_are_legal(self):
        validate_record({"ts": 1.0, "event": "novel", "extra": True})

    def test_missing_ts_rejected(self):
        with pytest.raises(TraceSchemaError, match="ts"):
            validate_record({"event": "phase", "name": "p", "seconds": 1})

    def test_known_event_missing_field_rejected_with_line(self):
        with pytest.raises(TraceSchemaError, match="line 7"):
            validate_record({"ts": 1.0, "event": "phase"}, line_number=7)

    def test_iter_trace_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ts": 1.0, "event": "ok"}\nnot json\n')
        with pytest.raises(TraceSchemaError, match="line 2"):
            list(iter_trace(str(path)))

    def test_iter_trace_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"ts": 1.0, "event": "ok"}\n\n')
        assert len(list(iter_trace(str(path)))) == 1


class TestSummaries:
    def test_summarize_counts_everything(self):
        records = [
            {"ts": 1.0, "event": "phase", "name": "kernel", "seconds": 0.5},
            {"ts": 1.5, "event": "phase", "name": "kernel", "seconds": 0.5},
            {"ts": 2.0, "event": "job_end", "label": "a", "status": "completed",
             "wall_s": 1.0, "attempts": 2},
            {"ts": 2.5, "event": "job_end", "label": "b", "status": "cached",
             "wall_s": 0.0, "attempts": 0},
            {"ts": 3.0, "event": "job_retry", "label": "a", "attempt": 2},
            {"ts": 3.5, "event": "job_timeout", "label": "c", "timeout_s": 1},
            {"ts": 4.0, "event": "simulation", "workload": "m", "config": "St",
             "iterations": 100, "epochs": 1, "kernel": "batched",
             "seconds": 0.1},
        ]
        summary = summarize_trace(records)
        assert summary["records"] == 7
        assert summary["span_s"] == 3.0
        assert summary["phases"]["kernel"]["calls"] == 2
        assert summary["phases"]["kernel"]["total_s"] == 1.0
        assert summary["jobs"]["by_status"] == {"cached": 1, "completed": 1}
        assert summary["cache"] == {"hits": 1, "misses": 1}
        assert summary["retries"] == 1
        assert summary["timeouts"] == 1
        assert summary["simulations"]["iterations"] == 100
        assert summary["simulations"]["by_kernel"] == {"batched": 1}

    def test_simulation_kernel_census_reads_old_traces(self):
        # The event's kernel field names the branch that ran; traces
        # from when the per-epoch loop was selectable say "epoch" and
        # still validate.
        records = [
            validate_record(
                {"ts": float(i), "event": "simulation", "workload": "m",
                 "config": config, "iterations": 10, "epochs": 10,
                 "kernel": kernel, "seconds": 0.1}
            )
            for i, (config, kernel) in enumerate(
                [("BsxBs", "fastforward"), ("RaxRa", "batched"),
                 ("RaxRa", "epoch"), ("StxRa", "batched")]
            )
        ]
        summary = summarize_trace(records)
        assert summary["simulations"]["by_kernel"] == {
            "batched": 2, "epoch": 1, "fastforward": 1,
        }
        text = format_stats(summary)
        assert "fastforward      1" in text

    def test_summarize_accepts_a_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"ts": 1.0, "event": "x"}\n')
        assert summarize_trace(str(path))["records"] == 1

    def test_format_stats_renders_sections(self):
        summary = summarize_trace(
            [{"ts": 1.0, "event": "phase", "name": "p", "seconds": 0.1}]
        )
        text = format_stats(summary)
        assert "1 record(s)" in text
        assert "phases:" in text

    def test_summarize_counts_fleet_days_and_checkpoints(self):
        records = [
            {"ts": 1.0, "event": "fleet_day", "day": 1, "alive": 4,
             "served": 10},
            {"ts": 2.0, "event": "fleet_day", "day": 2, "alive": 4,
             "served": 12},
            {"ts": 3.0, "event": "fleet_checkpoint", "day": 2},
        ]
        summary = summarize_trace(records)
        assert summary["fleet"] == {"days": 2, "checkpoints": 1}

    def test_retired_fleet_window_events_still_parse(self):
        # Older traces carry per-window events; they validate like any
        # unknown event and are censused, not folded into fleet days.
        record = {"ts": 1.0, "event": "fleet_window", "day": 9, "days": 8,
                  "alive": 4, "served": 80}
        validate_record(record)
        summary = summarize_trace([record])
        assert summary["events"] == {"fleet_window": 1}
        assert summary["fleet"] == {"days": 0, "checkpoints": 0}

    def test_retired_array_backend_events_still_parse(self):
        # Older traces carry array-backend fallback events; they
        # validate like any unknown event and are censused. The name is
        # composed so a search for live uses of it finds none.
        event = "_".join(("backend", "fallback"))
        record = {"ts": 1.0, "event": event, "requested": "cupy",
                  "fallback": "numpy", "reason": "No module named 'cupy'"}
        validate_record(record)
        summary = summarize_trace([record])
        assert summary["events"] == {event: 1}

    def test_summarize_merges_counters_last_write_wins(self):
        records = [
            {"ts": 1.0, "event": "counters",
             "counters": {"fleet.days": 10, "pool.hits": 3}},
            {"ts": 2.0, "event": "counters",
             "counters": {"fleet.days": 25}},
        ]
        summary = summarize_trace(records)
        assert summary["counters"] == {
            "pool.hits": 3,
            "fleet.days": 25,
        }

    def test_format_stats_renders_fleet_days_and_counters(self):
        summary = summarize_trace(
            [
                {"ts": 1.0, "event": "fleet_day", "day": 1, "alive": 2,
                 "served": 16},
                {"ts": 2.0, "event": "counters",
                 "counters": {"fleet.days": 1, "pool.hits": 7}},
            ]
        )
        text = format_stats(summary)
        assert "fleet: 1 virtual day(s), 0 checkpoint(s)" in text
        assert "counters:" in text
        assert "pool.hits" in text
        assert "fleet.days" in text

    def test_summarize_censuses_diagnostic_codes(self):
        records = [
            {"ts": 1.0, "event": "verify_report",
             "codes": ["RPR014", "RPR012", "RPR012"], "errors": 3,
             "warnings": 0, "total": 3},
            {"ts": 2.0, "event": "job_rejected", "label": "j",
             "errors": 1, "codes": ["RPR011"]},
        ]
        summary = summarize_trace(records)
        assert summary["diagnostics"] == {
            "RPR011": 1,
            "RPR012": 2,
            "RPR014": 1,
        }

    def test_format_stats_renders_diagnostics_section(self):
        summary = summarize_trace(
            [
                {"ts": 1.0, "event": "verify_report",
                 "codes": ["RPR013", "RPR013"], "errors": 2,
                 "warnings": 0, "total": 2},
            ]
        )
        text = format_stats(summary)
        assert "diagnostics:" in text
        assert "RPR013" in text

    def test_no_diagnostics_section_without_findings(self):
        summary = summarize_trace(
            [{"ts": 1.0, "event": "phase", "name": "p", "seconds": 0.1}]
        )
        assert summary["diagnostics"] == {}
        assert "diagnostics:" not in format_stats(summary)


class TestSimulatorInstrumentation:
    def test_run_emits_simulation_event_and_counts(self, tiny_arch):
        fresh = Telemetry()
        previous = set_telemetry(fresh)
        try:
            sim = EnduranceSimulator(tiny_arch)
            with capture() as sink:
                sim.run(
                    ParallelMultiplication(bits=8), BalanceConfig(),
                    iterations=100,
                )
                sim.run(
                    ParallelMultiplication(bits=8),
                    BalanceConfig.from_label("RaxRa"),
                    iterations=100,
                )
            # The event records the kernel branch that actually ran.
            static, shuffled = sink.of("simulation")
            assert static["iterations"] == 100
            assert static["kernel"] == "fastforward"
            assert shuffled["kernel"] == "batched"
            assert static["writes"] > 0
            assert sink.of("phase")  # mapping_compile and kernel spans
            assert fresh.counters["sim.runs"] == 2
            assert fresh.counters["sim.iterations"] == 200
            assert fresh.counters["fastforward.runs"] == 1
            assert fresh.counters["kernel.chunks"] >= 1
            # One program on every lane: the reference set's GEMV covers
            # the whole array, so neither run pays a GEMM.
            assert fresh.counters["kernel.gemms"] == 0
        finally:
            set_telemetry(previous)
