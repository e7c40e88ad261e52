"""Tests for the repro-endurance CLI."""

import pytest

from repro.array.architecture import default_architecture
from repro.balance.config import BalanceConfig
from repro.cli import build_parser, main
from repro.core.simulator import EnduranceSimulator
from repro.workloads.multiply import ParallelMultiplication


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in (
            "opcounts", "table2", "fig5", "heatmap", "fig17",
            "table3", "lifetime", "fig11b", "remap-sweep",
        ):
            assert command in text

    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            main([])


class TestCommands:
    def test_opcounts_prints_paper_numbers(self, capsys):
        assert main(["opcounts"]) == 0
        out = capsys.readouterr().out
        assert "9824" in out
        assert "153.5x" in out

    def test_table2(self, capsys):
        main(["table2"])
        out = capsys.readouterr().out
        assert "61.78" in out

    def test_fig5(self, capsys):
        main(["--rows", "256", "--cols", "64", "fig5", "--bits", "8"])
        out = capsys.readouterr().out
        assert "Writes/cell" in out

    def test_heatmap(self, capsys):
        main([
            "--rows", "256", "--cols", "128",
            "heatmap", "--workload", "mult", "--config", "RaxSt",
            "--iterations", "50",
        ])
        out = capsys.readouterr().out
        assert "max" in out

    def test_fig17_small(self, capsys):
        main([
            "--rows", "256", "--cols", "64",
            "fig17", "--workload", "mult", "--iterations", "30",
        ])
        out = capsys.readouterr().out
        assert "RaxBs+Hw" in out

    def test_fig11b(self, capsys):
        main(["--rows", "64", "--cols", "64", "fig11b", "--trials", "2"])
        out = capsys.readouterr().out
        assert "usable" in out.lower()

    def test_lifetime(self, capsys):
        main([
            "--rows", "256", "--cols", "128",
            "lifetime", "--technology", "RRAM", "--iterations", "50",
        ])
        out = capsys.readouterr().out
        assert "Eq. 1 bound" in out
        assert "RRAM" in out

    def test_report(self, capsys):
        main([
            "--rows", "256", "--cols", "64",
            "report", "--workload", "mult", "--config", "StxSt+Hw",
            "--iterations", "20",
        ])
        out = capsys.readouterr().out
        assert "Eq. 4 lifetime" in out
        assert "PCM" in out

    def test_export(self, capsys, tmp_path):
        main([
            "--rows", "256", "--cols", "64",
            "export", "--workload", "mult", "--config", "RaxSt",
            "--iterations", "20", "--out", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert "saved" in out
        files = {p.suffix for p in tmp_path.iterdir()}
        assert files == {".result", ".csv", ".pgm"}

    def test_switching(self, capsys):
        main([
            "--rows", "256", "--cols", "64",
            "switching", "--bits", "8", "--samples", "4",
        ])
        out = capsys.readouterr().out
        assert "switch fraction" in out

    def test_switching_evaluators_agree(self, capsys):
        # The command takes the compiled path; its figures must be the
        # interpreted oracle's.
        from repro.core.switching import _measure_switching_interpreted

        main([
            "--rows", "256", "--cols", "64", "--seed", "5",
            "switching", "--bits", "6", "--samples", "8",
        ])
        out = capsys.readouterr().out
        program = ParallelMultiplication(bits=6).build_program(
            default_architecture(256, 64)
        )
        oracle = _measure_switching_interpreted(program, samples=8, rng=5)
        assert f"switches/iteration: {oracle.switches.sum():.1f}" in out
        assert f"switch fraction:    {oracle.switch_fraction:.2%}" in out
        assert "--evaluator" not in build_parser().format_help()

    def test_deployment(self, capsys):
        main([
            "--rows", "256", "--cols", "64",
            "deployment", "--iterations", "50", "--arrays", "16",
        ])
        out = capsys.readouterr().out
        assert "Duty cycle" in out
        assert "farm" in out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["heatmap", "--workload", "sorting"])

    def test_unknown_workload_message_suggests_and_lists(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["heatmap", "--workload", "mutl"])
        message = str(excinfo.value)
        assert "did you mean 'mult'" in message
        assert "registered workloads:" in message
        assert "gemv-trace" in message

    def test_registry_workload_accepted_by_heatmap(self, capsys):
        main([
            "--rows", "256", "--cols", "64",
            "heatmap", "--workload", "gemv-trace", "--config", "StxSt",
            "--iterations", "20",
        ])
        out = capsys.readouterr().out
        assert "max" in out

    def test_trace_runs_bundled_fixture(self, capsys):
        assert main([
            "--rows", "256", "--cols", "64",
            "trace", "--config", "StxSt", "BsxBs", "--iterations", "20",
        ]) == 0
        out = capsys.readouterr().out
        assert "gemv-trace" in out
        assert "verify: no diagnostics (2 configs)" in out
        assert "days to failure" in out

    def test_trace_verify_only_skips_simulation(self, capsys):
        assert main([
            "--rows", "256", "--cols", "64",
            "trace", "--verify-only",
        ]) == 0
        out = capsys.readouterr().out
        assert "verify: no diagnostics" in out
        assert "days to failure" not in out

    def test_trace_rejects_bad_file(self, tmp_path):
        bad = tmp_path / "bad.trace"
        bad.write_text("PIM FROBNICATE 0x0 0x1\nPIM EXIT\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "--file", str(bad)])
        assert "invalid trace" in str(excinfo.value)

    def test_trace_rejects_missing_file(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "--file", "/nonexistent/x.trace"])
        assert "cannot read trace" in str(excinfo.value)


FLEET_ARGS = [
    "--rows", "128", "--cols", "128",
    "fleet", "--arrays", "6", "--days", "3",
    "--workloads", "add:2", "conv",
    "--technology-mix", "MRAM", "RRAM",
    "--traffic", "deterministic", "--rate", "100",
    "--cohort-iterations", "100",
]


class TestFleetCommand:
    def test_fleet_renders_report(self, capsys):
        assert main(FLEET_ARGS) == 0
        out = capsys.readouterr().out
        assert "fleet report" in out
        assert "survival at horizon" in out
        assert "report hash" in out

    def test_fleet_json_output(self, capsys):
        import json

        assert main(FLEET_ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["days_simulated"] == 3
        assert len(payload["death_days"]) == 6
        assert "report_hash" in payload

    def test_fleet_pause_and_resume_matches_straight_run(
        self, capsys, tmp_path
    ):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main(FLEET_ARGS + ["--json"] + cache) == 0
        straight = capsys.readouterr().out

        argv = FLEET_ARGS + cache + [
            "--checkpoint-dir", str(tmp_path / "ck"),
        ]
        assert main(argv + ["--stop-after-day", "2"]) == 0
        assert "paused after day 2" in capsys.readouterr().out
        assert main(argv + ["--json"]) == 0
        resumed = capsys.readouterr().out

        import json

        assert (
            json.loads(resumed)["report_hash"]
            == json.loads(straight)["report_hash"]
        )

    def test_fleet_bad_mix_token_rejected(self):
        with pytest.raises(SystemExit):
            main(["fleet", "--technology-mix", "MRAM:heavy"])

    def test_fleet_stop_without_checkpoint_dir_rejected(self):
        with pytest.raises(ValueError):
            main(FLEET_ARGS + ["--stop-after-day", "1"])


class TestEngineFlags:
    """--cache-dir routes grid commands through repro.engine."""

    def test_engine_flags_registered(self):
        parser = build_parser()
        for command in ("heatmap", "fig17", "table3", "remap-sweep"):
            args = parser.parse_args([command, "--cache-dir", "x"])
            assert args.cache_dir == "x"

    def test_fig17_with_cache_populates_store_and_reruns_warm(
        self, capsys, tmp_path
    ):
        argv = [
            "--rows", "256", "--cols", "64",
            "fig17", "--workload", "mult", "--iterations", "30",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "RaxBs+Hw" in cold.out
        assert "18 to simulate" in cold.err
        assert len(list(tmp_path.rglob("*.result"))) == 18

        assert main(argv) == 0
        warm = capsys.readouterr()
        assert "18 cached, 0 to simulate" in warm.err
        assert cold.out == warm.out

    def test_heatmap_with_cache(self, capsys, tmp_path):
        main([
            "--rows", "256", "--cols", "128",
            "heatmap", "--workload", "mult", "--config", "RaxSt",
            "--iterations", "50",
            "--cache-dir", str(tmp_path),
        ])
        captured = capsys.readouterr()
        assert "max" in captured.out
        assert "[engine]" in captured.err

    def test_remap_sweep_with_cache(self, capsys, tmp_path):
        main([
            "--rows", "256", "--cols", "64",
            "remap-sweep", "--workload", "mult", "--iterations", "200",
            "--intervals", "100", "50",
            "--cache-dir", str(tmp_path),
        ])
        captured = capsys.readouterr()
        assert "50" in captured.out
        assert "3 job(s)" in captured.err


SIM_SUBCOMMANDS = (
    "heatmap", "fig17", "table3", "lifetime", "report", "export",
    "deployment", "remap-sweep", "fleet", "trace",
)

#: Subcommands that take a ``--workload`` name (resolved via the
#: registry — any registered name must parse, not just the historical
#: choices list).
WORKLOAD_SUBCOMMANDS = ("heatmap", "fig17", "report", "export", "remap-sweep")


class TestRegistryFlagAudit:
    """Every --workload flag accepts every registered name."""

    @pytest.mark.parametrize("command", WORKLOAD_SUBCOMMANDS)
    def test_all_registered_names_parse(self, command):
        from repro.workloads.registry import available_workloads

        parser = build_parser()
        for name in available_workloads():
            args = parser.parse_args([command, "--workload", name])
            assert args.workload == name


class TestFlagAudit:
    """Every simulation-backed subcommand accepts the full flag set."""

    @pytest.mark.parametrize("command", SIM_SUBCOMMANDS)
    def test_full_flag_set_parses_after_subcommand(self, command):
        parser = build_parser()
        args = parser.parse_args([
            command,
            "--cache-dir", "x",
            "--seed", "9",
            "--log-level", "info", "--trace", "t.jsonl", "--progress",
        ])
        assert args.cache_dir == "x"
        assert args.seed == 9
        assert args.log_level == "info"
        assert args.trace == "t.jsonl"
        assert args.progress is True

    @pytest.mark.parametrize("command", SIM_SUBCOMMANDS)
    def test_global_flags_survive_subcommand_defaults(self, command):
        """Subcommand duplicates must not clobber main-parser values."""
        parser = build_parser()
        args = parser.parse_args(
            ["--seed", "9", "--trace", "t.jsonl", command]
        )
        assert args.seed == 9
        assert args.trace == "t.jsonl"

    @pytest.mark.parametrize(
        "flag", [["--kernel", "epoch"], ["--chunk-size", "64"],
                 ["--fast-forward"]],
    )
    def test_removed_kernel_flags_are_rejected(self, flag, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([*flag, "heatmap"])
        with pytest.raises(SystemExit):
            parser.parse_args(["heatmap", *flag])
        assert flag[0] in capsys.readouterr().err

    @pytest.mark.parametrize("command", SIM_SUBCOMMANDS)
    def test_jobs_flag_is_rejected(self, command, capsys):
        # Every job runs in the CLI's own process: there is no worker
        # count, so the flag is an argparse usage error.
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--jobs", "2"])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err


class TestFastForwardFlag:
    """There is no flag any more: periodic configs fast-forward on their
    own, and the only run-time refusal left is a clean one."""

    def test_eligible_config_renders_identically(self, capsys):
        from repro.workloads.registry import get_workload

        assert main([
            "--rows", "256", "--cols", "64", "heatmap",
            "--workload", "mult", "--config", "BsxBs",
            "--iterations", "40",
        ]) == 0
        rendered = capsys.readouterr().out
        oracle = EnduranceSimulator(
            default_architecture(256, 64)
        )._run_epoch_loop(
            get_workload("mult"), BalanceConfig.from_label("BsxBs"), 40
        ).write_distribution
        assert rendered == (
            oracle.ascii_heatmap(blocks=(256 // 32, 64 // 16))
            + "\n\n" + oracle.summary() + "\n"
        )

    @pytest.mark.parametrize("store", [False, True], ids=["no-store", "store"])
    def test_ineligible_config_refused_cleanly(self, capsys, tmp_path, store):
        # A horizon whose writes reach 2^53 cannot be counted exactly in
        # float64: refused with RPR019 before anything runs, with or
        # without a store, its diagnostic on the one failure line.
        cache = ["--cache-dir", str(tmp_path)] if store else []
        status = main([
            "--rows", "256", "--cols", "64",
            "heatmap", "--workload", "mult", "--config", "RaxRa",
            "--iterations", str(2**53), *cache,
        ])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        (failure,) = [
            line for line in captured.err.splitlines()
            if line.startswith("error: ")
        ]
        assert failure.startswith("error: 1 job(s) failed: ")
        assert ": RPR019 error: " in failure
        assert "(hint: shorten the horizon" in failure
        assert "Traceback" not in captured.err

    def test_failed_storeless_job_is_one_error_line(self, capsys):
        # 32-bit multiply does not fit a 64-bit lane: the job fails, and
        # without --cache-dir the failure is its one line, no traceback.
        status = main([
            "--rows", "64", "--cols", "64",
            "heatmap", "--workload", "mult", "--iterations", "10",
        ])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.err == (
            "error: 1 job(s) failed: multiplication-32b StxSt x10 seed=0: "
            "MemoryError: lane capacity 63 exhausted (63 bits live)\n"
        )


class TestTelemetryFlags:
    def test_trace_writes_jsonl_and_stats_summarizes(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main([
            "--rows", "256", "--cols", "64",
            "heatmap", "--iterations", "50", "--trace", str(trace),
        ]) == 0
        capsys.readouterr()
        assert trace.exists()

        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "record(s)" in out
        assert "simulations: 1 run(s)" in out
        assert "kernel" in out  # per-phase timings

    def test_traced_engine_run_reports_cache_and_jobs(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        argv = [
            "--rows", "256", "--cols", "64", "--trace", str(trace),
            "heatmap", "--iterations", "50",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        assert main(argv) == 0  # warm: trace rewritten with a cache hit
        capsys.readouterr()
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "cache: 1 hit(s), 0 miss(es)" in out
        assert "cached" in out

    def test_traced_cold_sweep_builds_once(self, capsys, tmp_path):
        # A geometry no other test uses keeps the process-wide memo cold.
        trace = tmp_path / "trace.jsonl"
        assert main([
            "--rows", "136", "--cols", "40", "--trace", str(trace),
            "fig17", "--workload", "add", "--iterations", "20",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        capsys.readouterr()
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "cache: 0 hit(s), 18 miss(es)" in out
        rows = {
            line.split()[0]: line.split()[1]
            for line in out.splitlines() if line.startswith("  ")
        }
        assert rows["mapping_compile"] == "1"  # the phase's call count
        # Each of the 18 cells asks for the mapping once, in its run;
        # only the first builds it, and each run verifies once.
        assert rows["mapping.memo_misses"] == "1"
        assert rows["mapping.memo_hits"] == "17"
        assert rows["verify.runs"] == "18"
        assert int(rows["verify.program_memo_hits"]) >= 17

    def test_traced_fleet_reports_threshold_layer(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main([
            "--rows", "128", "--cols", "128", "--seed", "7",
            "--trace", str(trace),
            "fleet", "--arrays", "8", "--days", "3",
            "--workloads", "add", "conv", "--technology-mix", "MRAM", "PCM",
            "--sigma", "0.3", "--traffic", "deterministic", "--rate", "8e6",
            "--cohort-iterations", "200",
        ]) == 0
        capsys.readouterr()
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        rows = {
            line.split()[0]: line.split()[1]
            for line in out.splitlines() if line.startswith("  ")
        }
        assert rows["fleet.thresholds"] == "1"  # the phase's call count
        assert rows["fleet.threshold_draws"] == "8"

    def test_progress_flag_renders_lines_on_stderr(self, capsys):
        main([
            "--rows", "256", "--cols", "64",
            "heatmap", "--iterations", "50", "--progress",
        ])
        captured = capsys.readouterr()
        assert "[sim]" in captured.err
        assert "[phase]" in captured.err

    def test_stats_rejects_malformed_trace(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"event": "phase"}\n')
        with pytest.raises(SystemExit, match="invalid trace"):
            main(["stats", str(bad)])

    def test_stats_rejects_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["stats", str(tmp_path / "absent.jsonl")])


class TestVerifyWholeSystem:
    """``verify --fleet/--self``: the static whole-system passes behind
    the workload-sweep subcommand (RPR015, RPR018)."""

    def test_fleet_and_self_clean_json(self, capsys):
        import json

        code = main([
            "verify", "--fleet", "--self", "--arrays", "16", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"] == {
            "errors": 0, "warnings": 0, "total": 0, "exit_code": 0,
        }

    def test_self_lint_alone(self, capsys):
        assert main(["verify", "--self"]) == 0
        out = capsys.readouterr().out
        assert "repo self-lint" in out
        assert "verify: no diagnostics" in out
