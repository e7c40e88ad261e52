"""The example scripts must run end-to-end on the public API."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def _run(name, argv=None, monkeypatch=None):
    if monkeypatch is not None and argv is not None:
        monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")


class TestExamples:
    def test_quickstart(self, capsys):
        _run("quickstart.py")
        out = capsys.readouterr().out
        assert "lifetime improvement" in out
        assert "days" in out

    def test_wear_leveling_study(self, capsys, monkeypatch):
        _run(
            "wear_leveling_study.py",
            argv=["wear_leveling_study.py", "mult"],
            monkeypatch=monkeypatch,
        )
        out = capsys.readouterr().out
        assert "best configuration" in out
        assert "RaxBs+Hw" in out

    def test_wear_leveling_rejects_unknown_workload(self, monkeypatch):
        monkeypatch.setattr(
            sys, "argv", ["wear_leveling_study.py", "sorting"]
        )
        with pytest.raises(SystemExit, match="unknown workload"):
            _run("wear_leveling_study.py")

    def test_failed_cell_study(self, capsys):
        _run("failed_cell_study.py")
        out = capsys.readouterr().out
        assert "usable bits per lane" in out
        assert "Lane-set workaround" in out

    def test_technology_explorer(self, capsys):
        _run("technology_explorer.py")
        out = capsys.readouterr().out
        assert "MRAM" in out and "PCM" in out
        assert "days" in out

    def test_design_space_tour(self, capsys):
        _run("design_space_tour.py")
        out = capsys.readouterr().out
        assert "Gate fabric" in out
        assert "repacking" in out
        assert "Deployment" in out

    def test_resumable_sweep(self, capsys, monkeypatch, tmp_path):
        cache = tmp_path / "store"
        _run(
            "resumable_sweep.py",
            argv=["resumable_sweep.py", str(cache)],
            monkeypatch=monkeypatch,
        )
        out = capsys.readouterr().out
        assert "killed after 6 jobs" in out
        assert "resumes from the store" in out
        # the resume pass reports 6 cache hits out of 18 jobs
        assert "18 job(s): 6 cached" in out
        assert "best configuration" in out

    def test_resumable_sweep_second_run_all_hits(
        self, capsys, monkeypatch, tmp_path
    ):
        cache = tmp_path / "store"
        argv = ["resumable_sweep.py", str(cache)]
        _run("resumable_sweep.py", argv=argv, monkeypatch=monkeypatch)
        capsys.readouterr()
        _run("resumable_sweep.py", argv=argv, monkeypatch=monkeypatch)
        out = capsys.readouterr().out
        assert "18 job(s): 18 cached" in out

    def test_traced_sweep(self, capsys, monkeypatch, tmp_path):
        trace = tmp_path / "trace.jsonl"
        _run(
            "traced_sweep.py",
            argv=["traced_sweep.py", str(trace)],
            monkeypatch=monkeypatch,
        )
        out = capsys.readouterr().out
        assert "swept 2 recompile intervals" in out
        assert "simulations: 3 run(s)" in out
        assert trace.exists()

        from repro.telemetry import summarize_trace

        summary = summarize_trace(str(trace))
        assert summary["events"]["simulation"] == 3
        assert summary["events"]["job_end"] == 3
