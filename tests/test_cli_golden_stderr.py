"""Golden CLI stderr: the engine's progress lines, byte for byte.

Drives :func:`repro.cli.main` in-process with a frozen clock (a stubbed
``time.perf_counter``, so every duration prints as zero) and compares
stderr with the files under ``tests/golden/``. Stdout is pinned by
digest. The cases cover a cold and a warm serial ``fig17 --cache-dir``
run with and without ``--progress`` (whose ``[job]`` line comes before
the ``[engine]`` line of the same job), a ``fleet --cache-dir`` run
(which prints no engine lines), and an engine batch whose one job
fails (the ``FAILED`` line, then one error line and exit status 1).

Regenerate a golden file only when a change to the CLI's output is
intended, and say so in the change's notes.
"""

import hashlib
import time
from pathlib import Path

import pytest

from repro import cli
from repro.core import simulator
from repro.telemetry import Telemetry, set_telemetry

GOLDEN = Path(__file__).parent / "golden"

GEOMETRY = ["--rows", "256", "--cols", "64"]

FIG17 = ["fig17", "--workload", "mult", "--iterations", "30"]

#: sha256 of ``fig17``'s stdout above, cold or warm, with or without
#: ``--progress``.
FIG17_STDOUT = (
    "99d424c0c3a0ecf633737c01b31d16b971ea124fdb375a56911be308a52760a4"
)

#: sha256 of the ``fleet`` run's stdout.
FLEET_STDOUT = (
    "55b622a72fed9179512a050c8676670b4744fbe8b71e1c17f490ce1b39dfad28"
)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _golden(name):
    return (GOLDEN / name).read_text(encoding="utf-8")


@pytest.fixture
def run_cli(monkeypatch, capsys):
    """Run the CLI on a frozen clock, fresh telemetry and a cold memo.

    Returns ``run(*argv) -> (stdout, stderr)``.
    """
    monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
    monkeypatch.setattr(simulator, "_MAPPINGS", type(simulator._MAPPINGS)())
    previous = set_telemetry(Telemetry())

    def run(*argv):
        capsys.readouterr()
        assert cli.main(list(argv)) == 0
        return capsys.readouterr()

    try:
        yield run
    finally:
        set_telemetry(previous)


@pytest.mark.parametrize("progress", [[], ["--progress"]], ids=["plain", "progress"])
def test_fig17_cold_then_warm(run_cli, tmp_path, progress):
    suffix = "_progress" if progress else ""
    argv = [*GEOMETRY, *FIG17, "--cache-dir", str(tmp_path), *progress]
    cold_out, cold_err = run_cli(*argv)
    warm_out, warm_err = run_cli(*argv)
    assert cold_err == _golden(f"fig17_cold{suffix}.stderr")
    assert warm_err == _golden(f"fig17_warm{suffix}.stderr")
    assert _digest(cold_out) == FIG17_STDOUT
    assert warm_out == cold_out


def test_fleet_prints_no_engine_lines(run_cli, tmp_path):
    out, err = run_cli(
        "--rows", "128", "--cols", "128", "--seed", "7", "fleet",
        "--arrays", "2", "--days", "2", "--workloads", "add",
        "--traffic", "deterministic", "--rate", "100",
        "--cohort-iterations", "50", "--cache-dir", str(tmp_path),
    )
    assert err == ""
    assert _digest(out) == FLEET_STDOUT


def test_failed_job_line(run_cli, tmp_path, capsys):
    # A 32-bit multiply cannot fit a 64-column array's lanes: the job
    # fails, and the CLI exits 1 with one error line instead of a
    # traceback.
    status = cli.main([
        "--rows", "64", "--cols", "64", "heatmap", "--workload", "mult",
        "--iterations", "10", "--cache-dir", str(tmp_path),
    ])
    assert status == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == _golden("heatmap_failed.stderr")
