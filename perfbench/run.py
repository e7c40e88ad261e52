"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller drives the library in a closed loop: every pass of the
workload body runs in a fresh worker process (``perfbench/worker.py``,
plain ``python``), one after another, while another pass fits in
``--seconds``. A fresh process per pass means no pass reuses another's
in-process memos, and each pass yields one set-up sample. Before the
first timed pass an untimed warm-up process compiles the bytecode and
warms the page cache.

``--trace 0`` reports the end-to-end metrics: medians over the passes
of ``wall_s`` and ``peak_rss_mb``, and over at least
``MIN_SETUP_SAMPLES`` worker start-ups of ``setup_s``. The host's speed
drifts, so these runs also time a fixed job (``reference.py``) before
the first pass and after every pass, and scale ``wall_s`` and
``setup_s`` by ``REFERENCE_S`` over the job's median: the times read
as seconds at the host's nominal speed. ``--trace 1``
spends the first half of the time on plain passes and the second half
on traced passes, and reports the layer split of the median traced
pass plus ``tracing_overhead_s``, its wall time less the plain passes'
median; its times are not scaled.

The last line of standard output is the result; the line before it
holds every pass, the seed and the machine and library versions. Both
are also kept under ``.perfbench/`` with the traced passes' spans.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper-grid", "trace-sweep", "fleet-year")
MIN_SETUP_SAMPLES = 5
#: A run still going this long after ``--seconds`` is stopped with its
#: worker and exits 1: room for the warm-up, the set-up probes and a
#: slow last pass.
RUN_SLACK_S = 120
#: Per-pass fields kept in the run's details.
PASS_KEYS = (
    "wall_s",
    "setup_s",
    "peak_rss_mb",
    "attempted",
    "failed",
    "failures",
    "digest",
)
#: The reference job's median time, in a fresh process, on the 2-core
#: container the benchmark was tuned on.
REFERENCE_S = 0.85
#: BLAS threads per worker: fixed, and at most the 2 cores measured on.
BLAS_THREADS = "1"


class BenchmarkError(RuntimeError):
    """A pass could not produce a result."""


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    if env.get("PYTHONPATH"):
        src += os.pathsep + env["PYTHONPATH"]
    env["PYTHONPATH"] = src
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(root, env, limit, workload, seed, *flags, spans=None) -> dict:
    """One worker process in a fresh work directory; its JSON record.

    The worker is killed if it is still running at ``limit``.
    """
    workdir = Path(tempfile.mkdtemp(dir=root / ".perfbench", prefix="pass-"))
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--workdir", str(workdir),
        *flags,
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    started = time.perf_counter()
    try:
        done = subprocess.run(
            command,
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(limit - time.perf_counter(), 1.0),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(
            f"worker exited {done.returncode}: {' '.join(command)}"
        )
    record = json.loads(lines[-1])
    record["process_s"] = time.perf_counter() - started
    return record


def time_reference(root, env, limit) -> float:
    """Seconds the fixed reference job takes in a fresh process."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "reference.py")],
        cwd=root,
        env=env,
        stdout=subprocess.DEVNULL,
        check=True,
        timeout=max(limit - time.perf_counter(), 1.0),
    )
    return time.perf_counter() - started


def fits(passes, deadline) -> bool:
    """Whether a pass as long as the median so far ends by ``deadline``."""
    typical = statistics.median(record["process_s"] for record in passes)
    return time.perf_counter() + typical <= deadline


def measure(root, workload, seed, seconds, trace) -> tuple:
    """Run the passes; return ``(result, details)``."""
    limit = time.perf_counter() + seconds + RUN_SLACK_S
    env = worker_env(root)
    runs = root / ".perfbench" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    run_pass(root, env, limit, workload, seed, "--warmup", "--setup-only")

    start = time.perf_counter()
    references = [] if trace else [time_reference(root, env, limit)]

    def one_pass(*flags, spans=None):
        record = run_pass(root, env, limit, workload, seed, *flags, spans=spans)
        if not trace:
            reference = time_reference(root, env, limit)
            references.append(reference)
            record["process_s"] += reference
        return record

    plain_until = start + (seconds / 2 if trace else seconds)
    plain = []
    while not plain or fits(plain, plain_until):
        plain.append(one_pass())
    traced = []
    while trace and (not traced or fits(plain + traced, start + seconds)):
        spans = runs / f"{stem}-pass{len(traced)}.spans.json"
        traced.append(one_pass(spans=spans))
    setups = [record["setup_s"] for record in plain + traced]
    while not trace and len(setups) < MIN_SETUP_SAMPLES:
        setups.append(one_pass("--setup-only")["setup_s"])

    passes = plain + traced
    attempted = sum(record["attempted"] for record in passes)
    failed = sum(record["failed"] for record in passes)
    plain_wall = statistics.median(record["wall_s"] for record in plain)
    if trace:
        ordered = sorted(traced, key=lambda record: record["wall_s"])
        median_pass = ordered[(len(ordered) - 1) // 2]
        metrics = {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in median_pass["layers"].items()
        }
        metrics["tracing_overhead_s"] = {
            "value": median_pass["wall_s"] - plain_wall,
            "unit": "s",
        }
    else:
        scale = REFERENCE_S / statistics.median(references)
        metrics = {
            "wall_s": {"value": plain_wall * scale, "unit": "s"},
            "setup_s": {
                "value": statistics.median(setups) * scale,
                "unit": "s",
            },
            "peak_rss_mb": {
                "value": statistics.median(
                    record["peak_rss_mb"] for record in plain
                ),
                "unit": "MiB",
            },
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": passes[0]["environment"],
        "setup_samples": setups,
        "reference_s": references,
        "passes": [
            {key: record[key] for key in PASS_KEYS} for record in passes
        ],
    }
    (runs / f"{stem}.json").write_text(
        json.dumps({"result": result, "details": details}, indent=1)
    )
    return result, details


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: run from the root of a checkout holding src/repro",
            file=sys.stderr,
        )
        return 2
    try:
        result, details = measure(
            root, args.workload, args.seed, args.seconds, args.trace
        )
    except (
        BenchmarkError,
        subprocess.CalledProcessError,
        subprocess.TimeoutExpired,
    ) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
