"""Resumable sweep: cache a configuration grid and survive interruption.

Runs the Fig. 17-style 18-configuration grid through the experiment
engine with a disk-backed result store. The first pass simulates and
caches every configuration; a simulated "kill" halfway through a fresh
store shows resume re-simulating only the jobs that had not finished.

Run:
    python examples/resumable_sweep.py [cache_dir]

Pass a persistent directory (default: a temp dir) to keep the cache
across invocations — re-running the script then costs only the cache
probes. The same store is what `repro-endurance table3 --cache-dir DIR`
and friends use.

Progress comes from a `TextReporter` sink on the telemetry bus, the
same `[engine]` lines the CLI prints for engine-routed runs (here on
stdout).
"""

import sys
import tempfile

from repro import (
    EnduranceSimulator,
    ParallelMultiplication,
    SimulationSettings,
    default_architecture,
)
from repro.balance.config import all_configurations
from repro.core.sweep import configuration_grid
from repro.engine import ExperimentEngine, JobSpec, ResultStore
from repro.telemetry import TextReporter, get_telemetry

ITERATIONS = 1_000


def main() -> None:
    cache_dir = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(
        prefix="repro-engine-"
    )
    architecture = default_architecture(rows=256, cols=256)
    workload = ParallelMultiplication(bits=8)
    store = ResultStore(cache_dir)

    print(f"result store: {cache_dir} ({len(store)} cached entries)\n")
    reporter = get_telemetry().add_sink(TextReporter(sys.stdout))

    # --- an "interrupted" run: only part of the grid completes ---------
    specs = [
        JobSpec(
            workload=workload,
            architecture=architecture,
            config=config,
            iterations=ITERATIONS,
            seed=7,
        )
        for config in all_configurations()
    ]
    survivors = max(len(store), 6)
    print(f"pass 1: pretend the run was killed after {survivors} jobs")
    ExperimentEngine(store=store).run(specs[:survivors])

    # --- resume: the full grid re-simulates only the misses ------------
    print("\npass 2: full grid resumes from the store")
    entries = configuration_grid(
        EnduranceSimulator(architecture, settings=SimulationSettings(seed=7)),
        workload,
        iterations=ITERATIONS,
        cache_dir=cache_dir,
    )
    get_telemetry().remove_sink(reporter)

    best = max(entries, key=lambda e: e.improvement)
    print(f"\n{len(store)} entries cached; "
          f"best configuration: {best.label} "
          f"({best.improvement:.2f}x lifetime improvement)")
    print("re-run this script with the same cache_dir: everything is a hit")


if __name__ == "__main__":
    main()
