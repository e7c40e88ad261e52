"""The benchmark's three workloads, each dominated by a different layer.

Every workload is a function ``prepare(seed, workdir)`` that builds its
inputs (this is set-up) and returns ``(run, check)``. ``run()`` is the
timed body: it drives only ``repro``'s public API with every execution
knob at its default (``jobs=1``, ``fleet_workers=1``, ``window=0``, the
batched kernel, fast-forward off) and returns the raw outcomes.
``check(outcomes)`` runs untimed and returns ``(attempted, failures,
digest)``: one operation per grid cell or campaign, a message per
failed operation (it raised, or failed a correctness check) keyed by
the operation, and a digest of the results. The digest is recorded,
never compared: a deliberate re-pin of the threshold sampling moves it.

A verify report with errors fails its operation through the program's
own gate (``VerificationError``, or a ``FAILED`` engine outcome); traced
passes also count the errors in every report they see.

The seed reaches ``SimulationSettings.seed``, ``FleetSpec.seed`` and the
generated trace files; sizes are fixed, so every seed does the same
amount of work.
"""

from __future__ import annotations

import hashlib
import math
import traceback
from pathlib import Path


def _attempt(call):
    """``call()``, or the formatted exception it raised."""
    try:
        return call()
    except Exception:  # a failed operation is counted, not fatal
        return RuntimeError(traceback.format_exc())


def _grid_check(grids):
    """Conservation check over ``[(label, cells, grid or error)]``."""
    attempted, failures, digest = 0, {}, hashlib.sha256()
    for label, cells, grid in grids:
        attempted += cells
        if isinstance(grid, Exception):
            failures.update(
                (f"{label} #{cell}", str(grid)) for cell in range(cells)
            )
            continue
        for entry in grid:
            result = entry.result
            writes = float(result.state.write_counts.sum())
            expected = result.iterations * result.mapping.writes_per_iteration
            if writes != expected:
                failures[f"{label} {entry.label}"] = (
                    f"{writes} writes, expected {expected}"
                )
            digest.update(
                f"{label} {entry.label} {writes!r} "
                f"{entry.improvement!r}\n".encode()
            )
    return attempted, failures, digest.hexdigest()


# ----------------------------------------------------------------------
# paper-grid: the paper's kernels over the Fig. 17 grid (kernel-bound)
# ----------------------------------------------------------------------

PAPER_KERNELS = ("mult", "conv")
PAPER_ITERATIONS = 100_000


def paper_constants():
    """Failures among the paper's calibration constants (Section 3.1)."""
    from repro.array.architecture import default_architecture
    from repro.core.lifetime import eq2_seconds_until_total_failure
    from repro.devices.technology import technology_by_name
    from repro.gates.library import NAND_LIBRARY
    from repro.synth.analysis import multiplier_counts

    failures = []
    writes = multiplier_counts(32, NAND_LIBRARY).cell_writes
    if writes != 9824:
        failures.append(f"32-bit multiply writes {writes}, paper says 9,824")
    architecture = default_architecture()
    days = eq2_seconds_until_total_failure(
        architecture.geometry,
        technology_by_name("MRAM").endurance_writes,
        architecture.lane_count,
    ) / 86400
    if round(days, 2) != 35.56:
        failures.append(f"Eq. 2 horizon {days:.4f} days, paper says 35.56")
    return failures


def paper_grid(seed, workdir):
    from repro.array.architecture import default_architecture
    from repro.balance.config import all_configurations
    from repro.core.settings import SimulationSettings
    from repro.core.simulator import EnduranceSimulator
    from repro.core.sweep import configuration_grid
    from repro.workloads.registry import get_workload

    architecture = default_architecture()
    settings = SimulationSettings(seed=seed)
    kernels = [(name, get_workload(name)) for name in PAPER_KERNELS]
    cells = len(all_configurations())

    def run():
        return [
            (
                name,
                cells,
                _attempt(
                    lambda: configuration_grid(
                        EnduranceSimulator(architecture, settings=settings),
                        workload,
                        iterations=PAPER_ITERATIONS,
                    )
                ),
            )
            for name, workload in kernels
        ]

    def check(grids):
        attempted, failures, digest = _grid_check(grids)
        constants = paper_constants()
        if constants:
            # Every cell's lifetime rests on these constants.
            failures = {
                f"cell #{cell}": str(constants) for cell in range(attempted)
            }
        return attempted, failures, digest

    return run, check


# ----------------------------------------------------------------------
# trace-sweep: generated GEMV traces through the engine (frontend-bound)
# ----------------------------------------------------------------------

TRACE_SHAPES = ((4, 4), (6, 6))
TRACE_CONFIGS = ("StxSt", "RaxRa", "BsxBs")
TRACE_ITERATIONS = 2000


def trace_sweep(seed, workdir):
    from repro.array.architecture import default_architecture
    from repro.balance.config import BalanceConfig
    from repro.core.settings import SimulationSettings
    from repro.core.simulator import EnduranceSimulator
    from repro.core.sweep import configuration_grid
    from repro.workloads.trace import TraceWorkload, write_gemv_trace

    architecture = default_architecture()
    settings = SimulationSettings(seed=seed)
    configs = [BalanceConfig.from_label(label) for label in TRACE_CONFIGS]
    paths = []
    for rows, cols in TRACE_SHAPES:
        path = write_gemv_trace(
            Path(workdir) / f"gemv{rows}x{cols}.trace", rows=rows, cols=cols
        )
        # A configuration-register write touches no array cell, so the
        # seed changes the trace's content hash but not its work.
        path.write_text(f"W CFR 1 {seed}  // run seed\n" + path.read_text())
        paths.append(path)
    store = str(Path(workdir) / "store")

    def sweep(path):
        workload = TraceWorkload.from_file(path)
        return configuration_grid(
            EnduranceSimulator(architecture, settings=settings),
            workload,
            iterations=TRACE_ITERATIONS,
            configs=configs,
            cache_dir=store,
        )

    def run():
        return [
            (path.stem, len(configs), _attempt(lambda: sweep(path)))
            for path in paths
        ]

    return run, _grid_check


# ----------------------------------------------------------------------
# fleet-year: one large mixed fleet for a year (threshold-bound)
# ----------------------------------------------------------------------

YEAR_ARRAYS = 2048
YEAR_DAYS = 365
YEAR_PAUSE_DAY = YEAR_DAYS // 2
CHECKPOINT_EVERY = 30


def fleet_year(seed, workdir):
    from repro.engine import ResultStore
    from repro.fleet import (
        CohortSpec,
        FleetService,
        FleetSpec,
        PopulationSpec,
        TrafficSpec,
    )

    # The E33 shape (512 arrays at 4e6 requests/day) scaled up, with
    # traffic scaled alongside so each array sees the same load.
    spec = FleetSpec(
        population=PopulationSpec(
            n_arrays=YEAR_ARRAYS,
            technology_mix=(("MRAM", 1.0), ("PCM", 1.0)),
            cohorts=(CohortSpec("add"), CohortSpec("conv")),
            endurance_sigma=0.3,
        ),
        traffic=TrafficSpec(model="poisson", rate=4e6 * YEAR_ARRAYS / 512),
        days=YEAR_DAYS,
        seed=seed,
        rows=128,
        cols=128,
        cohort_iterations=2000,
    )
    store_dir = Path(workdir) / "store"

    def service(store, checkpoints):
        return FleetService(
            spec,
            store=store,
            checkpoint_dir=str(Path(workdir) / checkpoints),
            checkpoint_every=CHECKPOINT_EVERY,
        )

    def paused(store):
        # Checkpoints apart from the straight run, whose checkpoints it
        # would otherwise resume from.
        service(store, "paused").run(stop_after_day=YEAR_PAUSE_DAY)
        # A fresh service resumes from the checkpoint the pause wrote.
        return service(store, "paused").run()

    def run():
        # The straight run calibrates into the cold store; the paused
        # and the resumed run load from it.
        store = ResultStore(store_dir)
        return [
            ("year", _attempt(lambda: service(store, "straight").run())),
            ("resumed", _attempt(lambda: paused(store))),
        ]

    return run, _fleet_check(spec.traffic, ("year", "resumed"))


def _fleet_check(traffic, paired):
    """Check ``[(label, report or error)]``; the two ``paired`` labels'
    reports must hash alike."""

    def check(outcomes):
        failures, digest = {}, hashlib.sha256()
        reports = {}
        for label, report in outcomes:
            if isinstance(report, Exception):
                failures[label] = str(report)
                continue
            # Poisson days sum to a Poisson total: every drawn request
            # is served or dropped, none made up or lost.
            drawn = traffic.rate * report.days_simulated
            handled = report.requests_served + report.requests_dropped
            late = [
                day
                for day in report.death_days
                if day > report.days_simulated
            ]
            if abs(handled - drawn) > 6 * math.sqrt(drawn):
                failures[label] = f"{handled} requests handled, {drawn} drawn"
            elif report.requests_served <= 0:
                failures[label] = "served no requests"
            elif late:
                failures[label] = f"death on day {late[0]}, past the horizon"
            reports[label] = report.content_hash()
            digest.update(f"{label} {reports[label]}\n".encode())
        first, second = (reports.get(label) for label in paired)
        if first is None or first != second:
            failures.setdefault(paired[1], f"hash differs from {paired[0]}")
        return len(outcomes), failures, digest.hexdigest()

    return check


WORKLOADS = {
    "paper-grid": paper_grid,
    "trace-sweep": trace_sweep,
    "fleet-year": fleet_year,
}
