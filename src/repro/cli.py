"""Command-line interface: regenerate the paper's artifacts from a shell.

Examples::

    repro-endurance opcounts
    repro-endurance table2
    repro-endurance fig5
    repro-endurance heatmap --workload conv --config RaxRa+Hw --iterations 5000
    repro-endurance fig17 --workload dot --iterations 10000
    repro-endurance table3 --iterations 10000
    repro-endurance table3 --iterations 10000 --cache-dir .cache
    repro-endurance lifetime --technology RRAM
    repro-endurance fig11b
    repro-endurance report --workload dot --config RaxBs+Hw
    repro-endurance export --workload conv --out results/
    repro-endurance switching --bits 16
    repro-endurance deployment --arrays 1024
    repro-endurance remap-sweep --workload dot
    repro-endurance trace --config StxSt BsxBs+Hw --iterations 500
    repro-endurance trace --file capture.trace --policy hash --verify-only
    repro-endurance heatmap --workload gemv-trace --config BsxBs
    repro-endurance heatmap --trace trace.jsonl --progress
    repro-endurance stats trace.jsonl

Every simulation-backed subcommand accepts the settings flag
(``--seed``), the engine flag (``--cache-dir``), and the
telemetry flags (``--log-level`` / ``--trace FILE`` / ``--progress``) —
both before and after the subcommand name.
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import List, Optional

from repro.array.architecture import default_architecture
from repro.array.faults import expected_usable_fraction, usable_fraction_curve
from repro.array.geometry import ArrayGeometry
from repro.balance.config import BalanceConfig
from repro.core.lifetime import (
    eq1_operations_until_total_failure,
    eq2_seconds_until_total_failure,
    lifetime_from_result,
)
from repro.core.report import (
    format_fig5,
    format_fig11b,
    format_fig17,
    format_heatmap_stats,
    format_lifetimes,
    format_remap_frequency,
    format_table,
    format_table2,
    format_table3,
)
from repro.core.settings import SimulationSettings
from repro.core.simulator import EnduranceSimulator, mapping_for
from repro.verify import VerificationError
from repro.core.sweep import (
    best_improvement,
    configuration_grid,
    remap_frequency_sweep,
    technology_sweep,
)
from repro.devices.technology import MRAM, PCM, RRAM, technology_by_name
from repro.engine import EngineError
from repro.gates.library import NAND_LIBRARY
from repro.synth.analysis import (
    conventional_multiplication_counts,
    multiplier_counts,
    pim_vs_conventional_write_ratio,
)
from repro.telemetry import (
    JsonlSink,
    LoggingSink,
    ProgressSink,
    TextReporter,
    TraceSchemaError,
    format_stats,
    get_telemetry,
    iter_trace,
    summarize_trace,
)
from repro.telemetry.reporter import say, warn
from repro.workloads.multiply import ParallelMultiplication
from repro.workloads.registry import (
    UnknownWorkloadError,
    available_workloads,
    get_workload,
)
from repro.workloads.trace import MAPPING_POLICIES

_LOG_LEVEL_CHOICES = ("debug", "info", "warning", "error", "critical")

#: Built-in gate libraries the ``verify`` subcommand sweeps.
_LIBRARY_NAMES = ("nand", "minimal", "nor", "maj")

#: Balance configurations the ``verify`` subcommand samples by default:
#: the static baseline, each software family, and the full stack.
_VERIFY_CONFIGS = ("StxSt", "RaxRa", "BsxBs", "B1xB1", "BsxBs+Hw")


def _make_workload(name: str):
    try:
        return get_workload(name)
    except UnknownWorkloadError as exc:
        raise SystemExit(str(exc)) from None


def _make_settings(args) -> SimulationSettings:
    """The :class:`SimulationSettings` described by the parsed flags.

    Only ``--seed`` shapes a run; the telemetry flags attach sinks
    (:func:`_configure_telemetry`) and never reach the settings.
    """
    return SimulationSettings(seed=args.seed)


def _make_simulator(args) -> EnduranceSimulator:
    arch = default_architecture(args.rows, args.cols)
    return EnduranceSimulator(arch, settings=_make_settings(args))


def _engine_routed(args) -> bool:
    """Whether ``--cache-dir`` routes this command's simulations through
    the engine."""
    return bool(getattr(args, "cache_dir", None))


def _run_one(args, sim, workload, config, iterations, track_reads=True):
    """One simulation, routed through the engine when flags ask for it."""
    settings = sim.settings.replace(track_reads=track_reads)
    if _engine_routed(args):
        from repro.engine import run_simulation

        return run_simulation(
            workload, config, sim.architecture, iterations,
            settings=settings, cache_dir=args.cache_dir,
        )
    return sim.run(workload, config, iterations, settings=settings)


def _add_engine_flags(parser) -> None:
    parser.add_argument(
        "--cache-dir", default=None,
        help="experiment-engine result store; completed cells are "
             "reused and interrupted sweeps resume from it",
    )


def _add_sim_flags(parser) -> None:
    """Subcommand-level duplicates of the global settings/telemetry flags.

    ``default=argparse.SUPPRESS`` keeps an unset subcommand flag from
    clobbering the value the main parser already stored, so both
    ``repro-endurance --seed 7 heatmap`` and
    ``repro-endurance heatmap --seed 7`` work.
    """
    parser.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="RNG seed"
    )
    parser.add_argument(
        "--log-level", choices=_LOG_LEVEL_CHOICES,
        default=argparse.SUPPRESS,
        help="bridge telemetry events to stdlib logging at this level",
    )
    parser.add_argument(
        "--trace", metavar="FILE", default=argparse.SUPPRESS,
        help="write a JSONL telemetry trace to FILE",
    )
    parser.add_argument(
        "--progress", action="store_true", default=argparse.SUPPRESS,
        help="render compact progress lines on stderr",
    )


def cmd_opcounts(args) -> None:
    """Section 3.1 operation-count claims."""
    bits = args.bits
    pim = multiplier_counts(bits, NAND_LIBRARY)
    conventional = conventional_multiplication_counts(bits)
    ratio = pim_vs_conventional_write_ratio(bits, NAND_LIBRARY)
    cells = args.rows
    rows = [
        ("conventional", conventional.cell_reads, conventional.cell_writes,
         f"{conventional.cell_reads / cells:.4f}", f"{conventional.cell_writes / cells:.4f}"),
        ("PIM (NAND lib)", pim.cell_reads, pim.cell_writes,
         f"{pim.cell_reads / cells:.2f}", f"{pim.cell_writes / cells:.2f}"),
    ]
    say(format_table(
        ["Architecture", "Cell reads", "Cell writes", "Reads/cell", "Writes/cell"],
        rows,
        title=f"{bits}-bit multiplication memory traffic (Section 3.1)",
    ))
    say(f"\nPIM performs {ratio:.1f}x more cell writes than conventional.")


def cmd_table2(args) -> None:
    """Table 2: access-aware shuffle overhead."""
    say(format_table2())


def cmd_fig5(args) -> None:
    """Fig. 5: per-cell reads/writes within a lane for one multiplication."""
    arch = default_architecture(args.rows, args.cols)
    program = ParallelMultiplication(bits=args.bits).build_program(arch)
    writes = program.write_counts(arch.lane_size, include_presets=arch.presets_output)
    reads = program.read_counts(arch.lane_size)
    say(format_fig5(writes, reads, used_bits=program.footprint))


def cmd_heatmap(args) -> None:
    """One write-distribution heatmap (Figs. 14-16 cells)."""
    sim = _make_simulator(args)
    workload = _make_workload(args.workload)
    config = BalanceConfig.from_label(args.config)
    result = _run_one(args, sim, workload, config, args.iterations)
    dist = result.write_distribution
    say(dist.ascii_heatmap(blocks=(args.rows // 32, args.cols // 16)))
    say()
    say(dist.summary())


def cmd_fig17(args) -> None:
    """Fig. 17: lifetime improvement across the 18 configurations."""
    sim = _make_simulator(args)
    workload = _make_workload(args.workload)
    entries = configuration_grid(
        sim, workload, iterations=args.iterations, cache_dir=args.cache_dir
    )
    say(format_fig17(entries, workload.name))
    say(format_heatmap_stats([e.result.write_distribution for e in entries]))


def cmd_table3(args) -> None:
    """Table 3: utilization and best lifetime improvement per benchmark."""
    sim = _make_simulator(args)
    summaries = []
    for name in ("mult", "conv", "dot"):
        workload = _make_workload(name)
        entries = configuration_grid(
            sim, workload, iterations=args.iterations,
            cache_dir=args.cache_dir,
        )
        best = best_improvement(entries)
        summaries.append(
            (workload.name, entries[0].result.lane_utilization,
             best.improvement)
        )
    say(format_table3(summaries))


def cmd_lifetime(args) -> None:
    """Lifetime bounds and technology contrast (Section 3.1)."""
    geometry = ArrayGeometry(args.rows, args.cols)
    tech = technology_by_name(args.technology)
    eq1 = eq1_operations_until_total_failure(
        geometry, tech.endurance_writes, args.writes_per_op
    )
    eq2 = eq2_seconds_until_total_failure(
        geometry, tech.endurance_writes, geometry.cols
    )
    say(f"Technology: {tech.name} (endurance {tech.endurance_writes:.1e})")
    say(f"Eq. 1 bound: {eq1:.3e} multiplications before total break-down")
    say(f"Eq. 2 bound: {eq2:.0f} s = {eq2 / 86400:.2f} days at full utilization")
    sim = _make_simulator(args)
    result = _run_one(
        args, sim, _make_workload("mult"), BalanceConfig(), args.iterations
    )
    sweep = technology_sweep(result, [MRAM, RRAM, PCM])
    say()
    say(format_lifetimes(sweep))


def cmd_fig11b(args) -> None:
    """Fig. 11b: usable lane bits versus failed cells."""
    geometry = ArrayGeometry(args.rows, args.cols)
    arch = default_architecture(args.rows, args.cols)
    fractions = [0.0, 1e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2]
    measured = usable_fraction_curve(
        geometry, arch.orientation, fractions, trials=args.trials,
        rng=args.seed,
    )
    analytic = [
        expected_usable_fraction(p, geometry.lane_count(arch.orientation))
        for p in fractions
    ]
    say(format_fig11b(fractions, measured, analytic))


def cmd_remap_sweep(args) -> None:
    """Section 5 recompile-frequency sweep."""
    sim = _make_simulator(args)
    improvements = remap_frequency_sweep(
        sim,
        _make_workload(args.workload),
        intervals=tuple(args.intervals),
        iterations=args.iterations,
        cache_dir=args.cache_dir,
    )
    say(format_remap_frequency(improvements))


def cmd_report(args) -> None:
    """Full single-run report: distribution, heatmap, lifetimes."""
    from repro.core.report import format_full_report

    sim = _make_simulator(args)
    result = _run_one(
        args, sim, _make_workload(args.workload),
        BalanceConfig.from_label(args.config), args.iterations,
    )
    say(format_full_report(result, technologies=[MRAM, RRAM, PCM]))


def cmd_export(args) -> None:
    """Run one configuration and save its artifacts (result + csv + pgm)."""
    import os

    from repro.core.io import save_result

    sim = _make_simulator(args)
    workload = _make_workload(args.workload)
    config = BalanceConfig.from_label(args.config)
    result = _run_one(args, sim, workload, config, args.iterations)
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(
        args.out, f"{workload.name}-{config.label}-{args.iterations}"
    )
    save_result(result, stem + ".result")
    dist = result.write_distribution
    dist.to_csv(stem + ".csv")
    dist.to_pgm(stem + ".pgm")
    say(f"saved {stem}.result / .csv / .pgm")
    say(dist.summary())


def cmd_switching(args) -> None:
    """Data-dependent switching wear (extension E21)."""
    from repro.core.switching import measure_switching

    arch = default_architecture(args.rows, args.cols)
    program = ParallelMultiplication(bits=args.bits).build_program(arch)
    profile = measure_switching(program, samples=args.samples, rng=args.seed)
    say(
        f"{args.bits}-bit multiply, {args.samples} random-operand samples:\n"
        f"  writes/iteration:   {int(profile.writes.sum())}\n"
        f"  switches/iteration: {profile.switches.sum():.1f}\n"
        f"  switch fraction:    {profile.switch_fraction:.2%}\n"
        f"  switch-only lifetime factor: {profile.lifetime_factor:.2f}x"
    )


def cmd_deployment(args) -> None:
    """Duty-cycle and array-farm lifetimes (extension E22)."""
    from repro.core.system import ArrayFarm, lifetime_at_duty_cycle

    sim = _make_simulator(args)
    result = _run_one(
        args, sim, _make_workload("mult"), BalanceConfig(), args.iterations,
        track_reads=False,
    )
    estimate = lifetime_from_result(result)
    say(f"single array, full utilization: "
        f"{estimate.days_to_failure:.1f} days")
    rows = []
    for duty in (1.0, 0.1, 0.01):
        scaled = lifetime_at_duty_cycle(estimate, duty)
        rows.append((f"{duty:.0%}", f"{scaled.years_to_failure:.2f}"))
    say(format_table(["Duty cycle", "Years to failure"], rows))
    farm = ArrayFarm(args.arrays, sigma=0.25, rng=args.seed)
    summary = farm.replacement_horizon(estimate, failure_fraction=0.05)
    say(f"\n{args.arrays}-array farm: first failure "
        f"{summary.first_seconds / 86400:.1f} d, 5% dead at "
        f"{summary.horizon_days:.1f} d")


def _parse_weighted(tokens, what):
    """Parse ``NAME`` / ``NAME:WEIGHT`` tokens into ``(name, weight)``."""
    out = []
    for token in tokens:
        name, _, weight = token.partition(":")
        try:
            out.append((name, float(weight) if weight else 1.0))
        except ValueError:
            raise SystemExit(
                f"bad {what} {token!r}: expected NAME or NAME:WEIGHT"
            ) from None
    return out


def cmd_fleet(args) -> int:
    """Fleet-scale endurance campaign (extension E33)."""
    import json as json_module

    from repro.engine import ResultStore
    from repro.fleet import (
        CohortSpec,
        FleetService,
        FleetSpec,
        PopulationSpec,
        TrafficSpec,
        format_report,
    )

    settings = _make_settings(args)
    cohorts = tuple(
        CohortSpec(
            workload=name,
            config=args.config,
            weight=weight,
            iterations_per_request=args.iters_per_request,
        )
        for name, weight in _parse_weighted(args.workloads, "workload")
    )
    spec = FleetSpec(
        population=PopulationSpec(
            n_arrays=args.arrays,
            technology_mix=tuple(
                _parse_weighted(args.technology_mix, "technology")
            ),
            cohorts=cohorts,
            endurance_sigma=args.sigma,
            repacking=args.repacking,
        ),
        traffic=TrafficSpec(model=args.traffic, rate=args.rate),
        days=args.days,
        seed=settings.seed,
        dispatch=args.dispatch,
        duty_cycle=args.duty_cycle,
        slo=args.slo,
        rows=args.rows,
        cols=args.cols,
        cohort_iterations=args.cohort_iterations,
    )
    cache_dir = getattr(args, "cache_dir", None)
    service = FleetService(
        spec,
        store=ResultStore(cache_dir) if cache_dir else None,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
    )
    report = service.run(stop_after_day=args.stop_after_day)
    if report is None:
        say(
            f"fleet {spec.content_hash[:12]}: paused after day "
            f"{args.stop_after_day} (checkpoint written; rerun without "
            f"--stop-after-day to finish)"
        )
        return 0
    if args.json:
        say(json_module.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        format_report(report, emit=say)
    return 0


def _cmd_verify_fleet(args) -> int:
    """Whole-system static passes behind ``verify --fleet/--self``.

    Composes :func:`repro.verify.verify_fleet_spec` over an E33-shaped
    fleet spec built from the flags (``--fleet``) and the repo self-lint
    (``--self``) into one merged report with the same text/JSON render
    and exit-code contract as the workload sweep.
    """
    from repro.verify import VerifyReport, verify_fleet_spec, verify_self

    report = VerifyReport()
    checked = []
    if args.fleet:
        from repro.fleet import (
            CohortSpec,
            FleetSpec,
            PopulationSpec,
            TrafficSpec,
        )

        spec = FleetSpec(
            population=PopulationSpec(
                n_arrays=args.arrays,
                technology_mix=(("MRAM", 1.0), ("PCM", 1.0)),
                cohorts=(
                    CohortSpec(workload="add", weight=1.0),
                    CohortSpec(workload="conv", weight=1.0),
                ),
                endurance_sigma=0.3,
            ),
            traffic=TrafficSpec(model=args.traffic, rate=4e6),
            days=365,
            seed=args.seed,
            rows=args.rows,
            cols=args.cols,
        )
        report = report.merged(verify_fleet_spec(spec, use_cache=False))
        checked.append(
            f"fleet spec ({args.arrays} arrays, {args.traffic} traffic)"
        )
    if args.self_lint:
        report = report.merged(verify_self())
        checked.append("repo self-lint")
    if args.json:
        say(report.render_json())
    else:
        say("checked " + ", ".join(checked))
        say(report.render_text())
    return report.exit_code


def cmd_verify(args) -> int:
    """Statically verify built-in workloads across gate libraries.

    Sweeps workload x library x balance-config combinations through
    :func:`repro.verify.verify_mapping` without running a single epoch,
    merges every report, and exits with the merged report's code
    (0 clean / 1 errors / 2 warnings only) — the CI smoke contract.
    With ``--fleet`` or ``--self`` the sweep is replaced by the
    whole-system passes (RPR015, RPR018); see
    :func:`_cmd_verify_fleet`.
    """
    from dataclasses import replace as dc_replace

    from repro.gates.library import library_by_name
    from repro.verify import (
        Diagnostic,
        Location,
        Severity,
        VerifyReport,
        verify_mapping,
    )

    if args.fleet or args.self_lint:
        return _cmd_verify_fleet(args)

    workloads = (
        list(available_workloads()) if args.workload == "all"
        else [args.workload]
    )
    libraries = _LIBRARY_NAMES if args.library == "all" else (args.library,)
    configs = [BalanceConfig.from_label(label) for label in args.configs]
    base = default_architecture(args.rows, args.cols)
    report = VerifyReport()
    checked = skipped = 0
    for workload_name in workloads:
        for library_name in libraries:
            architecture = dc_replace(
                base, library=library_by_name(library_name)
            )
            try:
                mapping = _make_workload(workload_name).build(architecture)
            except ValueError as exc:
                # Some pairings cannot synthesize (e.g. XNOR on a NOR-only
                # library); that is a library property, not a diagnostic.
                skipped += 1
                if not args.json:
                    say(f"skip {workload_name} x {library_name}: {exc}")
                continue
            except MemoryError as exc:
                # Lane capacity exhausted: the workload does not fit this
                # geometry at all — that IS a bounds finding, reported
                # through the same RPR003 channel the static pass uses.
                report = report.merged(VerifyReport([
                    Diagnostic(
                        "RPR003",
                        Severity.ERROR,
                        f"workload cannot be built on this geometry: {exc}",
                        Location(place=(
                            f"workload {workload_name!r} x library "
                            f"{library_name!r}"
                        )),
                        hint="use a larger array (--rows) or a smaller "
                        "workload",
                    )
                ]))
                checked += 1
                continue
            for config in configs:
                report = report.merged(
                    verify_mapping(mapping, config, functional=args.functional)
                )
                checked += 1
    if args.json:
        say(report.render_json())
    else:
        tail = f", {skipped} skipped (unsynthesizable)" if skipped else ""
        say(f"checked {checked} workload x library x config combinations{tail}")
        say(report.render_text())
    return report.exit_code


def cmd_trace(args) -> int:
    """Trace-driven workload: parse, lower, verify, simulate (E35)."""
    from repro.verify import verify_mapping
    from repro.workloads.trace import (
        TraceParseError,
        TraceWorkload,
        load_gemv_fixture,
    )

    try:
        if args.file:
            workload = TraceWorkload.from_file(
                args.file, bits=args.bits, policy=args.policy
            )
        else:
            workload = load_gemv_fixture(bits=args.bits, policy=args.policy)
    except TraceParseError as exc:
        raise SystemExit(f"invalid trace: {exc}") from None
    except OSError as exc:
        raise SystemExit(f"cannot read trace: {exc}") from None
    sim = _make_simulator(args)
    arch = sim.architecture
    # build() statically checks the lowered network; static errors raise
    # VerificationError, which main() renders as a report. The simulated
    # runs below reuse this mapping.
    mapping = mapping_for(workload, arch)
    say(workload.describe())
    say(
        f"lowered onto {len(mapping.assignment)}/{arch.lane_count} lanes, "
        f"{mapping.writes_per_iteration:.0f} writes/iteration, "
        f"utilization {mapping.lane_utilization:.4f}"
    )
    status = 0
    for label in args.configs:
        report = verify_mapping(mapping, BalanceConfig.from_label(label))
        if report.diagnostics:
            say(f"-- {label}")
            say(report.render_text())
        status = max(status, report.exit_code)
    if status == 0:
        say(f"verify: no diagnostics ({len(args.configs)} configs)")
    if args.verify_only or status == 1:
        return status
    base_days = None
    for label in args.configs:
        result = _run_one(
            args, sim, workload, BalanceConfig.from_label(label),
            args.iterations,
        )
        estimate = lifetime_from_result(result)
        if base_days is None:
            base_days = estimate.days_to_failure
        say(
            f"{label:>10s}: {estimate.days_to_failure:10.2f} days to "
            f"failure ({estimate.days_to_failure / base_days:5.2f}x "
            f"vs {args.configs[0]})"
        )
    return status


def cmd_stats(args) -> None:
    """Summarize a JSONL telemetry trace (validates the schema)."""
    try:
        records = list(iter_trace(args.trace_file))
    except TraceSchemaError as exc:
        raise SystemExit(f"invalid trace: {exc}") from None
    except OSError as exc:
        raise SystemExit(f"cannot read trace: {exc}") from None
    say(format_stats(summarize_trace(records)))


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-endurance",
        description=(
            "Reproduce 'On Endurance of Processing in (Nonvolatile) Memory' "
            "(ISCA 2023)"
        ),
    )
    parser.add_argument("--rows", type=int, default=1024, help="array rows")
    parser.add_argument("--cols", type=int, default=1024, help="array columns")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument(
        "--log-level", choices=_LOG_LEVEL_CHOICES, default=None,
        help="bridge telemetry events to stdlib logging at this level",
    )
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a JSONL telemetry trace to FILE "
             "(summarize it with the 'stats' subcommand)",
    )
    parser.add_argument(
        "--progress", action="store_true", default=False,
        help="render compact progress lines on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("opcounts", help="Section 3.1 operation counts")
    p.add_argument("--bits", type=int, default=32)
    p.set_defaults(func=cmd_opcounts)

    p = sub.add_parser("table2", help="Table 2 shuffle overhead")
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("fig5", help="Fig. 5 lane write/read profile")
    p.add_argument("--bits", type=int, default=32)
    p.set_defaults(func=cmd_fig5)

    workload_help = (
        "workload name from the registry "
        f"(registered: {', '.join(available_workloads())})"
    )

    p = sub.add_parser("heatmap", help="Figs. 14-16 heatmap for one config")
    p.add_argument("--workload", default="mult", help=workload_help)
    p.add_argument("--config", default="StxSt")
    p.add_argument("--iterations", type=int, default=5000)
    _add_engine_flags(p)
    _add_sim_flags(p)
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("fig17", help="Fig. 17 lifetime improvements")
    p.add_argument("--workload", default="mult", help=workload_help)
    p.add_argument("--iterations", type=int, default=10000)
    _add_engine_flags(p)
    _add_sim_flags(p)
    p.set_defaults(func=cmd_fig17)

    p = sub.add_parser("table3", help="Table 3 summary")
    p.add_argument("--iterations", type=int, default=10000)
    _add_engine_flags(p)
    _add_sim_flags(p)
    p.set_defaults(func=cmd_table3)

    p = sub.add_parser("lifetime", help="lifetime bounds + technology sweep")
    p.add_argument("--technology", default="MRAM")
    p.add_argument("--writes-per-op", type=float, default=9824)
    p.add_argument("--iterations", type=int, default=2000)
    _add_engine_flags(p)
    _add_sim_flags(p)
    p.set_defaults(func=cmd_lifetime)

    p = sub.add_parser("fig11b", help="Fig. 11b failed-cell curve")
    p.add_argument("--trials", type=int, default=4)
    p.set_defaults(func=cmd_fig11b)

    p = sub.add_parser("report", help="full report for one run")
    p.add_argument("--workload", default="mult", help=workload_help)
    p.add_argument("--config", default="StxSt")
    p.add_argument("--iterations", type=int, default=2000)
    _add_engine_flags(p)
    _add_sim_flags(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("export", help="run once and save result/csv/pgm artifacts")
    p.add_argument("--workload", default="mult", help=workload_help)
    p.add_argument("--config", default="StxSt")
    p.add_argument("--iterations", type=int, default=2000)
    p.add_argument("--out", default="results")
    _add_engine_flags(p)
    _add_sim_flags(p)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("switching", help="data-dependent switching wear")
    p.add_argument("--bits", type=int, default=16)
    p.add_argument("--samples", type=int, default=32)
    p.set_defaults(func=cmd_switching)

    p = sub.add_parser("deployment", help="duty-cycle / array-farm lifetimes")
    p.add_argument("--iterations", type=int, default=500)
    p.add_argument("--arrays", type=int, default=256)
    _add_engine_flags(p)
    _add_sim_flags(p)
    p.set_defaults(func=cmd_deployment)

    p = sub.add_parser("remap-sweep", help="recompile-frequency sweep")
    p.add_argument("--workload", default="dot", help=workload_help)
    p.add_argument("--iterations", type=int, default=20000)
    p.add_argument(
        "--intervals", type=int, nargs="+",
        default=[10000, 1000, 500, 100, 50, 10],
    )
    _add_engine_flags(p)
    _add_sim_flags(p)
    p.set_defaults(func=cmd_remap_sweep)

    p = sub.add_parser(
        "fleet",
        help="fleet-scale endurance campaign with stochastic traffic",
    )
    p.add_argument("--arrays", type=int, default=64, help="population size")
    p.add_argument("--days", type=int, default=30, help="virtual days")
    p.add_argument(
        "--workloads", metavar="NAME[:WEIGHT]", nargs="+", default=["mult"],
        help="cohort workloads with optional traffic weights "
             "(e.g. mult:2 conv:1)",
    )
    p.add_argument(
        "--config", default="StxSt", help="balance configuration label"
    )
    p.add_argument(
        "--technology-mix", metavar="NAME[:WEIGHT]", nargs="+",
        default=["MRAM"],
        help="technology presets with optional population weights "
             "(e.g. MRAM:3 RRAM:1)",
    )
    p.add_argument(
        "--sigma", type=float, default=0.0,
        help="per-cell lognormal endurance spread (0 = uniform)",
    )
    p.add_argument(
        "--repacking", action="store_true", default=False,
        help="arrays die at the fault-aware repacking horizon instead "
             "of first cell failure",
    )
    p.add_argument(
        "--traffic", choices=("deterministic", "poisson", "bursty"),
        default="poisson", help="arrival process",
    )
    p.add_argument(
        "--rate", type=float, default=1000.0,
        help="mean requests per virtual day",
    )
    p.add_argument(
        "--iters-per-request", type=int, default=1,
        help="workload iterations one request costs",
    )
    p.add_argument(
        "--dispatch", choices=("even", "least_worn"), default="even",
        help="how a cohort's demand spreads over its live arrays",
    )
    p.add_argument(
        "--duty-cycle", type=float, default=1.0,
        help="fraction of each day an array may compute",
    )
    p.add_argument(
        "--slo", type=float, default=0.999,
        help="confidence level for capacity-headroom analysis",
    )
    p.add_argument(
        "--cohort-iterations", type=int, default=2000,
        help="iterations for each cohort's wear calibration",
    )
    p.add_argument(
        "--checkpoint-dir", default=None,
        help="directory for campaign checkpoints (enables resume)",
    )
    p.add_argument(
        "--checkpoint-every", type=int, default=0,
        help="checkpoint after every N completed virtual days",
    )
    p.add_argument(
        "--stop-after-day", type=int, default=None,
        help="pause after this virtual day (requires --checkpoint-dir); "
             "rerun to resume",
    )
    p.add_argument(
        "--json", action="store_true", default=False,
        help="emit the fleet report as JSON",
    )
    _add_engine_flags(p)
    _add_sim_flags(p)
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser(
        "verify",
        help="statically check workloads/configs without simulating",
    )
    p.add_argument(
        "--workload", default="all",
        choices=["all", *available_workloads()],
        help="workload to check (default: all registered)",
    )
    p.add_argument(
        "--library", default="all",
        choices=["all", *_LIBRARY_NAMES],
        help="gate library to check (default: all built-ins)",
    )
    p.add_argument(
        "--config", dest="configs", metavar="LABEL", nargs="+",
        default=list(_VERIFY_CONFIGS),
        help="balance configuration labels to check "
             f"(default: {' '.join(_VERIFY_CONFIGS)})",
    )
    p.add_argument(
        "--functional", action="store_true", default=False,
        help="treat functional findings (uninitialized reads, dead "
             "writes, tag coverage) as errors, not warnings",
    )
    p.add_argument(
        "--fleet", action="store_true", default=False,
        help="verify a fleet campaign spec statically (RNG stream "
             "discipline, RPR015; cohort configs) instead of the "
             "workload sweep",
    )
    p.add_argument(
        "--self", dest="self_lint", action="store_true", default=False,
        help="run the repo self-lint (RPR018): registry append-only, "
             "telemetry event/counter vocabulary, __all__ consistency",
    )
    p.add_argument(
        "--arrays", type=int, default=512,
        help="population size for --fleet (default: the E33 spec's 512)",
    )
    p.add_argument(
        "--traffic", choices=("deterministic", "poisson", "bursty"),
        default="poisson",
        help="arrival model for the --fleet stream-discipline checks",
    )
    p.add_argument(
        "--json", action="store_true", default=False,
        help="emit the merged report as JSON",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "trace",
        help="run a PIMulator-style trace as a workload (E35)",
    )
    p.add_argument(
        "--file", default=None, metavar="TRACE",
        help="trace file to load (default: the bundled GEMV fixture)",
    )
    p.add_argument(
        "--bits", type=int, default=8,
        help="operand width for the lowered compute ops",
    )
    p.add_argument(
        "--policy", choices=MAPPING_POLICIES, default="direct",
        help="address-to-lane mapping policy",
    )
    p.add_argument(
        "--config", dest="configs", metavar="LABEL", nargs="+",
        default=["StxSt", "BsxBs", "BsxBs+Hw"],
        help="balance configuration labels to verify and simulate",
    )
    p.add_argument("--iterations", type=int, default=2000)
    p.add_argument(
        "--verify-only", action="store_true", default=False,
        help="stop after the static checks (no simulation)",
    )
    _add_engine_flags(p)
    _add_sim_flags(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("stats", help="summarize a JSONL telemetry trace")
    p.add_argument("trace_file", help="trace produced with --trace FILE")
    p.set_defaults(func=cmd_stats)

    return parser


def _configure_telemetry(args) -> list:
    """Attach the sinks the telemetry flags ask for; returns them.

    An engine-routed run (one given ``--cache-dir``) also gets a
    :class:`TextReporter`, attached last so each ``[engine]`` line
    follows the flag sinks' lines for the same event. ``fleet`` drives
    its engine batches silently.
    """
    tele = get_telemetry()
    sinks = []
    if getattr(args, "log_level", None):
        level = getattr(logging, args.log_level.upper())
        logging.basicConfig(level=level, stream=sys.stderr)
        sinks.append(LoggingSink(level=level))
    if getattr(args, "trace", None):
        sinks.append(JsonlSink(args.trace))
    if getattr(args, "progress", False):
        sinks.append(ProgressSink())
    if _engine_routed(args) and args.command != "fleet":
        sinks.append(TextReporter())
    tele.sinks.extend(sinks)
    return sinks


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    sinks = _configure_telemetry(args)
    tele = get_telemetry()
    before = tele.snapshot()["counters"]
    try:
        try:
            status = args.func(args)
        except VerificationError as error:
            # Pre-dispatch verification failures (e.g. RPR019: a horizon
            # past float64's exact integers) are user errors, not bugs —
            # render the report, not a traceback.
            warn(error.report.render_text())
            return 1
        except EngineError as error:
            # A job that failed: its reason on one line
            # (the engine's FAILED line has already named it).
            warn("error: " + " ".join(str(error).split()))
            return 1
    finally:
        if sinks:
            # Close the trace with this command's counters, so `stats`
            # can show what ran and what was reused.
            counters = {
                name: value - before.get(name, 0)
                for name, value in tele.snapshot()["counters"].items()
                if value != before.get(name, 0)
            }
            tele.emit("counters", counters=counters)
        for sink in sinks:
            if sink in tele.sinks:
                tele.sinks.remove(sink)
            sink.close()
    return int(status or 0)


if __name__ == "__main__":
    sys.exit(main())
