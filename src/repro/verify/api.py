"""High-level entry points composing the static-analysis passes.

Callers pick the surface that matches what they hold:

* :func:`verify_program` — one :class:`LaneProgram`;
* :func:`verify_mapping` — a built :class:`WorkloadMapping` (plus,
  optionally, the balance configuration it will run under);
* :func:`verify_network` — interconnected programs exchanging tagged
  read-out streams.

An engine job is checked as its mapping:
``verify_mapping(mapping_for(workload, architecture), config,
functional=False, iterations=..., track_reads=...)``, which the
simulator runs before every simulation.

``functional=False`` relaxes the value-semantics codes (RPR001, RPR002,
RPR004) to warnings: wear simulations never execute gate values, so a
wear-view canonical program with placeholder transfer tags is legal
there even though it could not be *evaluated*. Structural codes (bounds,
hazards, conservation, permutations, schedules) stay errors — they
corrupt wear accounting no matter the execution mode.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.synth.program import SRC_EXTERNAL, LaneProgram
from repro.telemetry import get_telemetry
from repro.verify.dataflow import check_bounds, check_dataflow, check_levels
from repro.verify.diagnostics import (
    Diagnostic,
    Location,
    Severity,
    VerifyReport,
)
from repro.verify.lint import self_lint
from repro.verify.streams import check_streams
from repro.verify.wear import (
    check_config,
    check_profile_conservation,
    check_remapper_conservation,
    check_schedule,
)

__all__ = [
    "VerificationError",
    "verify_program",
    "verify_mapping",
    "verify_network",
    "verify_fleet_spec",
    "verify_self",
]

#: Codes that assert value semantics rather than wear accounting.
FUNCTIONAL_CODES = frozenset({"RPR001", "RPR002", "RPR004"})

#: float64 holds every integer below this exactly; a run its per-cell
#: bound keeps out of float32 holds its wear counters, epoch weights and
#: conservation sum as integer-valued float64.
EXACT_FLOAT_LIMIT = 2**53


class VerificationError(ValueError):
    """A verification run found errors and the caller demanded none.

    Attributes:
        report: The full :class:`VerifyReport`, for inspection.
    """

    def __init__(self, report: VerifyReport) -> None:
        self.report = report
        super().__init__(report.render_text())


def _relax_functional(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    """Downgrade value-semantics findings to warnings (wear-only mode)."""
    relaxed = []
    for diagnostic in diagnostics:
        if (
            diagnostic.code in FUNCTIONAL_CODES
            and diagnostic.severity is Severity.ERROR
        ):
            diagnostic = Diagnostic(
                diagnostic.code,
                Severity.WARNING,
                diagnostic.message,
                diagnostic.location,
                diagnostic.hint,
            )
        relaxed.append(diagnostic)
    return relaxed


def _finish(diagnostics: List[Diagnostic]) -> VerifyReport:
    """Wrap findings in a report and count them in telemetry."""
    report = VerifyReport(diagnostics)
    tele = get_telemetry()
    tele.count("verify.runs")
    if len(report):
        tele.count("verify.diagnostics", len(report))
        # Surface the codes themselves in the trace so `repro-endurance
        # stats` can census them alongside the counters.
        tele.emit(
            "verify_report",
            codes=report.codes(),
            errors=len(report.errors),
            warnings=len(report.warnings),
            total=len(report),
        )
    if report.errors:
        tele.count("verify.errors", len(report.errors))
    return report


def _memoized(program: LaneProgram, key, check) -> tuple:
    """``check()``'s findings, kept on ``program`` under ``key``."""
    findings = program._findings.get(key)
    if findings is None:
        findings = program._findings[key] = tuple(check())
    return findings


def _dataflow(program: LaneProgram) -> tuple:
    """RPR001/002/004 findings of ``program``, proved once per program:
    :func:`verify_network` and every :func:`verify_mapping` share the
    memo, so a trace lowered and then verified pays the pass once."""
    return _memoized(program, "dataflow", lambda: check_dataflow(program))


def _check_program(
    program: LaneProgram,
    lane_size: Optional[int],
    writes_per_gate: int,
    spare_bit: bool,
) -> List[Diagnostic]:
    """The per-program passes, the expensive ones memoized on the program.

    A :class:`LaneProgram` is immutable, and the dataflow, level-hazard
    and conservation passes read nothing but the program, ``lane_size``
    and ``writes_per_gate``. Their findings are kept on the program (as
    :func:`~repro.synth.compiled.compile_program` keeps its compiled
    form), so every mapping, run and engine job sharing the program
    object pays them once. The bounds pass is a cheap address scan and
    runs on every call. ``spare_bit`` (hardware re-mapping is active)
    also runs RPR006's remapper leg, memoized on its own: only a ``+Hw``
    run builds a :class:`~repro.balance.hardware.HardwareRemapper`.
    """
    key = (lane_size, writes_per_gate)
    if key in program._findings:
        get_telemetry().count("verify.program_memo_hits")
    structural = _memoized(
        program,
        key,
        lambda: check_levels(program)
        + check_profile_conservation(program, writes_per_gate),
    )
    diagnostics = list(_dataflow(program))
    if lane_size is not None:
        diagnostics.extend(check_bounds(program, lane_size, spare_bit))
    diagnostics.extend(structural)
    if spare_bit and lane_size is not None:
        diagnostics.extend(
            _memoized(
                program,
                ("remapper", lane_size, writes_per_gate),
                lambda: check_remapper_conservation(
                    program, writes_per_gate, lane_size
                ),
            )
        )
    return diagnostics


def verify_program(
    program: LaneProgram,
    lane_size: Optional[int] = None,
    writes_per_gate: int = 1,
    spare_bit: bool = False,
) -> VerifyReport:
    """Statically check one lane program.

    Runs the dataflow pass (RPR001/002/004), the bounds pass when a
    ``lane_size`` is given (RPR003/009), the compiled-level hazard pass
    (RPR005), and profile conservation (RPR006) — including the hardware
    remapper's when ``spare_bit`` says re-mapping is active and a
    ``lane_size`` is given.
    """
    return _finish(
        _check_program(program, lane_size, writes_per_gate, spare_bit)
    )


def verify_mapping(
    mapping,
    config=None,
    functional: bool = True,
    iterations: Optional[int] = None,
    track_reads: bool = False,
) -> VerifyReport:
    """Statically check a built workload mapping.

    Args:
        mapping: A :class:`~repro.workloads.base.WorkloadMapping`.
        config: Optional :class:`~repro.balance.config.BalanceConfig`;
            when given, its permutation streams are validated (RPR007/
            010) and hardware re-mapping's spare-bit requirement is
            enforced (RPR009).
        functional: When False, the value-semantics codes (RPR001/002/
            004) are reported as warnings — a wear-only simulation never
            executes gate values.
        iterations: Optional run horizon; when given, a run whose total
            writes reach 2^53 is refused (RPR019), since past that the
            float64 counters and the conservation sum round silently.
        track_reads: Whether the run accumulates reads too; the horizon
            bound then covers its total reads as well, which can
            outnumber the writes.
    """
    architecture = mapping.architecture
    lane_size = architecture.lane_size
    writes_per_gate = architecture.writes_per_gate
    spare_bit = bool(config.hardware) if config is not None else False
    diagnostics: List[Diagnostic] = []
    for program in mapping.distinct_programs():
        diagnostics.extend(
            _check_program(program, lane_size, writes_per_gate, spare_bit)
        )
    if not functional:
        diagnostics = _relax_functional(diagnostics)
    diagnostics.extend(check_schedule(mapping))
    # Per-lane writes per iteration: the Wa sorting signal and, summed,
    # the horizon bound's rate.
    lane_loads = mapping.lane_loads()
    if config is not None:
        diagnostics.extend(
            check_config(
                config,
                lane_size,
                architecture.lane_count,
                lane_loads=lane_loads,
            )
        )
    if iterations is not None:
        diagnostics.extend(
            _check_horizon(
                mapping.workload_name,
                float(lane_loads.sum()),
                iterations,
                mapping.reads_per_iteration if track_reads else None,
            )
        )
    return _finish(diagnostics)


def _check_horizon(
    workload_name: str,
    writes_per_iteration: float,
    iterations: int,
    reads_per_iteration: Optional[float] = None,
) -> List[Diagnostic]:
    """RPR019: the run's total writes, and its total reads when they are
    tracked, must stay below 2^53.

    Every cell count, lane weight and partial sum of one counter matrix
    is bounded by that matrix's total, so this one bound per tracked
    kind keeps the whole accumulation exact. A refused horizon gets one
    diagnostic, naming the kind that reaches the limit first.
    """
    kind, rate = "writes", writes_per_iteration
    if reads_per_iteration is not None and reads_per_iteration > rate:
        kind, rate = "reads", reads_per_iteration
    per_iteration = math.ceil(rate)
    total = int(iterations) * per_iteration  # exact: Python ints
    if total < EXACT_FLOAT_LIMIT:
        return []
    return [
        Diagnostic(
            "RPR019",
            Severity.ERROR,
            f"{iterations} iterations x {per_iteration} {kind}/iteration "
            f"= {total} {kind} reaches 2^53; float64 counters would "
            "round silently",
            Location(place=f"workload {workload_name}"),
            hint="shorten the horizon to fewer than "
            f"{-(-EXACT_FLOAT_LIMIT // per_iteration)} iterations",
        )
    ]


def verify_network(
    programs: Mapping[int, LaneProgram],
    order: Sequence[int],
    externals: Sequence[str] = (),
) -> VerifyReport:
    """Statically check interconnected programs (tagged stream wiring).

    Proves that :func:`~repro.workloads.base.evaluate_networked` over
    ``order`` cannot fail on the wiring: every consumed transfer tag is
    produced by an earlier lane (or pre-seeded via ``externals``), the
    producer's stream is wide enough for every consumer, and no two
    lanes produce the same tag. A produced-but-unconsumed tag is *not*
    flagged — the network's final result leaves through exactly such a
    tag.
    """
    diagnostics: List[Diagnostic] = []
    if set(order) != set(programs):
        diagnostics.append(
            Diagnostic(
                "RPR004",
                Severity.ERROR,
                "evaluation order must cover exactly the mapped lanes",
                Location(place=f"order {list(order)!r}"),
                hint="every lane appears once; no extras",
            )
        )
        return _finish(diagnostics)
    for lane in order:
        diagnostics.extend(_dataflow(programs[lane]))
    produced = {tag: -1 for tag in externals}  # tag -> width (-1: unknown)
    for lane in order:
        program = programs[lane]
        columns = program.columns
        consumers = np.flatnonzero(columns.source == SRC_EXTERNAL)
        for index, tag_id, slot in zip(
            consumers.tolist(),
            columns.arg[consumers].tolist(),
            columns.bit[consumers].tolist(),
        ):
            tag = columns.tags[tag_id]
            if tag not in produced:
                diagnostics.append(
                    Diagnostic(
                        "RPR004",
                        Severity.ERROR,
                        f"lane {lane} consumes transfer tag {tag!r}, "
                        "which no earlier lane produces",
                        Location(program.name, index, place=f"lane {lane}"),
                        hint="senders must precede their receivers in "
                        "the evaluation order",
                    )
                )
                produced[tag] = -1  # report once per tag
            elif 0 <= produced[tag] <= slot:
                diagnostics.append(
                    Diagnostic(
                        "RPR004",
                        Severity.ERROR,
                        f"lane {lane} reads slot {slot} of "
                        f"transfer tag {tag!r}, which carries only "
                        f"{produced[tag]} bit(s)",
                        Location(program.name, index, place=f"lane {lane}"),
                        hint="widen the producer's tagged read-out or "
                        "narrow the consumer",
                    )
                )
        for tag, width in columns.readout_sizes().items():
            if tag in produced and produced[tag] != -1:
                diagnostics.append(
                    Diagnostic(
                        "RPR004",
                        Severity.ERROR,
                        f"transfer tag {tag!r} is produced by more than one "
                        f"lane (duplicate at lane {lane})",
                        Location(program.name, place=f"lane {lane}"),
                        hint="tags name point-to-point streams; make them "
                        "unique per sender",
                    )
                )
            else:
                produced[tag] = width
    return _finish(diagnostics)


#: Memo for :func:`verify_fleet_spec`, keyed on the facts the passes
#: actually consume. The fleet service verifies on every ``run()``;
#: repeated runs of one campaign (resume, benchmarks) should pay the
#: analysis once.
_FLEET_VERIFY_CACHE: dict = {}


def verify_fleet_spec(spec, use_cache: bool = True) -> VerifyReport:
    """Statically check a fleet campaign spec before any day runs.

    Duck-typed over anything shaped like a
    :class:`~repro.fleet.service.FleetSpec`. Composes the whole-system
    passes:

    * every seeded substream derivation must be collision-free (RPR015)
      — :mod:`repro.verify.streams`;
    * every cohort's balance configuration must validate (RPR007/010).

    Results are memoized on the campaign's ``content_hash``, so gating
    every :meth:`FleetService.run` costs one analysis per distinct
    campaign. Pass ``use_cache=False`` to force a fresh run
    (benchmarks measuring analysis cost do).
    """
    from repro.array.architecture import default_architecture
    from repro.balance.config import BalanceConfig

    key = None
    if use_cache:
        key = spec.content_hash
        cached = _FLEET_VERIFY_CACHE.get(key)
        if cached is not None:
            return cached
    diagnostics: List[Diagnostic] = list(check_streams(spec))
    architecture = default_architecture(spec.rows, spec.cols)
    for cohort in spec.population.cohorts:
        config = BalanceConfig.from_label(cohort.config)
        cohort_findings = check_config(
            config,
            architecture.lane_size,
            architecture.lane_count,
            seed=spec.seed,
        )
        for diagnostic in cohort_findings:
            location = diagnostic.location
            if location.place is None:
                location = Location(
                    location.program,
                    location.instruction,
                    location.address,
                    f"cohort {cohort.key!r}",
                )
            diagnostics.append(
                Diagnostic(
                    diagnostic.code,
                    diagnostic.severity,
                    diagnostic.message,
                    location,
                    diagnostic.hint,
                )
            )
    report = _finish(diagnostics)
    if key is not None:
        _FLEET_VERIFY_CACHE[key] = report
    return report


def verify_self(root=None) -> VerifyReport:
    """Run the repo self-lint (RPR018) and wrap it in a report.

    Args:
        root: Package directory to lint; defaults to the installed
            ``repro`` tree. See :func:`repro.verify.lint.self_lint`.
    """
    return _finish(list(self_lint(root)))
