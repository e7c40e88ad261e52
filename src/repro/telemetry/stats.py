"""JSONL trace schema validation and summarization (``repro stats``).

A trace is one JSON object per line, each with a float ``ts`` and a
string ``event``; known events additionally carry required fields
(:data:`EVENT_FIELDS`). Unknown events are legal — the schema is open
for forward compatibility — but malformed lines, missing envelope
fields, and known events missing their required fields are
:class:`TraceSchemaError` s, which the ``repro stats`` subcommand turns
into a nonzero exit (the CI trace gate relies on this).

:func:`summarize_trace` folds a trace into one aggregate view — event
census, per-phase timing, per-job outcomes, cache hit/miss, fleet days,
counters, verifier diagnostics and simulations — and
:func:`format_stats` renders it for a terminal.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Iterator, List, Union

#: Required fields per known event. The envelope (``ts`` + ``event``) is
#: required on every record; events absent from this map are accepted
#: with any fields.
EVENT_FIELDS: Dict[str, frozenset] = {
    "phase": frozenset({"name", "seconds"}),
    "simulation": frozenset(
        {"workload", "config", "iterations", "epochs", "kernel", "seconds"}
    ),
    "batch_start": frozenset({"total", "cached"}),
    "batch_end": frozenset({"completed", "cached", "failed", "wall_s"}),
    "job_start": frozenset({"label"}),
    "job_end": frozenset({"label", "status", "wall_s"}),
    "job_rejected": frozenset({"label", "errors", "codes"}),
    "verify_report": frozenset({"codes", "errors", "warnings", "total"}),
    "grid_progress": frozenset({"done", "total", "label"}),
    "fleet_start": frozenset({"arrays", "days", "cohorts"}),
    "fleet_day": frozenset({"day", "alive", "served"}),
    "fleet_checkpoint": frozenset({"day"}),
    "fleet_end": frozenset({"days", "alive", "deaths"}),
    "counters": frozenset({"counters"}),
}

#: The documented counter/gauge name registry. Every
#: ``Telemetry.count``/``Telemetry.gauge`` call site in ``src/repro``
#: uses a name listed here (enforced by the ``repro.verify.lint``
#: self-lint pass, RPR018), so ``repro-endurance stats`` renders a
#: closed, greppable vocabulary rather than ad-hoc strings. See
#: ``docs/observability.md``.
KNOWN_COUNTERS: frozenset = frozenset(
    {
        "compile.programs",
        "engine.cache_hits",
        "engine.cache_misses",
        "engine.completed",
        "engine.failures",
        "engine.jobs",
        "engine.rejected",
        "eval.batches",
        "eval.draws",
        "fastforward.epochs_collapsed",
        "fastforward.period",
        "fastforward.runs",
        "fleet.checkpoints",
        "fleet.days",
        "fleet.deaths",
        "fleet.rejected",
        "fleet.threshold_draws",
        "kernel.chunks",
        "kernel.compact_gemms",
        "kernel.gemms",
        "kernel.maps_memo_hits",
        "kernel.maps_memo_misses",
        "mapping.memo_hits",
        "mapping.memo_misses",
        "pool.hits",
        "pool.misses",
        "sim.epochs",
        "sim.epochs_per_s",
        "sim.iterations",
        "sim.runs",
        "verify.diagnostics",
        "verify.errors",
        "verify.program_memo_hits",
        "verify.runs",
    }
)


class TraceSchemaError(ValueError):
    """A trace line violates the JSONL event schema."""

    def __init__(self, line_number: int, message: str) -> None:
        self.line_number = line_number
        super().__init__(f"trace line {line_number}: {message}")


def validate_record(record: Dict, line_number: int = 0) -> Dict:
    """Check one record against the schema; returns it unchanged.

    Raises:
        TraceSchemaError: missing/ill-typed envelope fields, or a known
            event missing one of its required fields.
    """
    if not isinstance(record, dict):
        raise TraceSchemaError(line_number, "record is not a JSON object")
    ts = record.get("ts")
    if not isinstance(ts, (int, float)) or isinstance(ts, bool):
        raise TraceSchemaError(line_number, "missing or non-numeric 'ts'")
    event = record.get("event")
    if not isinstance(event, str) or not event:
        raise TraceSchemaError(line_number, "missing or empty 'event'")
    required = EVENT_FIELDS.get(event)
    if required:
        missing = sorted(required - record.keys())
        if missing:
            raise TraceSchemaError(
                line_number,
                f"event {event!r} missing required field(s): "
                f"{', '.join(missing)}",
            )
    return record


def iter_trace(path: str) -> Iterator[Dict]:
    """Yield validated records from a JSONL trace file.

    Raises:
        TraceSchemaError: on unparsable lines or schema violations.
    """
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceSchemaError(number, f"invalid JSON ({exc})") from exc
            yield validate_record(record, number)


def summarize_trace(records: Union[str, Iterable[Dict]]) -> Dict:
    """Fold a trace into one aggregate summary dict.

    Args:
        records: A trace file path or an iterable of (validated) records.

    Returns:
        A JSON-able dict with keys ``records``, ``span_s``, ``events``
        (event -> count), ``phases`` (name -> calls/total_s/mean_s),
        ``jobs`` (status -> count, plus the ``wall_s`` total),
        ``cache`` (hits/misses), ``fleet`` (virtual days, checkpoints),
        ``counters`` (the merged
        telemetry counter snapshots from ``counters`` events, last write
        wins per key),
        ``diagnostics`` (verifier code -> occurrence count, folded from
        ``verify_report`` and ``job_rejected`` events), and
        ``simulations`` (count, iterations, epochs, and ``by_kernel``:
        runs per kernel branch — ``fastforward`` or ``batched``; traces
        written before fast-forward became automatic also say
        ``epoch``).
    """
    if isinstance(records, str):
        records = iter_trace(records)
    events: Dict[str, int] = {}
    phases: Dict[str, List[float]] = {}
    jobs: Dict[str, int] = {}
    job_wall_s = 0.0
    cache_hits = 0
    cache_misses = 0
    fleet_days = 0
    fleet_checkpoints = 0
    counters: Dict[str, Union[int, float]] = {}
    diagnostics: Dict[str, int] = {}
    sim_count = 0
    sim_iterations = 0
    sim_epochs = 0
    sim_kernels: Dict[str, int] = {}
    first_ts = None
    last_ts = None
    total = 0
    for record in records:
        total += 1
        ts = record["ts"]
        first_ts = ts if first_ts is None else min(first_ts, ts)
        last_ts = ts if last_ts is None else max(last_ts, ts)
        event = record["event"]
        events[event] = events.get(event, 0) + 1
        if event == "phase":
            entry = phases.setdefault(record["name"], [0.0, 0])
            entry[0] += float(record["seconds"])
            entry[1] += 1
        elif event == "job_end":
            status = str(record["status"])
            jobs[status] = jobs.get(status, 0) + 1
            job_wall_s += float(record["wall_s"])
            if status == "cached":
                cache_hits += 1
            else:
                cache_misses += 1
        elif event == "fleet_day":
            fleet_days += 1
        elif event == "fleet_checkpoint":
            fleet_checkpoints += 1
        elif event == "counters":
            payload = record["counters"]
            if isinstance(payload, dict):
                counters.update(payload)
        elif event in ("verify_report", "job_rejected"):
            codes = record["codes"]
            if isinstance(codes, list):
                for code in codes:
                    code = str(code)
                    diagnostics[code] = diagnostics.get(code, 0) + 1
        elif event == "simulation":
            sim_count += 1
            sim_iterations += int(record["iterations"])
            sim_epochs += int(record["epochs"])
            kernel = str(record["kernel"])
            sim_kernels[kernel] = sim_kernels.get(kernel, 0) + 1
    return {
        "records": total,
        "span_s": round((last_ts - first_ts), 6) if total else 0.0,
        "events": dict(sorted(events.items())),
        "phases": {
            name: {
                "calls": int(calls),
                "total_s": round(seconds, 6),
                "mean_s": round(seconds / calls, 6) if calls else 0.0,
            }
            for name, (seconds, calls) in sorted(phases.items())
        },
        "jobs": {
            "by_status": dict(sorted(jobs.items())),
            "wall_s": round(job_wall_s, 6),
        },
        "cache": {"hits": cache_hits, "misses": cache_misses},
        "fleet": {
            "days": fleet_days,
            "checkpoints": fleet_checkpoints,
        },
        "counters": dict(sorted(counters.items())),
        "diagnostics": dict(sorted(diagnostics.items())),
        "simulations": {
            "count": sim_count,
            "iterations": sim_iterations,
            "epochs": sim_epochs,
            "by_kernel": dict(sorted(sim_kernels.items())),
        },
    }


def format_stats(summary: Dict) -> str:
    """Render a :func:`summarize_trace` summary for a terminal."""
    lines = [
        f"trace: {summary['records']} record(s) over "
        f"{summary['span_s']:.3f}s",
        "",
        "events:",
    ]
    for event, count in summary["events"].items():
        lines.append(f"  {event:<16} {count}")
    if summary["phases"]:
        lines.append("")
        lines.append("phases:")
        for name, info in summary["phases"].items():
            lines.append(
                f"  {name:<28} {info['calls']:>5} call(s)  "
                f"total {info['total_s']:.3f}s  mean {info['mean_s']:.4f}s"
            )
    jobs = summary["jobs"]["by_status"]
    if jobs:
        lines.append("")
        lines.append("jobs:")
        for status, count in jobs.items():
            lines.append(f"  {status:<16} {count}")
        lines.append(
            f"  simulated wall {summary['jobs']['wall_s']:.2f}s"
        )
        lines.append(
            f"cache: {summary['cache']['hits']} hit(s), "
            f"{summary['cache']['misses']} miss(es)"
        )
    fleet = summary.get("fleet", {})
    if fleet.get("days"):
        lines.append("")
        lines.append(
            f"fleet: {fleet['days']} virtual day(s), "
            f"{fleet['checkpoints']} checkpoint(s)"
        )
    counters = summary.get("counters", {})
    if counters:
        lines.append("")
        lines.append("counters:")
        for name, value in counters.items():
            lines.append(f"  {name:<28} {value}")
    diagnostics = summary.get("diagnostics", {})
    if diagnostics:
        lines.append("")
        lines.append("diagnostics:")
        for code, count in diagnostics.items():
            lines.append(f"  {code:<28} {count}")
    sims = summary["simulations"]
    if sims["count"]:
        lines.append("")
        lines.append(
            f"simulations: {sims['count']} run(s), "
            f"{sims['iterations']} iterations, {sims['epochs']} epochs"
        )
        for kernel, count in sims.get("by_kernel", {}).items():
            lines.append(f"  {kernel:<16} {count}")
    return "\n".join(lines)
