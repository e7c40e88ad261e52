"""Traced sweep: capture a JSONL telemetry trace and summarize it.

Attaches a `JsonlSink` to the process-local telemetry registry, runs a
small recompile-frequency sweep (Section 5), then reads the trace back
with the same machinery `repro-endurance stats` uses: every simulation,
phase timing, and engine job and batch record lands in the file, and
`summarize_trace` folds them into one aggregate view.

Run:
    python examples/traced_sweep.py [trace.jsonl]

The same trace can come from any CLI run via `--trace FILE`; summarize
either with `repro-endurance stats FILE`.
"""

import sys
import tempfile

from repro import (
    EnduranceSimulator,
    ParallelMultiplication,
    SimulationSettings,
    default_architecture,
    get_telemetry,
    remap_frequency_sweep,
)
from repro.telemetry import JsonlSink, format_stats, summarize_trace

ITERATIONS = 2_000


def main() -> None:
    if len(sys.argv) > 1:
        trace_path = sys.argv[1]
    else:
        trace_path = tempfile.mktemp(suffix=".jsonl", prefix="repro-trace-")

    settings = SimulationSettings(seed=7)
    simulator = EnduranceSimulator(
        default_architecture(rows=256, cols=256), settings
    )

    telemetry = get_telemetry()
    sink = telemetry.add_sink(JsonlSink(trace_path))
    try:
        improvements = remap_frequency_sweep(
            simulator,
            ParallelMultiplication(bits=8),
            intervals=(1_000, 100),
            iterations=ITERATIONS,
            settings=settings,
        )
    finally:
        telemetry.remove_sink(sink)
        sink.close()

    print(f"swept {len(improvements)} recompile intervals:")
    for interval, improvement in sorted(improvements.items()):
        print(f"  every {interval:>5} iterations: {improvement:.2f}x lifetime")

    print(f"\ntrace written to {trace_path}")
    print(f"aggregates snapshot: {telemetry.snapshot()['counters']}\n")
    print(format_stats(summarize_trace(trace_path)))


if __name__ == "__main__":
    main()
