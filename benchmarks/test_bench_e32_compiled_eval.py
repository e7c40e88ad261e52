"""E32 — compiled SWAR evaluator vs its per-instruction interpreter oracle.

Not a paper figure — an infrastructure benchmark for the compiled
functional evaluator (``repro.synth.compiled``). The fault-accuracy
Monte Carlo (E28) evaluates a lane program once per sample; the
interpreter pays one Python dispatch per instruction per sample, which
for the paper's 32-bit DADDA multiplication means ~48k instructions per
draw. The compiled path packs all samples into uint64 bitplanes and
executes each fused gate group as one numpy bitwise op over the whole
batch, with stuck-at faults applied as per-draw masks — bit-identical
reports, orders of magnitude fewer interpreter round-trips. The compiled
path is the only public one (``measure_fault_accuracy``); the
interpreter survives as its private oracle,
``_measure_fault_accuracy_interpreted``, which draws the same samples.

Two tests: a fast bit-identity check (run in CI) and the timed speedup
gate, which writes ``BENCH_E32.json`` alongside the plain-text artifact.
"""

import json
import time

from conftest import bench_iterations
from repro.array.architecture import default_architecture
from repro.core.accuracy import (
    _measure_fault_accuracy_interpreted,
    measure_fault_accuracy,
)
from repro.workloads.multiply import ParallelMultiplication

#: Samples for the timed comparison. Floored so the one-time program
#: compilation amortizes: the speedup is a claim about per-sample
#: dispatch, and a few dozen draws would mostly time the compile.
MIN_SAMPLES = 256


def _samples() -> int:
    return max(bench_iterations(MIN_SAMPLES), MIN_SAMPLES)


def _program(bits: int = 32):
    return ParallelMultiplication(bits=bits).build_program(
        default_architecture()
    )


def _measure(measure, program, samples: int):
    start = time.perf_counter()
    report = measure(
        program,
        lambda a, b: a * b,
        n_faults=1,
        samples=samples,
        rng=7,
    )
    return report, time.perf_counter() - start


def test_bench_e32_bit_identity():
    """Fast CI gate: identical reports, no timing assertions.

    A small 8-bit program keeps this in the seconds range; the property
    suite (tests/test_synth_compiled.py) covers the general equivalence.
    """
    program = _program(bits=8)
    for n_faults in (0, 1, 3):
        compiled = measure_fault_accuracy(
            program, lambda a, b: a * b, n_faults=n_faults, samples=48,
            rng=3,
        )
        interpreted = _measure_fault_accuracy_interpreted(
            program, lambda a, b: a * b, n_faults=n_faults, samples=48,
            rng=3,
        )
        assert compiled == interpreted


def test_bench_e32_compiled_speedup(record, results_dir):
    samples = _samples()
    program = _program()
    compiled_report, compiled_s = _measure(
        measure_fault_accuracy, program, samples
    )
    interpreted_report, interpreted_s = _measure(
        _measure_fault_accuracy_interpreted, program, samples
    )

    assert compiled_report == interpreted_report

    speedup = interpreted_s / compiled_s
    arch = default_architecture()
    payload = {
        "experiment": "E32_compiled_eval",
        "workload": "mult-32b fault-accuracy Monte Carlo",
        "n_faults": 1,
        "samples": samples,
        "architecture": {
            "name": arch.name,
            "rows": arch.geometry.rows,
            "cols": arch.geometry.cols,
        },
        "seed": 7,
        "interpreted": {
            "seconds": round(interpreted_s, 4),
            "samples_per_second": round(samples / interpreted_s, 2),
        },
        "compiled": {
            "seconds": round(compiled_s, 4),
            "samples_per_second": round(samples / compiled_s, 2),
        },
        "speedup": round(speedup, 2),
        "bit_identical": True,
    }
    (results_dir / "BENCH_E32.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    lines = [
        f"E32 compiled SWAR evaluator, mult-32b fault accuracy "
        f"({samples} samples, 1 stuck cell/sample)",
        f"  interpreter   {interpreted_s:8.2f} s  "
        f"({samples / interpreted_s:8.2f} samples/s)",
        f"  compiled      {compiled_s:8.2f} s  "
        f"({samples / compiled_s:8.2f} samples/s)",
        f"  speedup       {speedup:8.1f}x",
        "  reports bit-identical: yes",
    ]
    record("E32_compiled_eval", "\n".join(lines))

    assert speedup >= 20.0, (
        f"compiled evaluator only {speedup:.2f}x faster than the "
        f"interpreter ({compiled_s:.2f}s vs {interpreted_s:.2f}s)"
    )
