"""Output accuracy under stuck-at faults.

Section 3.3 asserts that once cells start failing "the array can produce
incorrect results", and Eq. 4 therefore declares the array dead at its
first cell failure. This module makes that assertion quantitative: inject
stuck-at faults into a lane program's logical bits and measure how often
(and how badly) its results are wrong on random operands.

The headline measurement (benchmark E28): with the ring layout, a single
stuck workspace cell corrupts the majority of multiplications — the
paper's conservative death criterion is well-founded, because load
balancing moves computation *through* every cell, so there is no such
thing as a harmlessly-dead workspace bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.synth.program import LaneProgram

@dataclass(frozen=True)
class AccuracyReport:
    """Error statistics of a faulted program on sampled operands.

    Attributes:
        n_faults: Stuck-at faults injected.
        samples: Operand samples evaluated.
        error_rate: Fraction of samples whose output was wrong.
        mean_relative_error: Mean of ``|wrong - right| / max(right, 1)``
            over the erroneous samples (0 when none erred).
    """

    n_faults: int
    samples: int
    error_rate: float
    mean_relative_error: float


def measure_fault_accuracy(
    program: LaneProgram,
    reference: "callable",
    n_faults: int = 1,
    samples: int = 32,
    rng: "np.random.Generator | int | None" = None,
    output: Optional[str] = None,
    fault_addresses: Optional[Sequence[int]] = None,
) -> AccuracyReport:
    """Measure a program's output accuracy with stuck-at faults injected.

    For each sample, random operands are drawn, the program is evaluated
    with the faulted cells, and the named output is compared against
    ``reference(**operands)``. Every sample is evaluated in one SWAR
    batch (:meth:`CompiledProgram.evaluate_batch`).

    Args:
        program: The lane program under test.
        reference: Callable mapping the program's operand values to the
            correct output integer (e.g. ``lambda a, b: a * b``).
        n_faults: Stuck-at cells to inject (uniformly random addresses and
            stuck values, redrawn per sample to average over positions).
        samples: Operand samples.
        rng: Seed or generator.
        output: Output name (defaults to the program's only output).
        fault_addresses: Restrict fault positions to these addresses
            (e.g. only workspace cells); default is the whole footprint.
    """
    draws = _FaultDraws.draw(
        program, reference, n_faults, samples, rng, output, fault_addresses
    )
    batch_outputs, _ = program.compiled().evaluate_batch(
        draws.operands, stuck=draws.stuck if n_faults else None
    )
    return draws.report([int(v) for v in batch_outputs[draws.output]])


def _measure_fault_accuracy_interpreted(
    program: LaneProgram,
    reference: "callable",
    n_faults: int = 1,
    samples: int = 32,
    rng: "np.random.Generator | int | None" = None,
    output: Optional[str] = None,
    fault_addresses: Optional[Sequence[int]] = None,
) -> AccuracyReport:
    """:func:`measure_fault_accuracy`'s slow oracle (tests only).

    Draws the same samples through the same code, then walks the
    per-instruction interpreter (:meth:`LaneProgram.evaluate`) once per
    sample; tests pin the two reports equal.
    """
    draws = _FaultDraws.draw(
        program, reference, n_faults, samples, rng, output, fault_addresses
    )
    actual_values = []
    for index in range(samples):
        outputs, _ = program.evaluate(
            {name: values[index] for name, values in draws.operands.items()},
            stuck=draws.stuck[index],
        )
        actual_values.append(outputs[draws.output])
    return draws.report(actual_values)


@dataclass(frozen=True)
class _FaultDraws:
    """One accuracy measurement's sampled operands, faults and answers."""

    n_faults: int
    output: str
    operands: Dict[str, List[int]]
    expected: List[int]
    stuck: List[Dict[int, int]]

    @classmethod
    def draw(
        cls,
        program: LaneProgram,
        reference: "callable",
        n_faults: int,
        samples: int,
        rng: "np.random.Generator | int | None",
        output: Optional[str],
        fault_addresses: Optional[Sequence[int]],
    ) -> "_FaultDraws":
        """Validate the arguments and draw every sample.

        Per sample: one integer draw per operand, then the fault
        positions and stuck values. Both evaluators call this, so they
        consume the identical RNG stream.
        """
        if n_faults < 0:
            raise ValueError("n_faults must be non-negative")
        if samples < 1:
            raise ValueError("samples must be positive")
        if output is None:
            if len(program.outputs) != 1:
                raise ValueError(
                    "program has multiple outputs; pass `output` explicitly"
                )
            output = next(iter(program.outputs))
        generator = np.random.default_rng(rng)
        positions = (
            np.asarray(fault_addresses, dtype=np.int64)
            if fault_addresses is not None
            else np.arange(program.footprint, dtype=np.int64)
        )
        if n_faults > positions.size:
            raise ValueError("more faults than candidate addresses")

        widths = {name: len(addrs) for name, addrs in program.inputs.items()}
        operand_draws: Dict[str, List[int]] = {name: [] for name in widths}
        expected_values: List[int] = []
        stuck_maps: List[Dict[int, int]] = []
        for _ in range(samples):
            operands = {}
            for name, width in widths.items():
                value = int(generator.integers(0, 2**width))
                operands[name] = value
                operand_draws[name].append(value)
            expected_values.append(reference(**operands))
            stuck: Dict[int, int] = {}
            if n_faults:
                chosen = generator.choice(
                    positions, size=n_faults, replace=False
                )
                for address in chosen:
                    stuck[int(address)] = int(generator.integers(0, 2))
            stuck_maps.append(stuck)
        return cls(
            n_faults, output, operand_draws, expected_values, stuck_maps
        )

    def report(self, actual_values: Sequence[int]) -> AccuracyReport:
        """Score ``actual_values`` against the reference answers."""
        relative_errors = [
            abs(actual - expected) / max(expected, 1)
            for actual, expected in zip(actual_values, self.expected)
            if actual != expected
        ]
        return AccuracyReport(
            n_faults=self.n_faults,
            samples=len(self.expected),
            error_rate=len(relative_errors) / len(self.expected),
            mean_relative_error=(
                float(np.mean(relative_errors)) if relative_errors else 0.0
            ),
        )
