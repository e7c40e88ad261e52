"""The lifetime model: Equations 1, 2 and 4, and improvement factors.

Equation 4 (Section 4)::

    Lifetime = Cell Endurance / max(WriteCount) * Application Latency

where ``max(WriteCount)`` is per iteration and the application latency is
the per-iteration latency — "we use write distributions to estimate the
lifetime of the PIM array by finding when the first memory cell fails. We
consider this as the failure of the entire array."

Equations 1 and 2 (Section 3.1) are upper bounds that ignore imbalance:
the total array write budget divided by writes per operation (Eq. 1), and
by the full-utilization write rate (Eq. 2, "35.56 days" for MTJ at 1e12;
"just over 5 minutes" at RRAM's 1e8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.array.geometry import ArrayGeometry
from repro.core.simulator import SimulationResult
from repro.devices.endurance import EnduranceModel, UniformEndurance
from repro.devices.technology import Technology

_SECONDS_PER_DAY = 86_400.0


@dataclass(frozen=True)
class LifetimeEstimate:
    """First-cell-failure lifetime of a PIM array under a workload.

    Attributes:
        iterations_to_failure: Workload repetitions until the hottest cell
            exhausts its endurance.
        seconds_to_failure: The same horizon in wall-clock time.
        max_writes_per_iteration: The Eq. 4 denominator.
        endurance_writes: Cell endurance assumed.
    """

    iterations_to_failure: float
    seconds_to_failure: float
    max_writes_per_iteration: float
    endurance_writes: float

    @property
    def days_to_failure(self) -> float:
        """Lifetime in days (the paper's headline unit)."""
        return self.seconds_to_failure / _SECONDS_PER_DAY

    @property
    def years_to_failure(self) -> float:
        """Lifetime in years."""
        return self.days_to_failure / 365.0


def lifetime_from_result(
    result: SimulationResult,
    technology: Optional[Technology] = None,
    endurance_model: Optional[EnduranceModel] = None,
) -> LifetimeEstimate:
    """Apply Eq. 4 to a simulation result.

    Args:
        result: A completed simulation.
        technology: Overrides the architecture's technology (e.g. to ask
            "what if this were RRAM?").
        endurance_model: Overrides the uniform-endurance assumption, e.g.
            with :class:`~repro.devices.endurance.LognormalEndurance`; the
            model sees the full per-iteration write matrix, so cell-to-cell
            endurance variation interacts with the wear pattern.
    """
    tech = technology or result.architecture.technology
    if endurance_model is None:
        endurance_model = UniformEndurance(tech.endurance_writes)
    if type(endurance_model) is UniformEndurance:
        # Uniform endurance reads only the hottest cell's rate; dividing
        # by the iterations is monotone, so the peak of the rate matrix
        # is the peak count's rate, without building the matrix.
        iterations = endurance_model.iterations_at_peak(
            result.max_writes_per_iteration
        )
    else:
        iterations = endurance_model.iterations_to_first_failure(
            result.state.write_counts / result.iterations
        )
    latency = result.iteration_latency_s
    return LifetimeEstimate(
        iterations_to_failure=iterations,
        seconds_to_failure=iterations * latency,
        max_writes_per_iteration=result.max_writes_per_iteration,
        endurance_writes=tech.endurance_writes,
    )


def lifetime_improvement(
    result: SimulationResult, baseline: SimulationResult
) -> float:
    """Lifetime ratio versus a baseline "in terms of number of operations
    before failure" (Fig. 17's y-axis; baseline = St x St)."""
    if result.workload_name != baseline.workload_name:
        raise ValueError(
            "improvement must compare runs of the same workload, got "
            f"{result.workload_name!r} vs {baseline.workload_name!r}"
        )
    ours = result.max_writes_per_iteration
    theirs = baseline.max_writes_per_iteration
    if ours == 0:
        return float("inf")
    return theirs / ours


def lifetime_with_read_wear(
    result: SimulationResult,
    read_wear_ratio: float,
    technology: Optional[Technology] = None,
) -> LifetimeEstimate:
    """Eq. 4 with read disturb folded in as fractional wear.

    The paper counts only writes against endurance, but PIM reads outnumber
    writes ~2:1 (two-input gates), and several NVM technologies exhibit
    read disturb. Modelling a read as ``read_wear_ratio`` of a write's wear
    (typical estimates are 1e-3 to 1e-6), the effective per-cell wear rate
    becomes ``writes + ratio * reads``. Requires the simulation to have
    tracked reads.

    Args:
        result: A completed simulation with ``track_reads=True``.
        read_wear_ratio: Wear of one read relative to one write.
        technology: Optional technology override.
    """
    if read_wear_ratio < 0:
        raise ValueError("read_wear_ratio must be non-negative")
    if result.state.total_reads == 0 and read_wear_ratio > 0:
        raise ValueError(
            "simulation did not track reads; re-run with track_reads=True"
        )
    tech = technology or result.architecture.technology
    effective = (
        result.state.write_counts
        + read_wear_ratio * result.state.read_counts
    ) / result.iterations
    peak = float(effective.max())
    if peak == 0:
        iterations = float("inf")
    else:
        iterations = tech.endurance_writes / peak
    latency = result.iteration_latency_s
    return LifetimeEstimate(
        iterations_to_failure=iterations,
        seconds_to_failure=iterations * latency,
        max_writes_per_iteration=peak,
        endurance_writes=tech.endurance_writes,
    )


# ----------------------------------------------------------------------
# Analytic upper bounds (Section 3.1)
# ----------------------------------------------------------------------


def array_write_budget(geometry: ArrayGeometry, endurance_writes: float) -> float:
    """Total writes an array can absorb with perfect balance: ``N^2 * E``."""
    if endurance_writes <= 0:
        raise ValueError("endurance_writes must be positive")
    return geometry.n_cells * endurance_writes


def eq1_operations_until_total_failure(
    geometry: ArrayGeometry, endurance_writes: float, writes_per_operation: float
) -> float:
    """Eq. 1: operations before total break-down under perfect balance.

    For a 1024 x 1024 array at 1e12 endurance and 9,824 writes per 32-bit
    multiplication: 1.07e14 multiplications.
    """
    if writes_per_operation <= 0:
        raise ValueError("writes_per_operation must be positive")
    return array_write_budget(geometry, endurance_writes) / writes_per_operation


def eq2_seconds_until_total_failure(
    geometry: ArrayGeometry,
    endurance_writes: float,
    active_lanes: int,
    op_latency_s: float = 3e-9,
) -> float:
    """Eq. 2: time until every cell breaks down at full utilization.

    Each active lane writes one cell per gate slot, so the array consumes
    ``active_lanes / op_latency`` writes per second. At 1024 lanes, 3 ns
    and 1e12 endurance this is 3,072,000 s = 35.56 days; at RRAM's 1e8 it
    is 307 s — "just over 5 minutes".
    """
    if active_lanes <= 0:
        raise ValueError("active_lanes must be positive")
    if op_latency_s <= 0:
        raise ValueError("op_latency_s must be positive")
    writes_per_second = active_lanes / op_latency_s
    return array_write_budget(geometry, endurance_writes) / writes_per_second
