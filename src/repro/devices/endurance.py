"""Per-cell endurance models.

The paper assumes "the same endurance for each cell, which makes our
analysis more pessimistic as the actual endurance is more likely to vary
across cells" (Section 4). :class:`UniformEndurance` reproduces that
assumption; :class:`LognormalEndurance` implements the variation the paper
alludes to, so the effect of cell-to-cell spread on first-failure time can
be quantified (benchmark E14).

An endurance model answers two questions about an array whose cells have
accumulated a given per-cell write count:

* ``cells_failed(writes)`` — which cells have exceeded their budget;
* ``writes_to_first_failure(per_iteration_writes)`` — how many repetitions
  of a fixed write pattern the array survives before its first cell dies,
  which is exactly the quantity in the paper's lifetime Equation 4.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np


class EnduranceModel(ABC):
    """Maps accumulated per-cell write counts to cell failures."""

    @abstractmethod
    def sample_budgets(self, shape: tuple) -> np.ndarray:
        """Draw the per-cell write budget for an array of ``shape``."""

    def cells_failed(self, writes: np.ndarray, budgets: Optional[np.ndarray] = None) -> np.ndarray:
        """Boolean mask of cells whose accumulated writes exceed their budget.

        Args:
            writes: Accumulated per-cell write counts.
            budgets: Per-cell budgets previously drawn with
                :meth:`sample_budgets`; drawn fresh when omitted.
        """
        if budgets is None:
            budgets = self.sample_budgets(writes.shape)
        if budgets.shape != writes.shape:
            raise ValueError(
                f"budgets shape {budgets.shape} != writes shape {writes.shape}"
            )
        return writes >= budgets

    def iterations_to_first_failure(
        self,
        per_iteration_writes: np.ndarray,
        budgets: Optional[np.ndarray] = None,
    ) -> float:
        """Repetitions of a fixed write pattern until the first cell fails.

        The array repeats a workload whose one-iteration per-cell write
        pattern is ``per_iteration_writes``. A cell at position ``i`` fails
        after ``budget[i] / per_iteration_writes[i]`` iterations; the array
        fails at the minimum over cells. Cells that receive no writes never
        fail. This is the discrete heart of the paper's Equation 4.

        Returns:
            Number of iterations (may be fractional), or ``inf`` if no cell
            is ever written.
        """
        writes = np.asarray(per_iteration_writes, dtype=float)
        if budgets is None:
            budgets = self.sample_budgets(writes.shape)
        active = writes > 0
        if not np.any(active):
            return float("inf")
        return float(np.min(budgets[active] / writes[active]))


class UniformEndurance(EnduranceModel):
    """Every cell survives exactly ``endurance_writes`` writes.

    This is the paper's working assumption; with it, first failure is
    governed purely by the *maximum* per-cell write count, which is why
    Equation 4 divides cell endurance by ``max(WriteCount)``.
    """

    def __init__(self, endurance_writes: float) -> None:
        if endurance_writes <= 0:
            raise ValueError("endurance_writes must be positive")
        self.endurance_writes = float(endurance_writes)

    def sample_budgets(self, shape: tuple) -> np.ndarray:
        return np.full(shape, self.endurance_writes)

    def iterations_to_first_failure(
        self,
        per_iteration_writes: np.ndarray,
        budgets: Optional[np.ndarray] = None,
    ) -> float:
        writes = np.asarray(per_iteration_writes, dtype=float)
        return self.iterations_at_peak(float(writes.max(initial=0.0)))

    def iterations_at_peak(self, peak: float) -> float:
        """Iterations to first failure when the hottest cell takes
        ``peak`` writes per iteration: all this model needs of a write
        matrix (infinite when nothing is written)."""
        if peak == 0.0:
            return float("inf")
        return self.endurance_writes / peak

    def __repr__(self) -> str:
        return f"UniformEndurance({self.endurance_writes:g})"


class LognormalEndurance(EnduranceModel):
    """Per-cell endurance drawn from a lognormal distribution.

    Parameterized by the *median* endurance and the shape parameter
    ``sigma`` of the underlying normal. A ``sigma`` of ~0.3-0.8 matches
    the order-of-magnitude spreads reported for RRAM array-level
    characterization [Grossi 2019].

    Args:
        median_writes: Median per-cell endurance.
        sigma: Lognormal shape parameter (std-dev of ``log`` endurance).
        rng: Random generator (or seed) for reproducible sampling.
    """

    def __init__(
        self,
        median_writes: float,
        sigma: float = 0.5,
        rng: "np.random.Generator | int | None" = None,
    ) -> None:
        if median_writes <= 0:
            raise ValueError("median_writes must be positive")
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self.median_writes = float(median_writes)
        self.sigma = float(sigma)
        self._rng = np.random.default_rng(rng)

    def sample_budgets(self, shape: tuple) -> np.ndarray:
        return self.median_writes * np.exp(
            self._rng.normal(0.0, self.sigma, size=shape)
        )

    def __repr__(self) -> str:
        return (
            f"LognormalEndurance(median={self.median_writes:g}, "
            f"sigma={self.sigma})"
        )
