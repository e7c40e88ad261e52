"""Write-distribution views: statistics, heatmaps, lane profiles.

"We start by inspecting the write distributions within the PIM array. The
more uniform the write distribution, the better. Even distributions make
better use of all cells, increasing the expected time to failure. We use
heatmaps to visualize write density." (Section 5)

Figures are produced as arrays plus ASCII/CSV renderings (no plotting
dependencies); the statistics that carry the paper's conclusions —
max, mean, balance, utilization — are first-class properties.
"""

from __future__ import annotations

import io
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.array.geometry import Orientation

#: Density ramp for ASCII heatmaps (light to heavy wear).
_ASCII_RAMP = " .:-=+*#%@"


class WriteDistribution:
    """Accumulated per-cell write counts with analysis helpers.

    Unsigned integer counts (a finished result's, see
    :class:`~repro.array.state.ArrayState`) are kept as they are, not
    copied to float64: every statistic reduces them with exact integer
    partial sums (all below 2^53), so it equals the float64 figure bit
    for bit. Other counts are taken as float64.

    Args:
        counts: ``rows x cols`` accumulated write counts.
        iterations: Number of workload iterations the counts cover.
        orientation: Lane orientation used to compute lane-wise views.
        label: Display label (e.g. the balance-config label).
    """

    def __init__(
        self,
        counts: np.ndarray,
        iterations: int,
        orientation: Orientation = Orientation.COLUMN_PARALLEL,
        label: str = "",
    ) -> None:
        counts = np.asarray(counts)
        if counts.dtype.kind != "u":
            counts = counts.astype(np.float64, copy=False)
        if counts.ndim != 2:
            raise ValueError("counts must be a 2-D matrix")
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        if counts.dtype.kind != "u" and np.any(counts < 0):
            raise ValueError("write counts cannot be negative")
        self.counts = counts
        self.iterations = int(iterations)
        self.orientation = orientation
        self.label = label

    # ------------------------------------------------------------------
    # Scalar statistics
    # ------------------------------------------------------------------

    @property
    def max(self) -> float:
        """Hottest cell's accumulated writes (drives Eq. 4)."""
        return float(self.counts.max())

    @property
    def total(self) -> float:
        """Total writes across the array."""
        return float(self.counts.sum())

    @property
    def mean(self) -> float:
        """Mean writes per cell (over all cells)."""
        return float(self.counts.mean())

    @property
    def max_per_iteration(self) -> float:
        """Hottest cell's writes per iteration."""
        return self.max / self.iterations

    @property
    def cell_utilization(self) -> float:
        """Fraction of cells that receive any writes."""
        return float(np.count_nonzero(self.counts)) / self.counts.size

    @property
    def balance(self) -> float:
        """Mean-to-max ratio over written cells; 1.0 = perfectly level.

        Because lifetime is set by the hottest cell, ``balance`` is the
        fraction of the perfectly-balanced lifetime actually achieved over
        the cells in use.
        """
        peak = self.max
        if peak == 0:
            return 1.0
        written = self.counts[self.counts > 0]
        return float(written.mean()) / peak

    @property
    def gini(self) -> float:
        """Gini coefficient of per-cell wear (0 = uniform, ->1 = skewed)."""
        flat = np.sort(self.counts.ravel())
        total = flat.sum()
        if total == 0:
            return 0.0
        n = flat.size
        cumulative = np.cumsum(flat)
        # Standard discrete formula over the sorted sample.
        return float((n + 1 - 2 * (cumulative / total).sum()) / n)

    # ------------------------------------------------------------------
    # Structured views
    # ------------------------------------------------------------------

    def normalized(self) -> np.ndarray:
        """Counts scaled to [0, 1] by the hottest cell (the figures' scale:
        "1: maximum utilization")."""
        peak = self.max
        if peak == 0:
            return np.zeros(self.counts.shape)
        return self.counts / peak

    def lane_matrix(self) -> np.ndarray:
        """Counts as ``(offset, lane)`` under the distribution's orientation."""
        if self.orientation is Orientation.COLUMN_PARALLEL:
            return self.counts
        return self.counts.T

    def offset_profile(self) -> np.ndarray:
        """Mean writes per lane offset (across lanes) — the Fig. 5 view."""
        return self.lane_matrix().mean(axis=1)

    def lane_profile(self) -> np.ndarray:
        """Mean writes per lane (across offsets) — the between-lane view."""
        return self.lane_matrix().mean(axis=0)

    def downsample(self, blocks: Tuple[int, int] = (32, 32)) -> np.ndarray:
        """Block-mean reduction of the counts for compact heatmaps.

        Args:
            blocks: Target grid ``(block_rows, block_cols)``; the matrix
                dimensions must be divisible by them.
        """
        rows, cols = self.counts.shape
        block_rows, block_cols = blocks
        if rows % block_rows or cols % block_cols:
            raise ValueError(
                f"matrix {rows}x{cols} not divisible into {blocks} blocks"
            )
        reshaped = self.counts.reshape(
            block_rows, rows // block_rows, block_cols, cols // block_cols
        )
        return reshaped.mean(axis=(1, 3))

    # ------------------------------------------------------------------
    # Renderings
    # ------------------------------------------------------------------

    def ascii_heatmap(
        self, blocks: Tuple[int, int] = (32, 64), ramp: str = _ASCII_RAMP
    ) -> str:
        """A terminal heatmap of relative wear (darkest = hottest)."""
        grid = self.downsample(blocks)
        peak = grid.max()
        lines = []
        header = f"{self.label or 'write distribution'} (max cell = {self.max:g})"
        lines.append(header)
        if peak == 0:
            lines.append("(no writes recorded)")
            return "\n".join(lines)
        levels = np.minimum(
            (grid / peak * (len(ramp) - 1)).round().astype(int), len(ramp) - 1
        )
        for row in levels:
            lines.append("".join(ramp[v] for v in row))
        return "\n".join(lines)

    def to_csv(self, path_or_buffer, blocks: Optional[Tuple[int, int]] = None) -> None:
        """Write the (optionally downsampled) counts as CSV."""
        grid = self.counts if blocks is None else self.downsample(blocks)
        if isinstance(path_or_buffer, (str, bytes)):
            with open(path_or_buffer, "w", encoding="utf-8") as handle:
                np.savetxt(handle, grid, delimiter=",", fmt="%.6g")
        else:
            np.savetxt(path_or_buffer, grid, delimiter=",", fmt="%.6g")

    def to_csv_string(self, blocks: Optional[Tuple[int, int]] = None) -> str:
        """The CSV rendering as a string."""
        buffer = io.StringIO()
        self.to_csv(buffer, blocks)
        return buffer.getvalue()

    def to_pgm(self, path: str, invert: bool = True) -> None:
        """Write the heatmap as a binary PGM image (no plotting deps).

        Grayscale levels follow relative wear; by default hot cells render
        dark (as in the paper's figures). Any image viewer opens PGM.

        Args:
            path: Output file path (conventionally ``.pgm``).
            invert: Dark = hot when true; bright = hot otherwise.
        """
        grid = self.normalized()
        levels = np.clip((grid * 255.0).round(), 0, 255).astype(np.uint8)
        if invert:
            levels = (255 - levels).astype(np.uint8)
        rows, cols = levels.shape
        header = f"P5\n{cols} {rows}\n255\n".encode("ascii")
        with open(path, "wb") as handle:
            handle.write(header)
            handle.write(levels.tobytes())

    def summary(self) -> str:
        """One-line statistics summary."""
        return (
            f"{self.label or 'dist'}: max={self.max:g} mean={self.mean:g} "
            f"balance={self.balance:.3f} gini={self.gini:.3f} "
            f"cells-used={self.cell_utilization:.1%}"
        )

    def __repr__(self) -> str:
        return f"WriteDistribution({self.summary()})"


def compare_balance(
    distributions: Sequence[WriteDistribution],
) -> "list[tuple[str, float, float]]":
    """Rank distributions by balance: ``(label, balance, max/iteration)``."""
    rows = [
        (d.label, d.balance, d.max_per_iteration) for d in distributions
    ]
    rows.sort(key=lambda row: -row[1])
    return rows
