"""Death times under lognormal per-cell endurance, one uniform per draw.

A cell written ``r`` times per iteration with budget
``B = m * exp(sigma * Z)`` fails after ``B / r`` iterations, so
``P(B / r > t) = Q((ln t + ln r - ln m) / sigma)`` with ``Q`` the
standard normal tail. Budgets are independent, so a set of cells (an
array, or one lane offset) first fails at ``T = min_i B_i / r_i`` with
survival function

    S(t) = prod_i Q((ln t + ln r_i - ln m) / sigma),

which depends only on the set's distinct positive rates, their counts,
``m`` and ``sigma``. Drawing ``T = S^-1(1 - U)`` from one uniform ``U``
has exactly the distribution of the per-cell Monte Carlo
(:func:`repro.core.failure.failure_timeline` over a
:class:`~repro.devices.endurance.LognormalEndurance`), at a cost
independent of the number of cells.

:class:`FirstFailureQuantile` tabulates ``log S`` once per rate set in
median-1 units (the median only shifts ``ln t``), so one table serves
every technology. Inversion is a cubic Hermite interpolation of
``ln t`` against ``ln(-log S)`` with exact slopes; its relative error in
``log S`` stays near 1e-12 over the whole range a ``random()`` draw can
reach. ``Q`` comes from :func:`math.erfc`, one rate column at a time.
:func:`first_failure_quantile` memoizes the tables by content.
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict

import numpy as np

#: Table size. Cubic Hermite error falls as the fourth power of the
#: spacing: 4097 points give ~1e-12 relative error in ``log S``, 1025
#: points only ~5e-10.
GRID_POINTS = 4097

#: Tabulated span of ``ln t``, in units of sigma, below and above the
#: hottest cell's median death time. Below, ``-log S`` is at most
#: ``cells * Q(12)`` (under 1e-26 for a million cells), far under the
#: smallest nonzero target ``-log1p(-2**-53)``; above, ``-log S`` is at
#: least ``-log Q(10) = 53``, over the largest target ``53 ln 2``.
SPAN_BELOW = 12.0
SPAN_ABOVE = 10.0

#: Bound on :func:`first_failure_quantile`'s memo. A table holds about
#: 100 KiB; a campaign needs one per cohort (with repacking, one per
#: distinct lane offset).
TABLE_MEMO_SIZE = 16

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _erfc(values: np.ndarray) -> np.ndarray:
    """Elementwise :func:`math.erfc` without an object array."""
    return np.fromiter(
        map(math.erfc, values.ravel().tolist()), float, count=values.size
    ).reshape(values.shape)


def _log_tail(z: np.ndarray):
    """``(log Q(z), phi(z) / Q(z))`` for the standard normal tail ``Q``.

    ``Q(|z|)`` comes from ``erfc``; below the median the log is taken as
    ``log1p(-Q(-z))``, so a tail near 1 keeps full relative precision.
    """
    z = np.asarray(z, dtype=float)
    small = 0.5 * _erfc(np.abs(z) / _SQRT2)  # Q(|z|)
    upper = z > 0
    tail = np.where(upper, small, 1.0 - small)
    log_q = np.where(
        upper,
        np.log(np.where(upper, small, 1.0)),
        np.log1p(-np.where(upper, 0.0, small)),
    )
    mills = np.exp(-0.5 * z * z - _LOG_SQRT_2PI) / tail
    return log_q, mills


class FirstFailureQuantile:
    """The inverse survival function of a cell set's first failure.

    Args:
        rates: Per-cell writes per iteration, any shape; cells with a
            zero rate never fail.
        sigma: Lognormal shape parameter (must be positive).
    """

    def __init__(self, rates: np.ndarray, sigma: float) -> None:
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        rates = np.asarray(rates, dtype=float).ravel()
        if np.any(rates < 0):
            raise ValueError("write rates cannot be negative")
        distinct, counts = np.unique(rates[rates > 0], return_counts=True)
        self.sigma = float(sigma)
        #: ``ln`` of each distinct rate, and how many cells have it.
        self.log_rates = np.log(distinct)
        self.counts = counts.astype(float)
        if not len(distinct):
            return
        hottest = -self.log_rates.max()  # ln of its median death time
        self._log_t = np.linspace(
            hottest - SPAN_BELOW * sigma,
            hottest + SPAN_ABOVE * sigma,
            GRID_POINTS,
        )
        log_s = np.zeros(GRID_POINTS)
        slope = np.zeros(GRID_POINTS)  # d log S / d ln t
        for log_rate, count in zip(self.log_rates, self.counts):
            log_q, mills = _log_tail((self._log_t + log_rate) / sigma)
            log_s += count * log_q
            slope -= count * mills / sigma
        # Tabulate g = ln(-log S), increasing in ln t, and d ln t / d g.
        self._g = np.log(-log_s)
        self._dlog_t = log_s / slope

    def __call__(self, uniforms: np.ndarray, median=1.0) -> np.ndarray:
        """Death times ``median * S^-1(1 - U)`` for uniforms ``U`` in [0, 1).

        ``median`` broadcasts against ``uniforms`` (one per-array
        technology endurance, say). ``U = 0`` gives 0, where ``S = 1``
        exactly; a cell set that is never written gives ``inf``.

        Raises:
            ValueError: for a uniform outside [0, 1) or one whose target
                falls outside the table (never clamped to its ends).
        """
        uniforms = np.asarray(uniforms, dtype=float)
        if np.any(~((uniforms >= 0) & (uniforms < 1))):
            raise ValueError("uniforms must lie in [0, 1)")
        if not len(self.counts):
            return np.broadcast_to(
                np.inf, np.broadcast(uniforms, median).shape
            ).copy()
        target = -np.log1p(-uniforms.ravel())  # -log(1 - U) = -log S(T)
        drawn = target > 0
        g = np.log(target[drawn])
        if len(g) and (g.min() < self._g[0] or g.max() > self._g[-1]):
            raise ValueError("uniform outside the tabulated survival range")
        k = np.clip(
            np.searchsorted(self._g, g, side="right") - 1, 0, GRID_POINTS - 2
        )
        g0, g1 = self._g[k], self._g[k + 1]
        h = g1 - g0
        s = (g - g0) / h
        s2, s3 = s * s, s * s * s
        log_t = (
            (2 * s3 - 3 * s2 + 1) * self._log_t[k]
            + (s3 - 2 * s2 + s) * h * self._dlog_t[k]
            + (3 * s2 - 2 * s3) * self._log_t[k + 1]
            + (s3 - s2) * h * self._dlog_t[k + 1]
        )
        times = np.zeros(uniforms.size)
        times[drawn] = np.exp(log_t)
        return median * times.reshape(uniforms.shape)


_TABLES: "OrderedDict[tuple, FirstFailureQuantile]" = OrderedDict()


def first_failure_quantile(
    rates: np.ndarray, sigma: float
) -> FirstFailureQuantile:
    """The :class:`FirstFailureQuantile` of ``rates``, memoized by content.

    A table is a pure function of the rate multiset and sigma, so the
    campaigns of one process over the same cohorts (a straight run, a
    pause and its resume, a warm rerun) build it once. Entries past
    :data:`TABLE_MEMO_SIZE` are dropped, least recently used first.
    """
    cells = np.sort(np.asarray(rates, dtype=float).ravel())
    key = (hashlib.sha256(cells.tobytes()).digest(), float(sigma))
    table = _TABLES.pop(key, None)
    if table is None:
        table = FirstFailureQuantile(cells, sigma)
    _TABLES[key] = table
    while len(_TABLES) > TABLE_MEMO_SIZE:
        _TABLES.popitem(last=False)
    return table
