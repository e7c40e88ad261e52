"""Set operations on integer arrays without ``numpy.ma``.

On numpy 2.x a bare ``np.unique(x)`` asks ``np.ma.is_masked(x)`` before
it sorts, and its first call imports ``numpy.ma`` (11–17 ms on numpy
2.4, paid inside whatever timed it); ``np.isin`` reaches it too when
it sorts. The simulator's callers pass plain integer arrays, so
:func:`distinct` and :func:`contained` sort and search themselves.
"""

from __future__ import annotations

import numpy as np


def distinct(values) -> np.ndarray:
    """The sorted distinct entries of ``values``, flattened: what
    ``np.unique(values)`` returns for an integer array."""
    ordered = np.sort(np.asarray(values), axis=None)
    if ordered.size > 1:
        keep = np.empty(ordered.size, dtype=bool)
        keep[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
        ordered = ordered[keep]
    return ordered


def contained(values, pool) -> np.ndarray:
    """Whether each entry of ``values`` occurs in ``pool``: what
    ``np.isin(values, pool)`` returns for integer arrays (whose sorting
    path calls ``np.unique``), by binary search in the sorted pool."""
    values = np.asarray(values)
    pool = np.sort(np.asarray(pool), axis=None)
    if not pool.size:
        return np.zeros(values.shape, dtype=bool)
    at = np.minimum(np.searchsorted(pool, values), pool.size - 1)
    return pool[at] == values
