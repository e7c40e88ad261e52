"""Permutation primitives for logical-to-physical re-mapping.

All mappings are dense permutations: index = logical address, value =
physical address. Software load balancing "can change logical to physical
mapping periodically, arbitrarily re-mapping logic gate operations within
lanes" (Section 3.2, Fig. 7) — a permutation per recompile epoch.
"""

from __future__ import annotations

import numpy as np

#: Bits per byte; byte-shifting moves addresses by whole bytes so that
#: "proper (byte-addressable) read and write operations" are maintained
#: (Section 3.2).
BITS_PER_BYTE = 8


def identity_permutation(size: int) -> np.ndarray:
    """The no-remap (Static) mapping."""
    if size <= 0:
        raise ValueError("size must be positive")
    return np.arange(size, dtype=np.int64)


def random_permutation(
    size: int, rng: "np.random.Generator | int | None" = None
) -> np.ndarray:
    """A uniformly random mapping (the paper's Random shuffling, ``Ra``)."""
    if size <= 0:
        raise ValueError("size must be positive")
    return np.random.default_rng(rng).permutation(size).astype(np.int64)


def byte_shift_permutation(size: int, shift_bytes: int) -> np.ndarray:
    """A cyclic shift by a whole number of bytes (``Bs``).

    Logical address ``i`` maps to ``(i + 8 * shift_bytes) mod size``.
    Shifting by bytes keeps variables byte-aligned, which is why the paper
    prefers it for memory-access friendliness — and why it fails to balance
    workloads whose hot stripes recur with byte-divisible periods
    (Section 5: "shifting columns by an integer number of bytes re-maps
    write-heavy columns to other write-heavy columns").
    """
    if size <= 0:
        raise ValueError("size must be positive")
    offset = (shift_bytes * BITS_PER_BYTE) % size
    return ((np.arange(size, dtype=np.int64) + offset) % size).astype(np.int64)


def invert_permutation(permutation: np.ndarray) -> np.ndarray:
    """Inverse mapping (physical -> logical)."""
    permutation = np.asarray(permutation, dtype=np.int64)
    inverse = np.empty_like(permutation)
    inverse[permutation] = np.arange(permutation.size, dtype=np.int64)
    return inverse


def invert_rows(permutations: np.ndarray) -> np.ndarray:
    """Each row's :func:`invert_permutation`, in the rows' own dtype."""
    count, size = permutations.shape
    inverse = np.empty_like(permutations)
    inverse[np.arange(count)[:, None], permutations] = np.arange(
        size, dtype=permutations.dtype
    )
    return inverse


def permute_rows(
    values: np.ndarray,
    out: np.ndarray,
    maps: "np.ndarray | None" = None,
    inverses: "np.ndarray | None" = None,
) -> np.ndarray:
    """``out`` with row ``e`` set to ``values`` moved through map ``e``:
    ``out[e, maps[e, i]] = values[i]``.

    Given the maps' inverses (:func:`invert_rows`) instead, each row is
    gathered, ``out[e, j] = values[inverses[e, j]]``: it is written in
    order rather than scattered into, about three times faster at
    1,000 x 1,024.
    """
    if inverses is not None:
        # Every index is in range, so "wrap" never wraps; the default
        # mode buffers the output to check bounds first.
        return np.take(values, inverses, out=out, mode="wrap")
    out[np.arange(len(maps))[:, None], maps] = values
    return out
