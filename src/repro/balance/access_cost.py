"""Memory-access cost of re-mapped layouts (the paper's Fig. 8 argument).

Section 3.2: random within-lane re-mapping "can cause individual bits of
the variable to spread out to different bytes across the lane. Hence, many
more bytes may need to be accessed in order to read or update the
variable. ... This is less of an issue for column-parallel architectures,
as depicted in Fig. 8" (column-parallel lanes read bits serially anyway).

This module quantifies that cost for a ``b``-bit variable in a lane of
``lane_size`` bits under each strategy, for both orientations:

* row-parallel: a variable is read with byte-granularity accesses; the
  cost is the number of *distinct bytes* its bits occupy (1 byte per 8
  bits when aligned);
* column-parallel: bits are read one row at a time regardless of layout;
  the cost is always ``b`` accesses.
"""

from __future__ import annotations

import numpy as np

from repro.array.geometry import Orientation
from repro.balance.mapping import BITS_PER_BYTE
from repro.balance.software import StrategyKind, make_permutation
from repro.distinct import distinct


def bytes_touched(addresses: np.ndarray) -> int:
    """Distinct bytes covered by a set of physical bit addresses."""
    addresses = np.asarray(addresses, dtype=np.int64)
    if addresses.size == 0:
        return 0
    return int(distinct(addresses // BITS_PER_BYTE).size)


def variable_access_cost(
    strategy: StrategyKind,
    orientation: Orientation,
    bits: int,
    lane_size: int,
    epoch: int = 1,
    rng: "np.random.Generator | int | None" = None,
) -> int:
    """Accesses needed to read one ``bits``-wide variable after re-mapping.

    The variable's logical bits start byte-aligned at offset 0; the
    strategy's epoch-``epoch`` permutation relocates them.

    * Column-parallel lanes pay ``bits`` single-bit row accesses no matter
      what (re-mapping is free for memory operations).
    * Row-parallel lanes pay one access per distinct byte the bits land
      in: ``ceil(bits / 8)`` when aligned (St, Bs), up to ``bits`` under
      random shuffling.
    """
    if bits < 1:
        raise ValueError("bits must be positive")
    if lane_size < bits:
        raise ValueError("variable does not fit the lane")
    if orientation is Orientation.COLUMN_PARALLEL:
        return bits
    generator = np.random.default_rng(rng)
    permutation = make_permutation(strategy, lane_size, epoch, generator)
    physical = permutation[np.arange(bits)]
    return bytes_touched(physical)


def expected_random_bytes(bits: int, lane_size: int) -> float:
    """Expected distinct bytes touched by ``bits`` uniformly-placed bits.

    Standard occupancy expectation: with ``m = lane_size / 8`` bytes, the
    probability a given byte holds none of the ``bits`` bits is
    ``C(lane_size - 8, bits) / C(lane_size, bits)``; the expected count of
    non-empty bytes follows by linearity. For 32 bits in a 1024-bit lane
    this is ~28.4 bytes versus 4 when aligned — a ~7x read amplification,
    the Fig. 8 penalty.
    """
    if bits < 1 or lane_size < bits:
        raise ValueError("invalid bits/lane_size")
    if lane_size % BITS_PER_BYTE:
        raise ValueError("lane_size must be a whole number of bytes")
    n_bytes = lane_size // BITS_PER_BYTE
    # P(byte empty) via a product form of the hypergeometric ratio.
    probability_empty = 1.0
    for i in range(BITS_PER_BYTE):
        probability_empty *= (lane_size - bits - i) / (lane_size - i)
    return n_bytes * (1.0 - probability_empty)


def access_cost_table(
    bits: int = 32,
    lane_size: int = 1024,
    trials: int = 64,
    rng: "np.random.Generator | int | None" = 0,
) -> "list[tuple[str, str, float]]":
    """Rows of the Fig. 8 comparison: (strategy, orientation, accesses).

    Random shuffling is averaged over ``trials`` permutations; the other
    strategies are deterministic.
    """
    generator = np.random.default_rng(rng)
    rows = []
    for strategy in (
        StrategyKind.STATIC,
        StrategyKind.BYTE_SHIFT,
        StrategyKind.RANDOM,
    ):
        for orientation in Orientation:
            if strategy is StrategyKind.RANDOM:
                cost = float(
                    np.mean(
                        [
                            variable_access_cost(
                                strategy, orientation, bits, lane_size,
                                rng=generator,
                            )
                            for _ in range(trials)
                        ]
                    )
                )
            else:
                cost = float(
                    variable_access_cost(
                        strategy, orientation, bits, lane_size, epoch=1
                    )
                )
            rows.append((strategy.label, orientation.value, cost))
    return rows
