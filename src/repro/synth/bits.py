"""Logical-bit allocation within a PIM lane.

The paper's simulator operates on *logical* bits ("virtual memory"): each
gate allocates one new logical bit for its output, and logical bits are
freed once no longer needed (Section 4). The allocator below reproduces
that discipline with a lowest-address-first free list, which concentrates
workspace churn at low addresses — the reuse pattern behind the per-cell
imbalance of Fig. 5.
"""

from __future__ import annotations

import heapq
from enum import Enum
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np


class AllocationPolicy(Enum):
    """How freed logical bits are reused.

    ``LOWEST_FIRST`` reuses the lowest freed address, minimizing the live
    footprint but concentrating workspace churn — and hence wear — on a few
    low addresses.

    ``RING`` allocates round-robin across the whole lane (the next free
    address after the previous allocation, wrapping at capacity). This is
    the behaviour of the paper's simulator: workspace writes sweep the lane
    like a ring buffer, every cell beyond the operands seeing roughly the
    same churn (Fig. 5 shows workspace cells at ~20x the operand writes,
    not a few cells at thousands). Requires a bounded capacity.
    """

    LOWEST_FIRST = "lowest-first"
    RING = "ring"


class LaneCapacityError(MemoryError):
    """A lane ran out of cells: the program does not fit the array's lane
    height. A :class:`MemoryError`, but of the simulated array, never of
    the host, so callers can refuse the workload and carry on."""


class BitAllocator:
    """Allocates and frees logical bit addresses within a lane.

    Two reuse policies are supported (see :class:`AllocationPolicy`). With
    ``LOWEST_FIRST`` the *high-water mark* is the minimum lane height the
    program needs — the quantity the paper's failed-cell analysis
    (Section 3.3) compares against the shrinking number of usable bits.
    With ``RING`` the program spreads over the full capacity by design.

    Args:
        capacity: Maximum number of logical bits (the lane height), or
            ``None`` for unbounded allocation (``LOWEST_FIRST`` only).
        policy: Reuse policy.
    """

    def __init__(
        self,
        capacity: "int | None" = None,
        policy: AllocationPolicy = AllocationPolicy.LOWEST_FIRST,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive")
        if policy is AllocationPolicy.RING and capacity is None:
            raise ValueError("ring allocation requires a bounded capacity")
        self._capacity = capacity
        self._policy = policy
        self._free: List[int] = []  # min-heap of freed addresses
        self._next_fresh = 0
        self._cursor = 0  # ring policy: next address to try
        self._live = set()

    @property
    def capacity(self) -> "int | None":
        """The lane height limit, or ``None`` if unbounded."""
        return self._capacity

    @property
    def policy(self) -> AllocationPolicy:
        """The reuse policy in force."""
        return self._policy

    @property
    def high_water_mark(self) -> int:
        """Highest address ever allocated plus one (the lane footprint)."""
        return self._next_fresh

    @property
    def live_count(self) -> int:
        """Number of currently-allocated logical bits."""
        return len(self._live)

    def alloc(self) -> int:
        """Allocate one logical bit according to the reuse policy.

        Raises:
            LaneCapacityError: if the lane capacity is exhausted. This is the
                failure mode of Section 3.3: "the number of available cells
                can quickly reach a point where even multiplication is not
                possible due to insufficient space".
        """
        if self._policy is AllocationPolicy.RING:
            address = self._alloc_ring()
        else:
            address = self._alloc_lowest()
        self._live.add(address)
        if address >= self._next_fresh:
            self._next_fresh = address + 1
        return address

    def _alloc_lowest(self) -> int:
        if self._free:
            return heapq.heappop(self._free)
        if self._capacity is not None and self._next_fresh >= self._capacity:
            raise LaneCapacityError(
                f"lane capacity {self._capacity} exhausted "
                f"({len(self._live)} bits live)"
            )
        return self._next_fresh

    def _alloc_ring(self) -> int:
        capacity = self._capacity
        assert capacity is not None  # enforced at construction
        for step in range(capacity):
            candidate = (self._cursor + step) % capacity
            if candidate not in self._live:
                self._cursor = (candidate + 1) % capacity
                return candidate
        raise LaneCapacityError(
            f"lane capacity {capacity} exhausted ({len(self._live)} bits live)"
        )

    def alloc_many(self, count: int) -> List[int]:
        """Allocate ``count`` logical bits."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.alloc() for _ in range(count)]

    def ring_run(self, count: int) -> Optional[np.ndarray]:
        """The addresses ``count`` ring allocations would take, provided
        no bit live now is freed before they are all made.

        These are the first ``count`` free addresses in ring order from
        the cursor: bits freed in between (which were free at the start)
        sit behind the cursor and are only reached by wrapping. ``None``
        when fewer than ``count`` bits are free, since the run would
        wrap. Nothing is allocated; see :meth:`claim_run`.
        """
        if self._policy is not AllocationPolicy.RING:
            raise ValueError("ring_run needs the ring policy")
        free = np.ones(self._capacity, dtype=bool)
        free[np.fromiter(self._live, dtype=np.intp, count=len(self._live))] = (
            False
        )
        free = np.flatnonzero(free)
        if free.size < count:
            return None
        start = int(np.searchsorted(free, self._cursor))
        return np.concatenate((free[start:], free[:start]))[:count]

    def claim_run(self, run: np.ndarray, live: Iterable[int]) -> None:
        """Commit a :meth:`ring_run` as ``len(run)`` allocations of which
        only ``live`` are still allocated: the cursor, live set and
        high-water mark end where the single allocations and frees would
        leave them."""
        if run.size:
            self._cursor = (int(run[-1]) + 1) % self._capacity
            self._next_fresh = max(self._next_fresh, int(run.max()) + 1)
        self._live.update(live)

    def free(self, address: int) -> None:
        """Return a logical bit to the pool.

        Raises:
            ValueError: if the address is not currently allocated (double
                frees corrupt the reuse pattern, so they fail loudly).
        """
        if address not in self._live:
            raise ValueError(f"bit {address} is not allocated")
        self._live.remove(address)
        if self._policy is AllocationPolicy.LOWEST_FIRST:
            heapq.heappush(self._free, address)

    def free_many(self, addresses: Iterable[int]) -> None:
        """Free several logical bits."""
        for address in addresses:
            self.free(address)

    def is_live(self, address: int) -> bool:
        """Whether ``address`` is currently allocated."""
        return address in self._live


class BitVector:
    """An ordered group of logical bit addresses (LSB first).

    Operands and results of lane arithmetic are bit vectors; the addresses
    need not be contiguous (and under re-mapping generally are not).
    """

    __slots__ = ("_addresses",)

    def __init__(self, addresses: Sequence[int]) -> None:
        self._addresses: Tuple[int, ...] = tuple(int(a) for a in addresses)
        if len(set(self._addresses)) != len(self._addresses):
            raise ValueError(f"duplicate bit addresses in {self._addresses}")
        for address in self._addresses:
            if address < 0:
                raise ValueError(f"negative bit address {address}")

    @property
    def addresses(self) -> Tuple[int, ...]:
        """The underlying addresses, LSB first."""
        return self._addresses

    @property
    def width(self) -> int:
        """Number of bits."""
        return len(self._addresses)

    def __len__(self) -> int:
        return len(self._addresses)

    def __getitem__(self, index):
        picked = self._addresses[index]
        if isinstance(index, slice):
            return BitVector(picked)
        return picked

    def __iter__(self):
        return iter(self._addresses)

    def __eq__(self, other) -> bool:
        if isinstance(other, BitVector):
            return self._addresses == other._addresses
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._addresses)

    def __repr__(self) -> str:
        return f"BitVector({list(self._addresses)})"

    def concat(self, other: "BitVector") -> "BitVector":
        """This vector's bits followed by ``other``'s (little-endian)."""
        return BitVector(self._addresses + other.addresses)

    @staticmethod
    def value_bits(value: int, width: int) -> List[int]:
        """Decompose an unsigned integer into ``width`` bits, LSB first.

        Raises:
            ValueError: if ``value`` does not fit in ``width`` bits.
        """
        if value < 0:
            raise ValueError("value must be unsigned")
        if width <= 0:
            raise ValueError("width must be positive")
        if value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        return [(value >> i) & 1 for i in range(width)]

    @staticmethod
    def bits_value(bits: Sequence[int]) -> int:
        """Recompose LSB-first bits into an unsigned integer."""
        value = 0
        for i, bit in enumerate(bits):
            if bit not in (0, 1):
                raise ValueError(f"bit values must be 0/1, got {bit!r}")
            value |= bit << i
        return value
