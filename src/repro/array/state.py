"""Per-cell array state: read and write counters.

The paper's simulator "is instruction-level accurate, and each write to
each memory cell is counted" (Section 4). :class:`ArrayState` holds those
counters as numpy matrices in physical ``(row, col)`` coordinates.

A state has two forms. While a run accumulates, its counters are
floating-point matrices, which BLAS multiplies: float32 when the run's
per-cell bound proves every partial sum stays within 2^24
(:func:`repro.core.kernel.accumulation_dtype`), else float64, whose
partial sums RPR019 keeps below 2^53. Every count is an integer, so
either way the sums are exact. When the run ends,
:meth:`ArrayState.finish` narrows them once into the **packed** form
that results hold, ship between processes and store
(:mod:`repro.core.io`): per counter, the sorted indices of the
lanes that may hold a count (columns on a column-parallel array, rows
on a row-parallel one) and the block of just those lanes, shape
``(lane size, len(lanes))``, in the narrowest unsigned integer dtype
that holds every count exactly. A count that does not survive the cast
is a defect and raises :class:`InexactCountError`.

Counts that every lane shares (one program on all of them) accumulate
as a per-offset **column** beside the plane
(:meth:`ArrayState.add_every_lane`). A run that adds nothing else
finishes without touching its plane: its packed block is a read-only
broadcast of the narrowed column over every lane.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.array.geometry import ArrayGeometry, Orientation

#: Counter dtypes, narrowest first, with the largest count each holds.
COUNT_DTYPES = tuple(
    (np.dtype(dtype), np.iinfo(dtype).max)
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64)
)

#: One packed counter matrix: ``(lanes, block)``.
Packed = Tuple[np.ndarray, np.ndarray]


class InexactCountError(ValueError):
    """A counter value that no unsigned integer dtype holds exactly:
    negative, fractional, or not a number."""


def _narrow(block: np.ndarray) -> Tuple[np.ndarray, float]:
    """``block`` cast to the narrowest dtype of :data:`COUNT_DTYPES`
    whose cast reproduces every value, and its largest value (0 for an
    empty block). The cast is compared back in the block's own dtype,
    cast in the ufunc's buffered chunks: a float32 block is compared
    in float32, and no comparison makes a full-size temporary.

    Raises:
        InexactCountError: if no such dtype exists.
    """
    if not block.size:
        return block.astype(np.uint8), 0.0
    low, high = block.min(), block.max()
    if low >= 0:  # NaN fails every comparison
        for dtype, limit in COUNT_DTYPES:
            if high <= limit:
                narrow = block.astype(dtype)
                # A value that does not survive the narrowest cast that
                # fits its range is not an integer, and survives no
                # wider one. A fractional value is below 2^52 (2^23 in
                # float32), so its floor casts back exactly and differs.
                same = np.equal(
                    narrow, block,
                    signature=(block.dtype, block.dtype, np.bool_),
                    casting="unsafe",
                )
                if same.all():
                    return narrow, float(high)
                break
    raise InexactCountError(
        f"counts in [{low}, {high}] are not all exact non-negative "
        "integers"
    )


def pack_counts(
    counts: np.ndarray,
    orientation: Orientation,
    lanes: Optional[np.ndarray] = None,
) -> Packed:
    """``(lanes, block)``: one ``rows x cols`` counter matrix packed.

    ``lanes`` are sorted, distinct lane indices outside which every
    count is zero; ``None`` finds the lanes holding a nonzero count. A
    block covering every lane is cast straight from the matrix, without
    a gather.

    Raises:
        InexactCountError: if a count is not an exact non-negative
            integer.
    """
    packed, _ = _pack(counts, orientation, lanes)
    return packed


def _pack(
    counts: np.ndarray,
    orientation: Orientation,
    lanes: Optional[np.ndarray],
) -> Tuple[Packed, float]:
    """:func:`pack_counts` and the largest count."""
    by_lane = counts if orientation is Orientation.COLUMN_PARALLEL else counts.T
    if lanes is None:
        lanes = np.flatnonzero(by_lane.any(axis=0))
    if len(lanes) != by_lane.shape[1]:
        by_lane = by_lane[:, lanes]
    block, peak = _narrow(by_lane)
    return (lanes, block), peak


def _dense(
    lanes: np.ndarray,
    block: np.ndarray,
    shape: Tuple[int, int],
    orientation: Orientation,
) -> np.ndarray:
    """The ``shape`` counter matrix that ``(lanes, block)`` packs, in
    the block's dtype: the block itself (transposed on a row-parallel
    array) when it covers every lane, else scattered into zeros."""
    column = orientation is Orientation.COLUMN_PARALLEL
    if len(lanes) == (shape[1] if column else shape[0]):
        return block if column else block.T
    counts = np.zeros(shape, dtype=block.dtype)
    by_lane = counts if column else counts.T
    # Written lanes come in runs (each program holds a lane range): one
    # slice copy per run is several times faster than a strided scatter.
    for start, stop in lane_runs(lanes):
        first = int(lanes[start])
        by_lane[:, first : first + stop - start] = block[:, start:stop]
    return counts


def lane_runs(lanes: np.ndarray) -> List[Tuple[int, int]]:
    """``(start, stop)`` positions in sorted, distinct ``lanes`` of each
    run of consecutive lanes (none for no lanes)."""
    bounds = [0, *(np.flatnonzero(np.diff(lanes) != 1) + 1).tolist()]
    return [
        (start, stop)
        for start, stop in zip(bounds, bounds[1:] + [len(lanes)])
        if start < stop
    ]


class _Unzeroed:
    """An accumulating state's plane that still holds an earlier run's
    counts (:meth:`ArrayState.from_counts`): the call that zeroes it,
    and the lane-compact products held until it is zeroed or
    overwritten, as ``(lane view of the plane, lanes, product)``."""

    def __init__(self, plane: np.ndarray, zero: Callable[[], None]) -> None:
        self.plane = plane
        self.zero = zero
        self.adds: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def settle(self) -> np.ndarray:
        """The plane, once zeroed or overwritten, with the held
        products added into their lanes."""
        for view, lanes, product in self.adds:
            view[:, lanes] += product
        return self.plane


class ArrayState:
    """Per-cell counters for one PIM array.

    Attributes:
        geometry: The array dimensions.
        write_counts: ``rows x cols`` accumulated cell writes.
        read_counts: ``rows x cols`` accumulated cell reads.
        columns: On an accumulating state, per kind (``"write"``,
            ``"read"``), the per-offset counts :meth:`add_every_lane`
            gave every lane, kept apart from the plane: an accumulating
            state's counts are its plane plus its column on every lane,
            and only :meth:`finish` combines them.
        dtype: An accumulating state's counter dtype (float32 or
            float64; float64 on a new state).
        packed: ``None`` while the state accumulates (floating-point
            counters, in :attr:`dtype`, that the
            ``add_*``/``record_*`` methods update); on a finished
            state, the :func:`pack_counts` form of each counter the run
            tracked (``"write"``, and ``"read"`` when reads were
            counted), from whose blocks the read-only integer
            ``write_counts``/``read_counts`` are built on first use.
    """

    def __init__(self, geometry: ArrayGeometry) -> None:
        self.geometry = geometry
        shape = (geometry.rows, geometry.cols)
        self.write_counts = np.zeros(shape, dtype=np.float64)
        self.read_counts = np.zeros(shape, dtype=np.float64)
        self.dtype = np.dtype(np.float64)
        self.columns: Dict[str, np.ndarray] = {}
        self.packed: Optional[Dict[str, Packed]] = None
        self._unzeroed: Dict[str, _Unzeroed] = {}

    def _scratch_buffer(self) -> np.ndarray:
        """The process pool's full-array workspace in :attr:`dtype`.

        Bulk accumulation lands products here before adding them into the
        counters, so repeated calls stop allocating a rows x cols
        temporary (8 MB at the paper's 1024 x 1024) per call. One slot
        serves every state of a geometry and dtype, so retained results
        hold no scratch; callers consume it before the next request.
        """
        from repro.core.scratch import POOL  # repro.core imports this module

        return POOL.get(
            "state.scratch", (self.geometry.rows, self.geometry.cols),
            self.dtype,
        )

    @classmethod
    def from_counts(
        cls,
        geometry: ArrayGeometry,
        write_counts: np.ndarray,
        read_counts: "np.ndarray | None" = None,
        unzeroed: "Dict[str, Callable[[], None]] | None" = None,
    ) -> "ArrayState":
        """An accumulating state over existing counter matrices.

        The matrices are taken by reference (coerced to contiguous
        float64 only if needed; a float32 write plane is kept, and the
        read plane takes its dtype), so a pooled workspace accumulates
        in place. ``read_counts=None`` means "reads are not tracked":
        the read plane is a read-only broadcast zero plane that costs no
        memory, and any add into it raises.

        ``unzeroed`` maps each kind (``"write"``, ``"read"``) whose
        plane still holds an earlier run's counts to the call that
        zeroes it, and the zeroing waits. The plane's first full-width
        product (:meth:`add_lane_profiles`) overwrites it whole, so it
        needs none; anything else that touches the plane first —
        reading :attr:`write_counts` or :attr:`read_counts` included —
        zeroes it first.
        """
        shape = (geometry.rows, geometry.cols)
        dtype = (
            np.float32
            if np.asarray(write_counts).dtype == np.float32
            else np.float64
        )
        write_counts = np.ascontiguousarray(write_counts, dtype=dtype)
        if read_counts is None:
            read_counts = np.broadcast_to(dtype(0), shape)
        else:
            read_counts = np.ascontiguousarray(read_counts, dtype=dtype)
        if write_counts.shape != shape or read_counts.shape != shape:
            raise ValueError(
                f"counter shape {write_counts.shape}/{read_counts.shape} "
                f"does not match geometry {shape}"
            )
        state = cls.__new__(cls)
        state.geometry = geometry
        state.dtype = np.dtype(dtype)
        state.columns = {}
        state.packed = None
        state._unzeroed = {}
        unzeroed = unzeroed or {}
        for kind, plane in (("write", write_counts), ("read", read_counts)):
            if kind in unzeroed:
                # Left unset, the attribute falls through to the
                # descriptor below, which zeroes the plane.
                state._unzeroed[kind] = _Unzeroed(plane, unzeroed[kind])
            else:
                setattr(state, f"{kind}_counts", plane)
        return state

    @classmethod
    def from_packed(
        cls,
        geometry: ArrayGeometry,
        orientation: Orientation,
        write: Packed,
        read: Optional[Packed] = None,
    ) -> "ArrayState":
        """A finished state over packed counters (:func:`pack_counts`).

        The blocks are adopted, not copied, and made read-only.
        ``read=None`` means reads were not counted. The write block's
        peak is reduced once, on the first :attr:`max_writes`.
        """
        packed = {"write": write}
        if read is not None:
            packed["read"] = read
        for _, block in packed.values():
            block.flags.writeable = False
        state = cls.__new__(cls)
        state.geometry = geometry
        state.orientation = orientation
        state.packed = packed
        state._peak = None
        return state

    # A finished state builds each counter matrix from its block on
    # first use, and an accumulating state zeroes an unzeroed plane
    # (see from_counts) on first use; an accumulating state assigns
    # every other plane, which shadows these descriptors.
    @cached_property
    def write_counts(self) -> np.ndarray:
        """A finished state's writes as a read-only ``rows x cols``
        matrix: its block itself when the block covers every lane."""
        return self._unpacked("write")

    @cached_property
    def read_counts(self) -> np.ndarray:
        """A finished state's reads, as :attr:`write_counts`; a
        broadcast zero plane, which costs no memory, when reads were
        not counted."""
        return self._unpacked("read")

    def _unpacked(self, name: str) -> np.ndarray:
        if self.packed is None:
            pending = self._unzeroed.pop(name)
            pending.zero()
            return pending.settle()
        shape = (self.geometry.rows, self.geometry.cols)
        if name not in self.packed:
            return np.broadcast_to(np.uint8(0), shape)
        counts = _dense(*self.packed[name], shape, self.orientation)
        counts.flags.writeable = False
        return counts

    def finish(
        self,
        orientation: Orientation,
        lanes: Optional[np.ndarray] = None,
        track_reads: bool = True,
    ) -> "ArrayState":
        """This accumulated state's counters as a finished, packed state.

        The counters are narrowed once into new arrays, so the
        accumulator (often a pooled workspace) can be reused at once; it
        is left as it was. A kind with a nonzero column
        (:meth:`add_every_lane`) holds a count on every lane: when its
        plane was written on no lane, its block is a read-only
        broadcast of the narrowed column, so only the column is checked
        and cast; otherwise the column is added to the plane in the
        pool's scratch workspace, and that sum is narrowed.

        Args:
            orientation: Lane orientation, which picks the lane axis.
            lanes: Sorted, distinct lanes outside which every plane
                counter is zero (the lanes the kernel's products wrote);
                ``None`` scans each plane for its nonzero lanes.
            track_reads: Pack the read counters too. Packed reads that
                cover no lane are dropped, as if untracked.

        Raises:
            InexactCountError: if a count is not an exact non-negative
                integer.
        """
        write, peak = self._finished("write", orientation, lanes)
        read = None
        if track_reads:
            read, _ = self._finished("read", orientation, lanes)
            if not len(read[0]):
                read = None
        state = ArrayState.from_packed(self.geometry, orientation, write, read)
        # The narrowing pass already found the peak.
        state._peak = peak
        return state

    def _finished(
        self,
        kind: str,
        orientation: Orientation,
        lanes: Optional[np.ndarray],
    ) -> Tuple[Packed, float]:
        """One kind's :func:`_pack`, its column added on every lane."""
        plane = self._target(kind)
        column = self.columns.get(kind)
        if column is None or not column.any():
            return _pack(plane, orientation, lanes)
        every = np.arange(self.geometry.lane_count(orientation))
        if lanes is not None and not len(lanes):
            narrow, peak = _narrow(column)
            block = np.broadcast_to(narrow[:, None], (len(column), len(every)))
            return (every, block), peak
        merged = self._scratch_buffer()
        np.add(
            self.lane_view(plane, orientation),
            column[:, None],
            out=self.lane_view(merged, orientation),
        )
        return _pack(merged, orientation, every)

    # -- single-cell events (exact replay path) -------------------------

    def record_write(self, lane: int, offset: int, orientation: Orientation) -> None:
        """Count one write at lane-wise address ``(lane, offset)``."""
        row, col = self.geometry.cell_of(lane, offset, orientation)
        self.write_counts[row, col] += 1

    def record_read(self, lane: int, offset: int, orientation: Orientation) -> None:
        """Count one read at lane-wise address ``(lane, offset)``."""
        row, col = self.geometry.cell_of(lane, offset, orientation)
        self.read_counts[row, col] += 1

    # -- bulk accumulation (vectorized path) -----------------------------

    def add_lane_profile(
        self,
        offset_counts: np.ndarray,
        lane_weights: np.ndarray,
        orientation: Orientation,
        kind: str = "write",
    ) -> None:
        """Add an outer-product wear profile.

        Every lane ``l`` receives ``offset_counts[o] * lane_weights[l]``
        events at offset ``o``. This is the workhorse of the epoch algebra:
        all lanes running the same program under the same mapping wear
        identically, so their contribution is an outer product.

        Args:
            offset_counts: Per-offset event counts (length = lane size).
            lane_weights: Per-lane multiplicity (length = lane count);
                typically 0/1 membership, scaled by epoch length.
            orientation: Lane orientation.
            kind: ``"write"`` or ``"read"``.
        """
        offset_counts = np.asarray(offset_counts, dtype=self.dtype)
        lane_weights = np.asarray(lane_weights, dtype=self.dtype)
        if offset_counts.shape != (self.geometry.lane_size(orientation),):
            raise ValueError(
                f"offset_counts length {offset_counts.shape} != lane size "
                f"{self.geometry.lane_size(orientation)}"
            )
        if lane_weights.shape != (self.geometry.lane_count(orientation),):
            raise ValueError(
                f"lane_weights length {lane_weights.shape} != lane count "
                f"{self.geometry.lane_count(orientation)}"
            )
        target = self._target(kind)
        scratch = self._scratch_buffer()
        if orientation is Orientation.COLUMN_PARALLEL:
            # offsets are rows, lanes are columns
            np.multiply.outer(offset_counts, lane_weights, out=scratch)
        else:
            np.multiply.outer(lane_weights, offset_counts, out=scratch)
        target += scratch

    def add_every_lane(
        self,
        offset_counts: np.ndarray,
        orientation: Orientation,
        kind: str = "write",
    ) -> None:
        """Add the same per-offset counts to every lane.

        :meth:`add_lane_profile` with an all-ones lane weight, kept as
        ``kind``'s column (:attr:`columns`) instead of broadcast into
        the plane; :meth:`finish` combines the two.
        """
        offset_counts = np.asarray(offset_counts, dtype=self.dtype)
        if offset_counts.shape != (self.geometry.lane_size(orientation),):
            raise ValueError(
                f"offset_counts length {offset_counts.shape} != lane size "
                f"{self.geometry.lane_size(orientation)}"
            )
        if (
            kind not in self._unzeroed
            and not self._target(kind).flags.writeable
        ):
            raise ValueError(f"{kind} counts are not tracked on this state")
        column = self.columns.get(kind)
        if column is None:
            self.columns[kind] = offset_counts.copy()
        else:
            column += offset_counts

    def add_lane_profiles(
        self,
        offset_profiles: np.ndarray,
        lane_weights: np.ndarray,
        orientation: Orientation,
        kind: str = "write",
        lanes: "np.ndarray | None" = None,
    ) -> None:
        """Add a whole chunk of epoch outer products with one GEMM.

        The batched form of :meth:`add_lane_profile`: row ``e`` of each
        argument describes one epoch, and the summed contribution

        ``sum_e outer(offset_profiles[e], lane_weights[e])``

        is exactly ``offset_profiles.T @ lane_weights`` — a single
        matrix product instead of ``E`` outer products, in the state's
        :attr:`dtype`. All inputs are integers that dtype holds, and the
        run's bound keeps every partial sum in its exact range, so the
        reduction is exact in any order and the result is bit-identical
        to the per-epoch loop.

        With ``lanes`` given, column ``j`` of ``lane_weights`` stands
        for physical lane ``lanes[j]`` and every other lane's weight is
        zero: the product is ``lane_size x len(lanes)`` and only those
        lanes' counters change. The sums are the same, so the result is
        bit-identical to the full-width form with zero columns.

        Args:
            offset_profiles: ``(epochs, lane_size)`` per-offset counts.
            lane_weights: ``(epochs, lane_count)`` per-lane multiplicity
                (membership scaled by epoch length), or
                ``(epochs, len(lanes))`` when ``lanes`` is given.
            orientation: Lane orientation.
            kind: ``"write"`` or ``"read"``.
            lanes: Distinct physical lanes the weight columns stand
                for; ``None`` means every lane, in order.
        """
        offset_profiles = np.asarray(offset_profiles, dtype=self.dtype)
        lane_weights = np.asarray(lane_weights, dtype=self.dtype)
        if (
            offset_profiles.ndim != 2
            or lane_weights.ndim != 2
            or offset_profiles.shape[0] != lane_weights.shape[0]
        ):
            raise ValueError(
                "offset_profiles and lane_weights must be 2-D with one "
                "row per epoch"
            )
        if offset_profiles.shape[1] != self.geometry.lane_size(orientation):
            raise ValueError(
                f"offset_profiles width {offset_profiles.shape[1]} != lane "
                f"size {self.geometry.lane_size(orientation)}"
            )
        width = (
            self.geometry.lane_count(orientation) if lanes is None
            else len(lanes)
        )
        if lane_weights.shape[1] != width:
            raise ValueError(
                f"lane_weights width {lane_weights.shape[1]} != "
                f"{'lane count' if lanes is None else 'len(lanes)'} {width}"
            )
        if lanes is not None:
            product = offset_profiles.T @ lane_weights
            pending = self._unzeroed.get(kind)
            if pending is None:
                view = self.lane_view(self._target(kind), orientation)
                view[:, lanes] += product
            else:
                # Held until the plane is zeroed or overwritten, so a
                # full-width product after it can still overwrite it.
                pending.adds.append(
                    (self.lane_view(pending.plane, orientation), lanes,
                     product)
                )
            return
        if orientation is Orientation.COLUMN_PARALLEL:
            a, b = offset_profiles.T, lane_weights
        else:
            a, b = lane_weights.T, offset_profiles
        pending = self._unzeroed.pop(kind, None)
        if pending is not None:
            # The plane's first full-width product covers it whole:
            # written straight into it, with no zero-fill, scratch or add.
            np.matmul(a, b, out=pending.plane)
            setattr(self, f"{kind}_counts", pending.settle())
            return
        target = self._target(kind)
        scratch = self._scratch_buffer()
        np.matmul(a, b, out=scratch)
        target += scratch

    def _target(self, kind: str) -> np.ndarray:
        if kind == "write":
            return self.write_counts
        if kind == "read":
            return self.read_counts
        raise ValueError(f"kind must be 'write' or 'read', got {kind!r}")

    # -- summaries --------------------------------------------------------

    @property
    def max_writes(self) -> float:
        """The hottest cell's write count — the denominator of Eq. 4.

        A finished state's counters never change, so its peak is found
        once — by the narrowing pass of :meth:`finish`, or from the
        packed block on first use (every lane outside it is zero, so no
        dense matrix is built) — and kept.
        """
        if self.packed is None:
            return float(self.write_counts.max())
        if self._peak is None:
            self._peak = float(self.packed["write"][1].max(initial=0))
        return self._peak

    @property
    def total_writes(self) -> float:
        """Total writes across the array."""
        return float(self.write_counts.sum())

    @property
    def total_reads(self) -> float:
        """Total reads across the array."""
        return float(self.read_counts.sum())

    def lane_view(self, counts: np.ndarray, orientation: Orientation) -> np.ndarray:
        """View a physical counts matrix as ``(offset, lane)``.

        For column-parallel arrays this is the matrix itself (rows are
        offsets); for row-parallel it is the transpose.
        """
        if counts.shape != (self.geometry.rows, self.geometry.cols):
            raise ValueError("counts matrix does not match geometry")
        if orientation is Orientation.COLUMN_PARALLEL:
            return counts
        return counts.T
