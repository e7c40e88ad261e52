"""Persistence for simulation results, and the one record codec.

Every file repro writes and reads back is one **sealed record**
(:func:`dump_sealed_arrays`/:func:`load_sealed_arrays`): a seal line
holding the SHA-256 of the rest, a one-line JSON header (the record's
metadata and its arrays' names, dtypes and shapes) and the arrays' raw
bytes. A truncated, altered or foreign file reads as ``None`` rather
than as different data. :func:`write_atomic` puts every record on disk
(temp file in the same directory, then rename), so a killed writer
leaves the old file or the new one, never a torn one. Result payloads,
store sidecars and manifests (:mod:`repro.engine.store`), CLI exports
and fleet checkpoints (:mod:`repro.fleet.checkpoint`) all take this
path.

Long-horizon sweeps are worth caching: :func:`save_result` writes a
:class:`~repro.core.simulator.SimulationResult`'s counters and metadata
as one sealed record, and :func:`load_result` restores them into a
:class:`~repro.core.simulator.SimulationResult` without its mapping,
which supports every downstream analysis (distributions, lifetimes,
failure timelines) without re-simulation.

Counters are stored in the **packed** form a finished result already
holds (:meth:`repro.array.state.ArrayState.finish`): wear lands only on
the lanes that run a program, so each counter matrix is kept as the
sorted indices of the lanes that may hold a count (``<name>_lanes``)
and the block of just those lanes (``<name>_block``, shape
``(lane size, len(lanes))``) in the narrowest unsigned integer dtype
that holds it exactly. Saving writes the result's own arrays, without
a second pack, and restoring adopts the stored block: a block that
covers every lane is the restored matrix itself, and a partial one is
scattered into zeros of its own dtype.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.array.architecture import default_architecture
from repro.array.geometry import Orientation
from repro.array.state import COUNT_DTYPES, ArrayState
from repro.balance.config import BalanceConfig
from repro.core.simulator import SimulationResult
from repro.core.writedist import WriteDistribution

_FORMAT_VERSION = 2

#: Every dtype a stored block may have.
_BLOCK_DTYPES = tuple(dtype for dtype, _ in COUNT_DTYPES)


def write_atomic(path: Union[str, Path], data: bytes) -> None:
    """Replace ``path``'s contents with ``data`` in one rename.

    The bytes go to a temp file in ``path``'s directory whose name
    carries the writing process's pid, so concurrent writers of one
    path never share a temp file, and :func:`os.replace` swaps it in.
    The temp file is removed whether or not the write succeeds.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


#: The first bytes of every :func:`dump_sealed_arrays` record; the
#: digest follows on the same line.
_ARRAYS_MAGIC = b"repro-sealed-arrays 1 "

#: The dtypes a sealed array may have, by their ``dtype.str``: booleans
#: and plain numbers in either byte order, never objects.
_ARRAY_DTYPES = {
    dtype.str: dtype
    for name in (
        "bool", "int8", "int16", "int32", "int64", "uint8", "uint16",
        "uint32", "uint64", "float32", "float64",
    )
    for dtype in (np.dtype(name), np.dtype(name).newbyteorder())
}


def dump_sealed_arrays(
    metadata: dict, arrays: Mapping[str, np.ndarray]
) -> bytes:
    """``metadata`` and ``arrays`` as one binary record under one digest.

    The record is a seal line (:data:`_ARRAYS_MAGIC` and the hex SHA-256
    of everything after the line), a one-line JSON header holding
    ``metadata`` and each array's name, dtype and shape, and then each
    array's raw C-order bytes in header order. The digest covers the
    header text and the array bytes, so no byte of the record after the
    magic can change without the record reading as damaged.
    ``metadata`` must be JSON-native.

    Raises:
        ValueError: if an array's dtype is not a boolean or plain
            numeric one, which :func:`load_sealed_arrays` would refuse.
    """
    arrays = {name: np.ascontiguousarray(a) for name, a in arrays.items()}
    for name, a in arrays.items():
        if a.dtype.str not in _ARRAY_DTYPES:
            raise ValueError(f"cannot seal {name!r} of dtype {a.dtype}")
    layout = [[name, a.dtype.str, list(a.shape)] for name, a in arrays.items()]
    header = json.dumps({"arrays": layout, "metadata": metadata})
    body = b"".join(
        [header.encode("ascii"), b"\n"]
        + [a.tobytes() for a in arrays.values()]
    )
    seal = hashlib.sha256(body).hexdigest().encode("ascii")
    return b"".join([_ARRAYS_MAGIC, seal, b"\n", body])


def _sealed_layout(layout) -> Optional[List[Tuple[str, np.dtype, tuple]]]:
    """A header's ``arrays`` list as ``(name, dtype, shape)``, or
    ``None`` if it is not one :func:`dump_sealed_arrays` writes."""
    if not isinstance(layout, list):
        return None
    out = []
    for entry in layout:
        if not (isinstance(entry, list) and len(entry) == 3):
            return None
        name, dtype, shape = entry
        if not (
            isinstance(name, str)
            and isinstance(dtype, str)
            and dtype in _ARRAY_DTYPES
            and isinstance(shape, list)
            and all(type(n) is int and n >= 0 for n in shape)
        ):
            return None
        out.append((name, _ARRAY_DTYPES[dtype], tuple(shape)))
    if len({name for name, _, _ in out}) != len(out):
        return None
    return out


def load_sealed_arrays(
    data: bytes,
) -> Optional[Tuple[dict, Dict[str, np.ndarray]]]:
    """The ``(metadata, arrays)`` :func:`dump_sealed_arrays` wrote, or
    ``None`` if ``data`` is damaged.

    The digest is checked before anything is parsed, so a truncated or
    altered record reads as ``None``; so does a record whose digest
    holds but whose header or array bytes do not describe each other.
    The arrays are read-only views of ``data``: the payload is hashed
    and viewed in place, never copied.
    """
    view = memoryview(data).toreadonly()
    seal_end = data.find(b"\n")
    body = seal_end + 1
    if (
        seal_end < 0
        or not data.startswith(_ARRAYS_MAGIC)
        or data[len(_ARRAYS_MAGIC):seal_end]
        != hashlib.sha256(view[body:]).hexdigest().encode("ascii")
    ):
        return None
    text_end = data.find(b"\n", body)
    if text_end < 0:
        return None
    try:
        header = json.loads(data[body:text_end])
    except (ValueError, RecursionError):  # not JSON, not UTF-8, too deep
        return None
    if not isinstance(header, dict) or not isinstance(
        header.get("metadata"), dict
    ):
        return None
    layout = _sealed_layout(header.get("arrays"))
    if layout is None:
        return None
    arrays, offset = {}, text_end + 1
    for name, dtype, shape in layout:
        size = dtype.itemsize * math.prod(shape)
        if size > len(data) - offset:
            return None
        arrays[name] = np.frombuffer(
            view, dtype, size // dtype.itemsize, offset
        ).reshape(shape)
        offset += size
    if offset != len(data):
        return None
    return header["metadata"], arrays


def result_metadata(result: SimulationResult) -> dict:
    """The JSON-able metadata block describing one result.

    Everything a restored :class:`SimulationResult` needs besides the
    counter arrays.
    """
    return {
        "format_version": _FORMAT_VERSION,
        "workload_name": result.workload_name,
        "config_label": result.config.label,
        "recompile_interval": result.config.recompile_interval,
        "iterations": result.iterations,
        "epochs": result.epochs,
        "rows": result.architecture.geometry.rows,
        "cols": result.architecture.geometry.cols,
        "orientation": result.architecture.orientation.value,
        "technology": result.architecture.technology.name,
        "architecture": result.architecture.name,
        "iteration_latency_s": result.iteration_latency_s,
        "lane_utilization": result.lane_utilization,
    }


def _check_packed(
    lanes: np.ndarray,
    block: np.ndarray,
    shape: Tuple[int, int],
    orientation: Orientation,
) -> None:
    """Check that ``(lanes, block)``, read from outside, packs a
    ``shape`` counter matrix.

    Raises:
        ValueError: if lanes are not sorted, unique and in range, the
            block has the wrong shape, or its dtype is not one of
            :data:`~repro.array.state.COUNT_DTYPES` (float64 blocks of
            entries written before results held integer counters
            included: they read as damaged, so the store re-simulates
            them).
    """
    column = orientation is Orientation.COLUMN_PARALLEL
    n_lanes, lane_size = shape[::-1] if column else shape
    if lanes.ndim != 1 or lanes.dtype.kind not in "iu":
        raise ValueError(
            f"lane indices must be a 1-D integer array, got "
            f"{lanes.dtype} of shape {lanes.shape}"
        )
    if len(lanes) and (
        lanes[0] < 0
        or lanes[-1] >= n_lanes
        or (lanes[1:] <= lanes[:-1]).any()
    ):
        raise ValueError(
            f"lane indices must be sorted, unique and below {n_lanes}"
        )
    if block.dtype not in _BLOCK_DTYPES:
        raise ValueError(f"unsupported counter block dtype {block.dtype}")
    if block.shape != (lane_size, len(lanes)):
        raise ValueError(
            f"counter block shape {block.shape} does not match "
            f"{len(lanes)} lanes of {lane_size}"
        )


def encode_result(
    result: SimulationResult,
) -> Tuple[dict, Dict[str, np.ndarray]]:
    """``(metadata, arrays)``: one result as it is stored.

    ``arrays`` holds the result's own packed counters
    (``ArrayState.packed``), not copies: ``write_lanes``/``write_block``
    always, and ``read_lanes``/``read_block`` only when reads were
    counted. ``metadata`` is :func:`result_metadata` plus the
    ``counters`` packed, so a payload that lost an array reads as
    damaged rather than as untracked reads. :func:`restore_result`
    inverts it.
    """
    packed = result.state.packed
    arrays = {}
    for name, (lanes, block) in packed.items():
        arrays[f"{name}_lanes"], arrays[f"{name}_block"] = lanes, block
    return dict(result_metadata(result), counters=list(packed)), arrays


def save_result(result: SimulationResult, path: Union[str, Path]) -> None:
    """Atomically save a simulation result's counters and metadata to
    ``path`` as one sealed record (:func:`encode_result`'s pair).

    The workload mapping itself (programs, schedule) is not serialized;
    the per-iteration latency and per-iteration write/read totals it
    determines are stored instead, which is what every lifetime analysis
    consumes. The counters are lane-packed (:func:`encode_result`).
    """
    write_atomic(path, dump_sealed_arrays(*encode_result(result)))


def restore_result(
    metadata: dict, arrays: Mapping[str, np.ndarray]
) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`encode_result`
    output; its ``mapping`` is ``None``.

    The restored state adopts the blocks (:meth:`ArrayState.from_packed`).
    Reads not among the metadata's ``counters`` were not tracked (all
    zeros).

    Raises:
        ValueError: if the metadata was written by an incompatible
            version, or the arrays are not a packing of the counters
            it names.
    """
    version = metadata.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported result format {version!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    from repro.devices.technology import technology_by_name

    architecture = default_architecture(
        metadata["rows"], metadata["cols"]
    ).with_technology(technology_by_name(metadata["technology"]))
    if metadata["orientation"] != architecture.orientation.value:
        from dataclasses import replace

        architecture = replace(
            architecture,
            orientation=Orientation(metadata["orientation"]),
        )
    packed = metadata.get("counters")
    if packed not in (["write"], ["write", "read"]):
        raise ValueError(f"unsupported counter list {packed!r}")
    geometry = architecture.geometry
    counts = {"read": None}
    for name in packed:
        lanes = arrays.get(f"{name}_lanes")
        block = arrays.get(f"{name}_block")
        if lanes is None or block is None:
            raise ValueError(f"missing {name} counters")
        _check_packed(
            lanes,
            block,
            (geometry.rows, geometry.cols),
            architecture.orientation,
        )
        counts[name] = (lanes, block)
    state = ArrayState.from_packed(
        geometry, architecture.orientation, counts["write"], counts["read"]
    )
    return SimulationResult(
        workload_name=metadata["workload_name"],
        config=BalanceConfig.from_label(
            metadata["config_label"],
            recompile_interval=metadata["recompile_interval"],
        ),
        architecture=architecture,
        iterations=metadata["iterations"],
        epochs=metadata["epochs"],
        state=state,
        iteration_latency_s=metadata["iteration_latency_s"],
        lane_utilization=metadata["lane_utilization"],
    )


def load_result(path: Union[str, Path]) -> SimulationResult:
    """Restore a result saved with :func:`save_result`.

    The arrays are read-only views of the file's bytes.

    Raises:
        OSError: if ``path`` cannot be read.
        ValueError: if the file is damaged or is not a sealed record
            (:func:`load_sealed_arrays`), or is a sealed record that is
            not a result of this format version, or does not hold the
            packed counters its metadata names.
    """
    record = load_sealed_arrays(Path(path).read_bytes())
    if record is None:
        raise ValueError(f"damaged or foreign result file {path}")
    return restore_result(*record)


def save_distributions_csv(
    distributions: List[WriteDistribution], directory: str
) -> List[str]:
    """Write one CSV per distribution into ``directory``; returns paths."""
    import os
    import re

    os.makedirs(directory, exist_ok=True)
    paths = []
    for dist in distributions:
        slug = re.sub(r"[^A-Za-z0-9_.-]+", "_", dist.label or "dist")
        path = os.path.join(directory, f"{slug}.csv")
        dist.to_csv(path)
        paths.append(path)
    return paths
