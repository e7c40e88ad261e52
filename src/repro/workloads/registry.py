"""First-class workload registry: one resolution path for workload names.

Every place a workload is named — CLI ``--workload`` flags, fleet
``--workloads`` cohort tokens, the ``verify`` sweep, engine specs built
from names — resolves through this module. A registry entry couples a
name with a zero-argument **factory** (each call builds a fresh
:class:`~repro.workloads.base.Workload` instance) and a **provenance**
string saying where the entry came from, so error messages can tell a
built-in paper kernel from a bundled trace fixture from a user plug-in.

Registering is open to callers::

    from repro.workloads import register, get_workload

    register("my-kernel", lambda: MyWorkload(), provenance="plug-in")
    workload = get_workload("my-kernel")

Names must be non-empty, contain no whitespace, and may not be ``all``
(reserved by the ``verify`` sweep). Re-registering a taken name raises
unless ``replace=True``.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.workloads.base import Workload

#: Name the ``verify`` subcommand uses for "sweep everything"; never a
#: valid registry key.
RESERVED_NAMES = ("all",)


class WorkloadRegistrationError(ValueError):
    """Raised for invalid registrations (bad name, unhandled collision)."""


class UnknownWorkloadError(KeyError):
    """An unregistered workload name was looked up.

    ``str()`` renders the full human-readable message (closest-name
    suggestion plus the provenance listing), unlike a bare ``KeyError``.
    """

    def __init__(self, name: str, message: str) -> None:
        super().__init__(name)
        self.name = name
        self.message = message

    def __str__(self) -> str:
        return self.message


@dataclass(frozen=True)
class WorkloadEntry:
    """One registry row.

    Attributes:
        name: The registered lookup key.
        factory: Zero-argument callable returning a fresh workload.
        provenance: Where the entry came from (shown in error listings).
    """

    name: str
    factory: Callable[[], Workload]
    provenance: str = "user-registered"


_REGISTRY: Dict[str, WorkloadEntry] = {}


def register(
    name: str,
    factory: Callable[[], Workload],
    *,
    provenance: str = "user-registered",
    replace: bool = False,
) -> WorkloadEntry:
    """Register ``factory`` under ``name``; returns the new entry.

    Args:
        name: Lookup key (no whitespace; ``all`` is reserved).
        factory: Zero-argument callable building a fresh workload.
        provenance: Human-readable origin, shown in error listings.
        replace: Allow overwriting an existing entry.

    Raises:
        WorkloadRegistrationError: for invalid names, non-callable
            factories, or collisions without ``replace=True``.
    """
    if not isinstance(name, str) or not name or name != "".join(name.split()):
        raise WorkloadRegistrationError(
            f"workload name must be a non-empty string without whitespace, "
            f"got {name!r}"
        )
    if name in RESERVED_NAMES:
        raise WorkloadRegistrationError(f"workload name {name!r} is reserved")
    if not callable(factory):
        raise WorkloadRegistrationError(
            f"factory for {name!r} must be callable, got {factory!r}"
        )
    if name in _REGISTRY and not replace:
        existing = _REGISTRY[name]
        raise WorkloadRegistrationError(
            f"workload {name!r} is already registered "
            f"({existing.provenance}); pass replace=True to override"
        )
    entry = WorkloadEntry(name=name, factory=factory, provenance=provenance)
    _REGISTRY[name] = entry
    return entry


def unregister(name: str) -> None:
    """Remove ``name`` from the registry (no-op protection: must exist)."""
    if name not in _REGISTRY:
        raise UnknownWorkloadError(name, _unknown_message(name))
    del _REGISTRY[name]


def _resolve(name: str) -> WorkloadEntry:
    entry = _REGISTRY.get(name)
    if entry is None:
        raise UnknownWorkloadError(name, _unknown_message(name))
    return entry


def get_workload(name: str) -> Workload:
    """Build a fresh workload instance for the registered ``name``.

    Raises:
        UnknownWorkloadError: with a closest-name suggestion (difflib)
            and the full provenance listing when ``name`` is unknown.
    """
    return _resolve(name).factory()


def get_workload_factory(name: str) -> Callable[[], Workload]:
    """The registered factory itself (identity-stable across lookups)."""
    return _resolve(name).factory


def available_workloads() -> Tuple[str, ...]:
    """Sorted registered names."""
    return tuple(sorted(_REGISTRY))


def workload_entries() -> Tuple[WorkloadEntry, ...]:
    """Every entry, sorted by name."""
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def _unknown_message(name: str) -> str:
    """The full unknown-name message: suggestion + provenance listing."""
    matches = difflib.get_close_matches(name, sorted(_REGISTRY), n=1)
    suggestion = f"; did you mean {matches[0]!r}?" if matches else ""
    lines = [f"unknown workload {name!r}{suggestion}"]
    if _REGISTRY:
        lines.append("registered workloads:")
        for entry in workload_entries():
            lines.append(f"  {entry.name:<12s} {entry.provenance}")
    return "\n".join(lines)


def _gemv_trace_factory() -> Workload:
    # Imported lazily: the trace frontend pulls in the parser/lowering
    # machinery and reads the bundled fixture file, which only callers
    # that actually ask for the workload should pay for.
    from repro.workloads.trace.fixtures import load_gemv_fixture

    return load_gemv_fixture()


def _register_builtins() -> None:
    from repro.workloads.bnn import BinaryNeuron
    from repro.workloads.convolution import Convolution
    from repro.workloads.dotproduct import DotProduct
    from repro.workloads.matvec import MatrixVectorProduct
    from repro.workloads.multiply import ParallelMultiplication
    from repro.workloads.vectoradd import VectorAdd

    built_in = "built-in kernel (paper Section 4 / repro.workloads)"
    register("mult", lambda: ParallelMultiplication(bits=32),
             provenance=built_in)
    register("conv", lambda: Convolution(), provenance=built_in)
    register("dot", lambda: DotProduct(n_elements=1024, bits=32),
             provenance=built_in)
    register("add", lambda: VectorAdd(bits=32), provenance=built_in)
    register("bnn", lambda: BinaryNeuron(n_inputs=128), provenance=built_in)
    register("matvec", lambda: MatrixVectorProduct(),
             provenance="built-in kernel (extension, repro.workloads.matvec)")
    register(
        "gemv-trace",
        _gemv_trace_factory,
        provenance="bundled PIMulator GEMV trace "
        "(repro.workloads.trace.fixtures)",
    )


_register_builtins()
