"""Trace-driven workload frontend (PIMulator-style traces).

Pipeline: :func:`parse_trace` turns trace text into a typed
:class:`TraceInstr` stream; :class:`AddressMapping` projects the
decomposed physical addresses onto lane geometry (direct / interleaved /
hash policies); :class:`TraceWorkload` lowers the ``PIM`` compute ops to
synthesized gate programs through the existing gate libraries and plugs
into the simulator, engine, and fleet like any hand-built workload.

See ``docs/workloads.md`` for the full tour.
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "AddressFormat": "repro.workloads.trace.parser",
        "PIMULATOR_FORMAT": "repro.workloads.trace.parser",
        "PhysicalAddress": "repro.workloads.trace.parser",
        "TraceInstr": "repro.workloads.trace.parser",
        "TraceOp": "repro.workloads.trace.parser",
        "TraceParseError": "repro.workloads.trace.parser",
        "iter_trace": "repro.workloads.trace.parser",
        "parse_trace": "repro.workloads.trace.parser",
        "AddressMapping": "repro.workloads.trace.addressing",
        "MAPPING_POLICIES": "repro.workloads.trace.addressing",
        "GEMV_FIXTURE": "repro.workloads.trace.fixtures",
        "fixture_path": "repro.workloads.trace.fixtures",
        "gemv_addresses": "repro.workloads.trace.fixtures",
        "gemv_trace_lines": "repro.workloads.trace.fixtures",
        "load_gemv_fixture": "repro.workloads.trace.fixtures",
        "write_gemv_trace": "repro.workloads.trace.fixtures",
        "TraceLoweringError": "repro.workloads.trace.lowering",
        "TraceWorkload": "repro.workloads.trace.lowering",
    },
)
