"""Bit-level logic gate abstractions for digital PIM.

The paper's architectures (Table 1: Pinatubo, MAGIC, Felix, CRAM) all share
one operating principle: a gate reads one or two input memory cells and
writes one output cell, within a single lane (Section 2.2). This subpackage
provides:

* :mod:`repro.gates.ops` — the gate opcodes and their boolean semantics;
* :mod:`repro.gates.gate` — the :class:`~repro.gates.gate.Gate` record, the
  unit of work executed by the array simulator;
* :mod:`repro.gates.library` — gate *libraries* (which opcodes an
  architecture supports and how composite functions decompose), including
  the two libraries whose accounting the paper uses: NAND-only (endurance
  analysis, Section 3.1) and minimal two-input (overhead analysis,
  Section 3.2 / Table 2).
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "GateOp": "repro.gates.ops",
        "evaluate_op": "repro.gates.ops",
        "ONE_INPUT_OPS": "repro.gates.ops",
        "TWO_INPUT_OPS": "repro.gates.ops",
        "Gate": "repro.gates.gate",
        "GateLibrary": "repro.gates.library",
        "NAND_LIBRARY": "repro.gates.library",
        "MINIMAL_LIBRARY": "repro.gates.library",
        "NOR_LIBRARY": "repro.gates.library",
        "MAJ_LIBRARY": "repro.gates.library",
        "library_by_name": "repro.gates.library",
    },
)
