"""Gate libraries: which opcodes an architecture supports natively.

The paper uses two accounting schemes for composite arithmetic, and the
library abstraction captures both:

* :data:`NAND_LIBRARY` — NAND/NOT only (MAGIC-style). A full adder costs
  9 NAND gates (paper Fig. 2) and a half adder 5 gates (4 NAND + 1 NOT).
  With these, the paper's 32-bit DADDA multiplication performs exactly
  **9,824 cell writes and 19,616 cell reads** (Section 3.1):
  ``(b^2-2b)*9 + b*5 + b^2 = 9824`` and ``(b^2-2b)*18 + b*9 + b^2*2 =
  19616`` for ``b = 32``.
* :data:`MINIMAL_LIBRARY` — arbitrary two-input gates. A full adder costs
  the paper's stated minimum of 5 gates and a half adder 2 gates
  (Section 3.2), giving ``6b^2 - 8b`` gates per DADDA multiplication and
  ``5b - 3`` per ripple-carry addition — the formulas behind Table 2.
* :data:`NOR_LIBRARY` — NOR/NOT only, included as a third realistic point
  (several memristive fabrics are NOR-native); a full adder costs 9 NOR
  gates by De Morgan duality.

A library also records whether COPY is native; if not, a copy is realized
with two sequential NOT gates (Section 3.2, footnote 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet

from repro.gates.ops import GateOp


@dataclass(frozen=True)
class GateLibrary:
    """An architecture's native gate set and adder cost contract.

    Attributes:
        name: Library name.
        native_ops: Opcodes the architecture executes in one step.
        full_adder_gates: Gates per full adder under this library.
        half_adder_gates: Gates per half adder under this library.
        carry_adder_gates: Gates per carry-only full adder (majority of
            three bits, no sum output) — what the comparator's borrow
            chain costs once the discarded sum gates are elided.
        and_gate_cost: Gates per two-input AND (1 when native; a NOR-only
            fabric pays 3: two NOTs plus a NOR).
        has_native_copy: Whether COPY is a single gate; otherwise two NOTs.
        native_mask: Whether each opcode is native, by
            :attr:`GateOp.index` — the per-library table builders read
            once per gate instead of hashing the opcode.
    """

    name: str
    native_ops: FrozenSet[GateOp]
    full_adder_gates: int
    half_adder_gates: int
    carry_adder_gates: int
    and_gate_cost: int
    has_native_copy: bool

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "native_mask",
            tuple(op in self.native_ops for op in GateOp),
        )

    def supports(self, op: GateOp) -> bool:
        """Whether ``op`` executes natively (one step) in this library."""
        return self.native_mask[op.index]

    @property
    def copy_gate_cost(self) -> int:
        """Sequential gates needed to copy one bit."""
        return 1 if self.has_native_copy else 2

    def multiplier_gates(self, bits: int) -> int:
        """Gates for a ``bits``-wide DADDA multiplication.

        A DADDA multiplier uses ``b^2 - 2b`` full adds, ``b`` half adds and
        ``b^2`` AND gates (paper Section 2.2).
        """
        _require_width(bits)
        full_adds = bits * bits - 2 * bits
        half_adds = bits
        ands = bits * bits
        return (
            full_adds * self.full_adder_gates
            + half_adds * self.half_adder_gates
            + ands * self.and_gate_cost
        )

    def adder_gates(self, bits: int) -> int:
        """Gates for a ``bits``-wide ripple-carry addition.

        Ripple-carry ("optimal for PIM as it uses the fewest gates",
        Section 2.2) takes ``b - 1`` full adds and one half add.
        """
        _require_width(bits)
        return (bits - 1) * self.full_adder_gates + self.half_adder_gates


def _require_width(bits: int) -> None:
    if bits < 2:
        raise ValueError(f"operand width must be at least 2 bits, got {bits}")


#: NAND/NOT fabric with native AND (Section 2.2 lists "NOT, (N)AND, or
#: (N)OR" as basic operations); the paper's endurance-accounting library.
#: The full adder is Fig. 2's 9-NAND circuit; the half adder is 4 NANDs
#: (XOR) plus one NOT (carry). With these costs a 32-bit DADDA multiply
#: performs exactly 9,824 writes and 19,616 reads (Section 3.1).
NAND_LIBRARY = GateLibrary(
    name="nand",
    native_ops=frozenset({GateOp.NAND, GateOp.NOT, GateOp.AND}),
    full_adder_gates=9,
    half_adder_gates=5,
    carry_adder_gates=6,
    and_gate_cost=1,
    has_native_copy=False,
)

#: Arbitrary two-input gates; the paper's minimal-gate-count library used
#: for the shuffle-overhead analysis (Table 2).
MINIMAL_LIBRARY = GateLibrary(
    name="minimal",
    native_ops=frozenset(
        {
            GateOp.NOT,
            GateOp.COPY,
            GateOp.AND,
            GateOp.NAND,
            GateOp.OR,
            GateOp.NOR,
            GateOp.XOR,
            GateOp.XNOR,
        }
    ),
    full_adder_gates=5,
    half_adder_gates=2,
    carry_adder_gates=4,
    and_gate_cost=1,
    has_native_copy=True,
)

#: NOR/NOT fabric (De Morgan dual of NAND; same adder costs, but AND is
#: not native and costs two NOTs plus a NOR).
NOR_LIBRARY = GateLibrary(
    name="nor",
    native_ops=frozenset({GateOp.NOR, GateOp.NOT}),
    full_adder_gates=9,
    half_adder_gates=5,
    carry_adder_gates=6,
    and_gate_cost=3,
    has_native_copy=False,
)

#: CRAM-style majority-gate fabric: spintronic CRAM natively computes
#: three-input majority [Chowdhury 2017, Zabihi 2018], which collapses the
#: full adder to 4 gates — cout = MAJ(a,b,cin); sum = MAJ(MAJ(a,b,!cout),
#: cin, !cout) — roughly halving the write cost of in-memory arithmetic
#: versus the NAND decomposition. AND(a,b) = MAJ(a,b,0) against a shared
#: constant-zero cell.
MAJ_LIBRARY = GateLibrary(
    name="maj",
    native_ops=frozenset({GateOp.MAJ, GateOp.NOT}),
    full_adder_gates=4,
    half_adder_gates=4,
    carry_adder_gates=1,
    and_gate_cost=1,
    has_native_copy=False,
)

_LIBRARIES: Dict[str, GateLibrary] = {
    lib.name: lib
    for lib in (NAND_LIBRARY, MINIMAL_LIBRARY, NOR_LIBRARY, MAJ_LIBRARY)
}


def library_by_name(name: str) -> GateLibrary:
    """Look up a built-in gate library by name (case-insensitive)."""
    try:
        return _LIBRARIES[name.strip().lower()]
    except KeyError:
        known = ", ".join(sorted(_LIBRARIES))
        raise KeyError(f"unknown gate library {name!r}; known: {known}") from None
