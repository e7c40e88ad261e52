"""Gate opcodes and boolean semantics.

Covers the basic operations the surveyed PIM architectures implement
natively (NOT, (N)AND, (N)OR — Section 2.2), plus XOR/XNOR, MAJ (the
majority function some CRAM designs expose), and COPY (used by
memory-access-aware re-mapping, Section 3.2; architectures lacking COPY
use two sequential NOTs instead).
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence


class GateOp(Enum):
    """Opcode of an in-memory logic gate.

    Attributes:
        arity: Number of input cells the gate reads.
        index: Position in definition order; indexes per-op tables such
            as :attr:`~repro.gates.library.GateLibrary.native_mask`.
    """

    NOT = "not"
    COPY = "copy"
    AND = "and"
    NAND = "nand"
    OR = "or"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"
    MAJ = "maj"

    arity: int
    index: int


#: Gates reading a single input cell.
ONE_INPUT_OPS = frozenset({GateOp.NOT, GateOp.COPY})

#: Gates reading two input cells.
TWO_INPUT_OPS = frozenset(
    {GateOp.AND, GateOp.NAND, GateOp.OR, GateOp.NOR, GateOp.XOR, GateOp.XNOR}
)

# The per-op table, built once: plain attributes, so the builder's one
# lookup per gate hashes no enum member.
for _index, _op in enumerate(GateOp):
    _op.index = _index
    _op.arity = 1 if _op in ONE_INPUT_OPS else 3 if _op is GateOp.MAJ else 2
del _index, _op


def evaluate_op(op: GateOp, inputs: Sequence[int]) -> int:
    """Evaluate a gate opcode over boolean inputs (0/1).

    Raises:
        ValueError: if the number of inputs does not match the opcode arity
            or an input is not 0/1.
    """
    if len(inputs) != op.arity:
        raise ValueError(f"{op.name} takes {op.arity} inputs, got {len(inputs)}")
    for value in inputs:
        if value not in (0, 1):
            raise ValueError(f"gate inputs must be 0 or 1, got {value!r}")
    if op is GateOp.NOT:
        return 1 - inputs[0]
    if op is GateOp.COPY:
        return inputs[0]
    if op is GateOp.AND:
        return inputs[0] & inputs[1]
    if op is GateOp.NAND:
        return 1 - (inputs[0] & inputs[1])
    if op is GateOp.OR:
        return inputs[0] | inputs[1]
    if op is GateOp.NOR:
        return 1 - (inputs[0] | inputs[1])
    if op is GateOp.XOR:
        return inputs[0] ^ inputs[1]
    if op is GateOp.XNOR:
        return 1 - (inputs[0] ^ inputs[1])
    if op is GateOp.MAJ:
        return 1 if sum(inputs) >= 2 else 0
    raise ValueError(f"unhandled opcode {op!r}")
