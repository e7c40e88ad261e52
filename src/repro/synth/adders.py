"""Half adders, full adders, and the ripple-carry adder.

Gate-level constructions per library, with the exact costs the paper's
accounting relies on:

* NAND library — the 9-NAND full adder of the paper's Fig. 2 and a
  5-gate half adder (4 NANDs forming XOR, one NOT for the carry);
* minimal two-input library — the 5-gate full adder and 2-gate half adder
  ("a full-add requires a minimum of 5 gates and a half-add requires
  2 gates", Section 3.2);
* NOR library — the De Morgan dual 9-NOR full adder and a 5-gate half
  adder (two NOTs, carry NOR, OR-term NOR, sum NOR).

``b``-bit addition uses a ripple-carry adder with ``b - 1`` full adds and
one half add — "while it is slow in traditional digital circuitry, a
ripple-carry adder is optimal for PIM as it uses the fewest gates"
(Section 2.2).

All constructions free their intermediate logical bits as soon as the
values are dead, reproducing the workspace-reuse pattern that concentrates
wear on a few cells (Fig. 5).
"""

from __future__ import annotations

from typing import Tuple

from repro.gates.ops import GateOp
from repro.synth.bits import BitVector
from repro.synth.program import LaneProgramBuilder


def full_adder(
    builder: LaneProgramBuilder, a: int, b: int, cin: int
) -> Tuple[int, int]:
    """Add three bits; returns ``(sum, carry_out)`` logical addresses.

    Dispatches to the cheapest construction the builder's library supports.
    Input bits are *not* freed (the caller owns them).
    """
    library = builder.library
    if library.supports(GateOp.XOR):
        return _full_adder_minimal(builder, a, b, cin)
    if library.supports(GateOp.MAJ):
        return _full_adder_maj(builder, a, b, cin)
    if library.supports(GateOp.NAND):
        return _full_adder_nand(builder, a, b, cin)
    if library.supports(GateOp.NOR):
        return _full_adder_nor(builder, a, b, cin)
    raise ValueError(
        f"library {library.name!r} cannot synthesize a full adder"
    )


def carry_adder(builder: LaneProgramBuilder, a: int, b: int, cin: int) -> int:
    """Carry-only full adder: returns the carry-out address, no sum.

    The comparator's borrow chain only needs MAJ(a, b, cin); synthesizing
    a full adder and discarding the sum wastes gates *and* leaves dead
    writes behind (cells written, never read — exactly what the static
    checker's RPR002 pass flags). Costs per library: 1 gate (MAJ),
    4 (minimal), 6 (NAND), 6 (NOR) versus the full adder's 4/5/9/9.
    Input bits are *not* freed (the caller owns them).
    """
    library = builder.library
    if library.supports(GateOp.MAJ):
        return builder.gate(GateOp.MAJ, a, b, cin)
    if library.supports(GateOp.XOR):
        return _carry_adder_minimal(builder, a, b, cin)
    if library.supports(GateOp.NAND):
        return _carry_adder_nand(builder, a, b, cin)
    if library.supports(GateOp.NOR):
        return _carry_adder_nor(builder, a, b, cin)
    raise ValueError(
        f"library {library.name!r} cannot synthesize a carry adder"
    )


def half_adder(builder: LaneProgramBuilder, a: int, b: int) -> Tuple[int, int]:
    """Add two bits; returns ``(sum, carry_out)`` logical addresses."""
    library = builder.library
    if library.supports(GateOp.XOR):
        return _half_adder_minimal(builder, a, b)
    if library.supports(GateOp.MAJ):
        return _half_adder_maj(builder, a, b)
    if library.supports(GateOp.NAND):
        return _half_adder_nand(builder, a, b)
    if library.supports(GateOp.NOR):
        return _half_adder_nor(builder, a, b)
    raise ValueError(
        f"library {library.name!r} cannot synthesize a half adder"
    )


def ripple_carry_add(
    builder: LaneProgramBuilder,
    a: BitVector,
    b: BitVector,
    free_inputs: bool = False,
) -> BitVector:
    """Add two equal-width vectors; returns a ``width + 1``-bit sum.

    Uses one half add for the LSB and ``width - 1`` full adds — exactly
    ``5b - 3`` gates in the minimal library and ``9b - 4`` in the NAND
    library.

    Args:
        builder: Target program builder.
        a: First addend (LSB first).
        b: Second addend, same width.
        free_inputs: Free each input bit as soon as it has been consumed
            (the usual case for dead partial sums in reductions).
    """
    if a.width != b.width:
        raise ValueError(
            f"ripple_carry_add requires equal widths, got {a.width} and {b.width}"
        )
    if a.width == 0:
        raise ValueError("cannot add zero-width vectors")
    if free_inputs:
        return _ripple_carry_add(builder, a, b, free_inputs=True)
    return builder.templated(_ripple_carry_add, a, b)


def _ripple_carry_add(
    builder: LaneProgramBuilder,
    a: BitVector,
    b: BitVector,
    free_inputs: bool = False,
) -> BitVector:
    """The gate-by-gate synthesis behind :func:`ripple_carry_add`."""
    sum_bits = []
    s, carry = half_adder(builder, a[0], b[0])
    sum_bits.append(s)
    if free_inputs:
        builder.free_many((a[0], b[0]))
    for i in range(1, a.width):
        s, carry_next = full_adder(builder, a[i], b[i], carry)
        builder.free(carry)
        if free_inputs:
            builder.free_many((a[i], b[i]))
        sum_bits.append(s)
        carry = carry_next
    sum_bits.append(carry)
    return BitVector(sum_bits)


# ----------------------------------------------------------------------
# NAND constructions (paper Fig. 2)
# ----------------------------------------------------------------------


def _full_adder_nand(
    builder: LaneProgramBuilder, a: int, b: int, cin: int
) -> Tuple[int, int]:
    """The classic 9-NAND full adder of the paper's Fig. 2."""
    nand = lambda x, y: builder.gate(GateOp.NAND, x, y)  # noqa: E731
    n1 = nand(a, b)
    n2 = nand(a, n1)
    n3 = nand(b, n1)
    x1 = nand(n2, n3)  # a XOR b
    builder.free_many((n2, n3))
    n4 = nand(x1, cin)
    n5 = nand(x1, n4)
    n6 = nand(cin, n4)
    s = nand(n5, n6)  # a XOR b XOR cin
    builder.free_many((n5, n6, x1))
    cout = nand(n1, n4)  # majority(a, b, cin)
    builder.free_many((n1, n4))
    return s, cout


def _carry_adder_nand(
    builder: LaneProgramBuilder, a: int, b: int, cin: int
) -> int:
    """6 NANDs: Fig. 2's carry path alone (XOR block plus carry NAND)."""
    nand = lambda x, y: builder.gate(GateOp.NAND, x, y)  # noqa: E731
    n1 = nand(a, b)
    n2 = nand(a, n1)
    n3 = nand(b, n1)
    x1 = nand(n2, n3)  # a XOR b
    builder.free_many((n2, n3))
    n4 = nand(x1, cin)
    builder.free(x1)
    cout = nand(n1, n4)  # majority(a, b, cin)
    builder.free_many((n1, n4))
    return cout


def _half_adder_nand(
    builder: LaneProgramBuilder, a: int, b: int
) -> Tuple[int, int]:
    """4 NANDs (XOR) plus one NOT (carry): 5 gates, 9 reads, 5 writes."""
    nand = lambda x, y: builder.gate(GateOp.NAND, x, y)  # noqa: E731
    n1 = nand(a, b)
    n2 = nand(a, n1)
    n3 = nand(b, n1)
    s = nand(n2, n3)
    carry = builder.gate(GateOp.NOT, n1)
    builder.free_many((n1, n2, n3))
    return s, carry


# ----------------------------------------------------------------------
# Minimal two-input constructions (Section 3.2 gate minimums)
# ----------------------------------------------------------------------


def _full_adder_minimal(
    builder: LaneProgramBuilder, a: int, b: int, cin: int
) -> Tuple[int, int]:
    """5 two-input gates: 2 XOR, 2 AND, 1 OR."""
    x1 = builder.gate(GateOp.XOR, a, b)
    s = builder.gate(GateOp.XOR, x1, cin)
    a1 = builder.gate(GateOp.AND, a, b)
    a2 = builder.gate(GateOp.AND, x1, cin)
    cout = builder.gate(GateOp.OR, a1, a2)
    builder.free_many((x1, a1, a2))
    return s, cout


def _carry_adder_minimal(
    builder: LaneProgramBuilder, a: int, b: int, cin: int
) -> int:
    """4 two-input gates: the full adder's carry tree, sum XOR elided."""
    x1 = builder.gate(GateOp.XOR, a, b)
    a1 = builder.gate(GateOp.AND, a, b)
    a2 = builder.gate(GateOp.AND, x1, cin)
    cout = builder.gate(GateOp.OR, a1, a2)
    builder.free_many((x1, a1, a2))
    return cout


def _half_adder_minimal(
    builder: LaneProgramBuilder, a: int, b: int
) -> Tuple[int, int]:
    """2 gates: XOR for sum, AND for carry."""
    s = builder.gate(GateOp.XOR, a, b)
    carry = builder.gate(GateOp.AND, a, b)
    return s, carry


# ----------------------------------------------------------------------
# Majority constructions (CRAM-style fabrics)
# ----------------------------------------------------------------------


def _full_adder_maj(
    builder: LaneProgramBuilder, a: int, b: int, cin: int
) -> Tuple[int, int]:
    """4 gates: cout = MAJ(a,b,cin); sum = MAJ(MAJ(a,b,!cout), cin, !cout).

    The identity: with ncout = NOT(majority), MAJ(a,b,ncout) isolates the
    "exactly one or all three set" cases, and a second majority against
    cin recovers a XOR b XOR cin. (Exhaustively verified in tests.)
    """
    cout = builder.gate(GateOp.MAJ, a, b, cin)
    ncout = builder.gate(GateOp.NOT, cout)
    t = builder.gate(GateOp.MAJ, a, b, ncout)
    s = builder.gate(GateOp.MAJ, t, cin, ncout)
    builder.free_many((ncout, t))
    return s, cout


def _half_adder_maj(
    builder: LaneProgramBuilder, a: int, b: int
) -> Tuple[int, int]:
    """4 gates against the shared constant-zero cell: the full-adder
    construction with cin tied to 0 (carry = AND, sum = XOR)."""
    zero = builder.zero_bit()
    carry = builder.gate(GateOp.MAJ, a, b, zero)  # AND(a, b)
    ncarry = builder.gate(GateOp.NOT, carry)
    t = builder.gate(GateOp.MAJ, a, b, ncarry)
    s = builder.gate(GateOp.MAJ, t, zero, ncarry)  # AND(t, ncarry) == XOR
    builder.free_many((ncarry, t))
    return s, carry


# ----------------------------------------------------------------------
# NOR constructions (De Morgan duals)
# ----------------------------------------------------------------------


def _full_adder_nor(
    builder: LaneProgramBuilder, a: int, b: int, cin: int
) -> Tuple[int, int]:
    """9-NOR full adder: two cascaded XNOR blocks plus the carry NOR."""
    nor = lambda x, y: builder.gate(GateOp.NOR, x, y)  # noqa: E731
    n1 = nor(a, b)
    n2 = nor(a, n1)
    n3 = nor(b, n1)
    x1 = nor(n2, n3)  # XNOR(a, b)
    builder.free_many((n2, n3))
    n4 = nor(x1, cin)
    n5 = nor(x1, n4)
    n6 = nor(cin, n4)
    s = nor(n5, n6)  # XNOR(XNOR(a,b), cin) == a XOR b XOR cin
    builder.free_many((n5, n6, x1))
    cout = nor(n1, n4)  # (a|b) & (XNOR(a,b)|cin) == majority
    builder.free_many((n1, n4))
    return s, cout


def _carry_adder_nor(
    builder: LaneProgramBuilder, a: int, b: int, cin: int
) -> int:
    """6 NORs: the De Morgan dual of the 6-NAND carry chain."""
    nor = lambda x, y: builder.gate(GateOp.NOR, x, y)  # noqa: E731
    n1 = nor(a, b)
    n2 = nor(a, n1)
    n3 = nor(b, n1)
    x1 = nor(n2, n3)  # XNOR(a, b)
    builder.free_many((n2, n3))
    n4 = nor(x1, cin)
    builder.free(x1)
    cout = nor(n1, n4)  # majority(a, b, cin)
    builder.free_many((n1, n4))
    return cout


def _half_adder_nor(
    builder: LaneProgramBuilder, a: int, b: int
) -> Tuple[int, int]:
    """5 gates: carry = NOR(!a, !b) = a AND b; sum = NOR(NOR(a,b), carry)."""
    na = builder.gate(GateOp.NOT, a)
    nb = builder.gate(GateOp.NOT, b)
    carry = builder.gate(GateOp.NOR, na, nb)
    builder.free_many((na, nb))
    n1 = builder.gate(GateOp.NOR, a, b)
    s = builder.gate(GateOp.NOR, n1, carry)
    builder.free(n1)
    return s, carry
