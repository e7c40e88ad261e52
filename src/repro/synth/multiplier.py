"""The in-memory multiplier.

The paper uses a DADDA multiplier [Townsend 2003] as the representative
in-memory multiplication and accounts for it as ``b^2 - 2b`` full adds,
``b`` half adds and ``b^2`` AND gates (Section 2.2). That adder census is
exactly the classic carry-save *array* multiplier (Braun array), which we
implement here — so the gate, read and write counts match the paper's
arithmetic to the digit (9,824 writes / 19,616 reads for ``b = 32`` under
the NAND library), while remaining functionally exact.

Partial products are generated row-by-row and freed as soon as consumed,
keeping the live footprint near ``6b`` bits: a 1024-bit lane "can easily
accommodate the multiplication of 64-bit integer operands" (Section 3.1,
footnote 3), and the small reused workspace is what concentrates wear
(Fig. 5).
"""

from __future__ import annotations

from typing import List

from repro.synth.adders import full_adder, half_adder
from repro.synth.bits import BitVector
from repro.synth.program import LaneProgramBuilder


def multiply(
    builder: LaneProgramBuilder,
    a: BitVector,
    b: BitVector,
    free_inputs: bool = False,
) -> BitVector:
    """Multiply two unsigned ``b``-bit vectors; returns the ``2b``-bit product.

    Adder census: exactly ``width^2 - 2*width`` full adds, ``width`` half
    adds, and ``width^2`` AND gates, matching the paper's DADDA accounting.

    Args:
        builder: Target program builder.
        a: Multiplicand (LSB first).
        b: Multiplier, same width.
        free_inputs: Free the input bits once the last partial-product row
            has consumed them.

    Raises:
        ValueError: for mismatched widths or widths below 2.
    """
    n = a.width
    if b.width != n:
        raise ValueError(f"multiply requires equal widths, got {n} and {b.width}")
    if n < 2:
        raise ValueError("multiply requires at least 2-bit operands")
    if free_inputs:
        return _multiply(builder, a, b, free_inputs=True)
    return builder.templated(_multiply, a, b)


def _multiply(
    builder: LaneProgramBuilder,
    a: BitVector,
    b: BitVector,
    free_inputs: bool = False,
) -> BitVector:
    """The gate-by-gate synthesis behind :func:`multiply`."""
    n = a.width

    def pp_row(i: int) -> List[int]:
        """Partial products a[j] & b[i] for all j (weight i + j)."""
        return [builder.and_bit(a[j], b[i]) for j in range(n)]

    product: List[int] = []

    # Row 0 and row 1 feed the first carry-save row of half adders.
    row0 = pp_row(0)
    product.append(row0[0])  # weight 0 needs no addition
    row1 = pp_row(1)
    sums: List[int] = []
    carries: List[int] = []
    for j in range(n - 1):
        s, c = half_adder(builder, row0[j + 1], row1[j])
        builder.free_many((row0[j + 1], row1[j]))
        sums.append(s)
        carries.append(c)
    product.append(sums[0])
    top = row1[n - 1]  # the unconsumed MSB partial product of the last row

    # Middle carry-save rows: one full adder per column.
    for i in range(2, n):
        row = pp_row(i)
        if free_inputs and i == n - 1:
            builder.free_vector(b)
        new_sums: List[int] = []
        new_carries: List[int] = []
        for j in range(n - 1):
            first = sums[j + 1] if j < n - 2 else top
            s, c = full_adder(builder, first, carries[j], row[j])
            builder.free_many((first, carries[j], row[j]))
            new_sums.append(s)
            new_carries.append(c)
        product.append(new_sums[0])
        top = row[n - 1]
        sums, carries = new_sums, new_carries
    if free_inputs:
        builder.free_vector(a)
        if n == 2:
            builder.free_vector(b)

    # Final ripple row merges the remaining sums and carries into the
    # upper product half: one half adder plus n - 2 full adders.
    first = sums[1] if n > 2 else top
    s, carry = half_adder(builder, first, carries[0])
    builder.free_many((first, carries[0]))
    product.append(s)
    for j in range(1, n - 1):
        operand = sums[j + 1] if j < n - 2 else top
        s, carry_next = full_adder(builder, operand, carries[j], carry)
        builder.free_many((operand, carries[j], carry))
        product.append(s)
        carry = carry_next
    product.append(carry)

    assert len(product) == 2 * n, f"product has {len(product)} bits, want {2 * n}"
    return BitVector(product)
