"""PIMulator-style trace parsing: text lines to a typed instruction IR.

The HBM-PIMulator trace dialect (SNIPPETS.md snippet 3) drives a PIM
stack with lines like::

    # GEMV inner loop
    W MEM 0 0 16
    PIM MAC 0x000000400 0x004000400 0x000004400
    R GPR 3
    PIM EXIT

Physical addresses decompose as ``[rank][channel][bankgroup][bank][row]
[column][offset]`` (MSB first; see :class:`AddressFormat`). The parser
is **streaming** (one line at a time, constant memory), tolerant of
blank lines and ``#``/``//`` comments, and turns every line into a
frozen :class:`TraceInstr`; malformed lines raise
:class:`TraceParseError` carrying the 1-based line number. Files are
read as UTF-8, and only ``\\n``, ``\\r\\n`` and ``\\r`` end a line, so
the number is the one an editor shows.
"""

from __future__ import annotations

import enum
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Tuple, Union


class TraceParseError(ValueError):
    """A malformed trace line, located by 1-based ``line`` number."""

    def __init__(self, line: int, text: str, reason: str) -> None:
        self.line = line
        self.text = text
        self.reason = reason
        super().__init__(f"trace line {line}: {reason} (in {text!r})")


@dataclass(frozen=True)
class AddressFormat:
    """Bit widths of the decomposed physical-address fields (MSB first).

    Defaults follow the HBM-PIMulator layout: ``[1 Rank][6 Channel]
    [2 Bankgroup][2 Bank][14 Row][5 Column][5 Offset]``. The
    ``(channel, bankgroup, bank, row)`` fields form the **flat index**
    space address mapping permutes onto lanes; column/offset address
    bits *within* a row buffer and rank selects the PIM region, so
    neither participates in lane placement.
    """

    rank_bits: int = 1
    channel_bits: int = 6
    bankgroup_bits: int = 2
    bank_bits: int = 2
    row_bits: int = 14
    column_bits: int = 5
    offset_bits: int = 5

    def __post_init__(self) -> None:
        for field_name in (
            "rank_bits", "channel_bits", "bankgroup_bits", "bank_bits",
            "row_bits", "column_bits", "offset_bits",
        ):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be non-negative")
        if self.index_bits == 0:
            raise ValueError(
                "at least one of channel/bankgroup/bank/row must have bits"
            )

    @property
    def total_bits(self) -> int:
        """Width of a full physical address."""
        return (
            self.rank_bits + self.channel_bits + self.bankgroup_bits
            + self.bank_bits + self.row_bits + self.column_bits
            + self.offset_bits
        )

    @property
    def index_bits(self) -> int:
        """Width of the flat (channel, bankgroup, bank, row) index."""
        return (
            self.channel_bits + self.bankgroup_bits + self.bank_bits
            + self.row_bits
        )

    def decompose(self, address: int) -> "PhysicalAddress":
        """Split a composed physical address into its fields."""
        if not 0 <= address < (1 << self.total_bits):
            raise ValueError(
                f"address {address:#x} outside the {self.total_bits}-bit "
                f"format"
            )
        fields = []
        shift = self.total_bits
        for width in (
            self.rank_bits, self.channel_bits, self.bankgroup_bits,
            self.bank_bits, self.row_bits, self.column_bits,
            self.offset_bits,
        ):
            shift -= width
            fields.append((address >> shift) & ((1 << width) - 1))
        return PhysicalAddress(*fields)

    def compose(
        self,
        rank: int = 0,
        channel: int = 0,
        bankgroup: int = 0,
        bank: int = 0,
        row: int = 0,
        column: int = 0,
        offset: int = 0,
    ) -> int:
        """Pack field values into one physical address (bounds-checked)."""
        address = 0
        for value, width, label in (
            (rank, self.rank_bits, "rank"),
            (channel, self.channel_bits, "channel"),
            (bankgroup, self.bankgroup_bits, "bankgroup"),
            (bank, self.bank_bits, "bank"),
            (row, self.row_bits, "row"),
            (column, self.column_bits, "column"),
            (offset, self.offset_bits, "offset"),
        ):
            if not 0 <= value < (1 << width) and not (width == 0 and value == 0):
                raise ValueError(
                    f"{label} value {value} does not fit {width} bits"
                )
            address = (address << width) | value
        return address

    def flat_index(self, address: int) -> int:
        """The (channel, bankgroup, bank, row) fields as one integer.

        This is the lane-placement key: addresses sharing it land on the
        same row region regardless of column/offset, and rank is a
        region selector, not a placement bit.
        """
        pa = self.decompose(address)
        index = pa.channel
        index = (index << self.bankgroup_bits) | pa.bankgroup
        index = (index << self.bank_bits) | pa.bank
        index = (index << self.row_bits) | pa.row
        return index


@dataclass(frozen=True)
class PhysicalAddress:
    """A decomposed physical address (field order matches the format)."""

    rank: int
    channel: int
    bankgroup: int
    bank: int
    row: int
    column: int
    offset: int


#: The HBM-PIMulator default layout.
PIMULATOR_FORMAT = AddressFormat()


class TraceOp(enum.Enum):
    """Instruction kinds the frontend understands."""

    PIM_ADD = "PIM ADD"
    PIM_MUL = "PIM MUL"
    PIM_MAC = "PIM MAC"
    PIM_MAD = "PIM MAD"
    PIM_MOV = "PIM MOV"
    PIM_NOP = "PIM NOP"
    PIM_EXIT = "PIM EXIT"
    MEM_WRITE = "W MEM"
    MEM_READ = "R MEM"
    GPR_WRITE = "W GPR"
    GPR_READ = "R GPR"
    CFR_WRITE = "W CFR"
    CFR_READ = "R CFR"


#: Ops that compute on the array (and therefore wear it).
COMPUTE_OPS = frozenset({
    TraceOp.PIM_ADD, TraceOp.PIM_MUL, TraceOp.PIM_MAC, TraceOp.PIM_MAD,
    TraceOp.PIM_MOV,
})

#: Ops that move data between host and array rows.
MEMORY_OPS = frozenset({TraceOp.MEM_WRITE, TraceOp.MEM_READ})

#: Ops that only touch controller registers (no array wear).
REGISTER_OPS = frozenset({
    TraceOp.GPR_WRITE, TraceOp.GPR_READ, TraceOp.CFR_WRITE,
    TraceOp.CFR_READ,
})


@dataclass(frozen=True)
class TraceInstr:
    """One parsed trace instruction.

    Attributes:
        op: The instruction kind.
        operands: Composed physical addresses for compute/memory ops
            (``dst`` first), the register index for register ops, empty
            for NOP/EXIT.
        line: 1-based source line number (for diagnostics).
    """

    op: TraceOp
    operands: Tuple[int, ...] = ()
    line: int = 0

    @property
    def dst(self) -> int:
        """Destination address (compute/memory ops)."""
        return self.operands[0]

    @property
    def sources(self) -> Tuple[int, ...]:
        """Source addresses (compute ops)."""
        return self.operands[1:]


_PIM_ARITY = {
    "ADD": (TraceOp.PIM_ADD, 3, 3),
    "MUL": (TraceOp.PIM_MUL, 3, 3),
    "MAC": (TraceOp.PIM_MAC, 3, 3),
    "MAD": (TraceOp.PIM_MAD, 3, 4),
    "MOV": (TraceOp.PIM_MOV, 2, 2),
    "NOP": (TraceOp.PIM_NOP, 0, 0),
    "EXIT": (TraceOp.PIM_EXIT, 0, 0),
}

_REGISTER_OPS = {
    ("W", "GPR"): TraceOp.GPR_WRITE,
    ("R", "GPR"): TraceOp.GPR_READ,
    ("W", "CFR"): TraceOp.CFR_WRITE,
    ("R", "CFR"): TraceOp.CFR_READ,
}


def _parse_int(token: str, line: int, text: str, what: str) -> int:
    token = token.strip("[]")
    try:
        value = int(token, 0)
    except ValueError:
        raise TraceParseError(line, text, f"bad {what} {token!r}") from None
    if value < 0:
        raise TraceParseError(line, text, f"negative {what} {token!r}")
    return value


def _address(
    token: str, line: int, text: str, address_format: AddressFormat
) -> int:
    """Parse a composed physical address and bounds-check it."""
    address = _parse_int(token, line, text, "address")
    try:
        address_format.decompose(address)
    except ValueError as exc:
        raise TraceParseError(line, text, str(exc)) from None
    return address


def split_lines(text: str) -> List[str]:
    """Split trace text at ``\\r\\n``, ``\\r`` or ``\\n`` and nowhere else.

    These are the line ends a file read in text mode knows, so line
    numbers match an editor's. ``str.splitlines`` also breaks at form
    feeds, ``\\x1c``-``\\x1e``, ``\\x85`` and ``\\u2028``, which would shift
    every later line number.
    """
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _read_lines(path: Union[str, Path]) -> List[str]:
    """The lines of a UTF-8 trace file (see :func:`split_lines`)."""
    data = Path(path).read_bytes()
    try:
        return split_lines(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = len(split_lines(data[: exc.start].decode("utf-8")))
        text = split_lines(data.decode("utf-8", "replace"))[line - 1]
        raise TraceParseError(line, text, "not UTF-8 text") from None


def _strip_comment(line: str) -> str:
    for marker in ("#", "//"):
        position = line.find(marker)
        if position >= 0:
            line = line[:position]
    return line.strip()


def iter_trace(
    source: Union[str, Path, io.TextIOBase, Iterable[str]],
    address_format: AddressFormat = PIMULATOR_FORMAT,
    *,
    strict: bool = True,
) -> Iterator[TraceInstr]:
    """Stream :class:`TraceInstr` records from a trace source.

    Args:
        source: A filesystem path, an open text stream, or any iterable
            of lines. (A multi-line string is treated as trace *text*,
            a single-line string as a path.)
        address_format: Bounds-checks every physical address.
        strict: Raise on lines from unsupported dialects (e.g. ``AiM``
            or ``PIM JUMP``); when false they are skipped.

    Yields:
        One instruction per meaningful line; parsing stops at
        ``PIM EXIT`` (the EXIT itself is yielded).

    Raises:
        TraceParseError: for malformed or (in strict mode) unsupported
            lines, carrying the 1-based line number.
    """
    if isinstance(source, Path):
        lines: Iterable[str] = _read_lines(source)
    elif isinstance(source, str):
        lines = (
            split_lines(source) if "\n" in source or "\r" in source
            else _read_lines(source)
        )
    else:
        lines = source
    for number, raw in enumerate(lines, start=1):
        text = _strip_comment(raw)
        if not text:
            continue
        tokens = text.split()
        head = tokens[0].upper()
        if head == "PIM":
            if len(tokens) < 2:
                raise TraceParseError(number, raw, "PIM without an opcode")
            opcode = tokens[1].upper()
            spec = _PIM_ARITY.get(opcode)
            if spec is None:
                if strict:
                    raise TraceParseError(
                        number, raw, f"unsupported PIM opcode {opcode!r}"
                    )
                continue
            op, least, most = spec
            addresses = tokens[2:]
            if not least <= len(addresses) <= most:
                expected = (
                    str(least) if least == most else f"{least}-{most}"
                )
                raise TraceParseError(
                    number, raw,
                    f"PIM {opcode} expects {expected} address(es), "
                    f"got {len(addresses)}",
                )
            operands = tuple(
                _address(token, number, raw, address_format)
                for token in addresses
            )
            yield TraceInstr(op, operands, number)
            if op is TraceOp.PIM_EXIT:
                return
        elif head in ("W", "R") and len(tokens) >= 2:
            kind = tokens[1].upper()
            if kind == "MEM":
                if len(tokens) == 3:
                    address = _address(tokens[2], number, raw, address_format)
                elif len(tokens) == 5:
                    channel, bank, row = (
                        _parse_int(token, number, raw, field)
                        for token, field in zip(
                            tokens[2:], ("channel", "bank", "row")
                        )
                    )
                    try:
                        address = address_format.compose(
                            channel=channel, bank=bank, row=row
                        )
                    except ValueError as exc:
                        raise TraceParseError(number, raw, str(exc)) from None
                else:
                    raise TraceParseError(
                        number, raw,
                        "MEM expects 'W/R MEM <address>' or "
                        "'W/R MEM <ch> <bank> <row>'",
                    )
                op = (
                    TraceOp.MEM_WRITE if head == "W" else TraceOp.MEM_READ
                )
                yield TraceInstr(op, (address,), number)
            elif kind in ("GPR", "CFR"):
                if len(tokens) < 3:
                    raise TraceParseError(
                        number, raw, f"{kind} access without a register index"
                    )
                index = _parse_int(tokens[2], number, raw, "register index")
                yield TraceInstr(
                    _REGISTER_OPS[(head, kind)], (index,), number
                )
            else:
                if strict:
                    raise TraceParseError(
                        number, raw, f"unsupported access target {kind!r}"
                    )
        elif head == "SB" and len(tokens) >= 3:
            # 'SB W [PA]' / 'SB R [PA]': single-bank accesses are plain
            # memory traffic at a composed address.
            direction = tokens[1].upper()
            if direction not in ("W", "R"):
                raise TraceParseError(
                    number, raw, f"SB expects W or R, got {tokens[1]!r}"
                )
            address = _address(tokens[2], number, raw, address_format)
            op = TraceOp.MEM_WRITE if direction == "W" else TraceOp.MEM_READ
            yield TraceInstr(op, (address,), number)
        elif strict:
            raise TraceParseError(
                number, raw, f"unsupported trace dialect line ({head!r})"
            )


def parse_trace(
    source: Union[str, Path, io.TextIOBase, Iterable[str]],
    address_format: AddressFormat = PIMULATOR_FORMAT,
    *,
    strict: bool = True,
) -> Tuple[TraceInstr, ...]:
    """Parse a whole trace eagerly (see :func:`iter_trace`)."""
    return tuple(iter_trace(source, address_format, strict=strict))
