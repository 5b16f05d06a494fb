"""Text format for kernel tests (the "syz" format of Figure 4).

Programs serialize to one call per line::

    r0 = open(&(0x7f0000000000)='./file0', O_CREAT|O_RDWR, 0x1ff)
    read(r0, &(0x7f0000000040)="00"/8, 0x2a)

Conventions:

- integers, constants and length fields print as hex;
- flags print as ``A|B`` when the value is exactly a union of named
  flags, hex otherwise;
- data buffers print as ``"<hex bytes>"``, strings and filenames as
  single-quoted text with ``\\xNN`` escapes;
- pointers print as ``&(0xADDR)=<pointee>``, NULL pointers as ``0x0``;
- structs as ``{...}``, arrays as ``[...]``;
- resources as ``rN`` naming the producing call, NULL as
  ``0xffffffffffffffff``.

Parsing is type-directed: the target :class:`SyscallTable` supplies the
shape of every argument, so the grammar stays unambiguous.
"""

from __future__ import annotations

import string as _string

from repro.errors import ParseError, ProgramError, SpecError
from repro.syzlang.program import (
    ArrayValue,
    BufferValue,
    Call,
    ConstValue,
    IntValue,
    Program,
    PtrValue,
    ResourceValue,
    StructValue,
    Value,
)
from repro.syzlang.spec import SyscallTable
from repro.syzlang.types import (
    ArrayType,
    BufferKind,
    BufferType,
    ConstType,
    FlagsType,
    IntType,
    LenType,
    PtrType,
    ResourceType,
    StructType,
    Type,
    NULL_RESOURCE,
)

__all__ = ["serialize_program", "parse_program"]

_PRINTABLE = set(_string.ascii_letters + _string.digits + " ._-/:,+=@#%")


# --------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------


def serialize_program(program: Program) -> str:
    """Render ``program`` in the syz text format."""
    labels: dict[int, str] = {}
    next_label = 0
    for index, call in enumerate(program.calls):
        if call.spec.produces is not None:
            labels[index] = f"r{next_label}"
            next_label += 1
    lines = []
    for index, call in enumerate(program.calls):
        rendered_args = ", ".join(
            _serialize_value(arg, labels) for arg in call.args
        )
        line = f"{call.spec.full_name}({rendered_args})"
        if index in labels:
            line = f"{labels[index]} = {line}"
        lines.append(line)
    return "\n".join(lines)


def _serialize_value(value: Value, labels: dict[int, str]) -> str:
    if isinstance(value, ConstValue):
        return f"0x{value.value:x}"
    if isinstance(value, IntValue):
        ty = value.ty
        if isinstance(ty, FlagsType) and value.value:
            names = ty.names_for(value.value)
            covered = 0
            for name in names:
                covered |= ty.value_of(name)
            if names and covered == value.value:
                return "|".join(names)
        return f"0x{value.value:x}"
    if isinstance(value, BufferValue):
        if value.ty.buffer_kind is BufferKind.DATA:
            return f'"{value.data.hex()}"'
        return f"'{_escape_text(value.data)}'"
    if isinstance(value, PtrValue):
        if value.pointee is None:
            return "0x0"
        inner = _serialize_value(value.pointee, labels)
        return f"&(0x{value.address:x})={inner}"
    if isinstance(value, StructValue):
        inner = ", ".join(_serialize_value(v, labels) for v in value.fields)
        return "{" + inner + "}"
    if isinstance(value, ArrayValue):
        inner = ", ".join(_serialize_value(v, labels) for v in value.elems)
        return "[" + inner + "]"
    if isinstance(value, ResourceValue):
        if value.producer is None:
            return f"0x{NULL_RESOURCE:x}"
        label = labels.get(value.producer)
        if label is None:
            raise ProgramError(
                f"resource references call {value.producer}, which does not "
                "produce a resource"
            )
        return label
    raise ProgramError(f"cannot serialize value {value!r}")


def _escape_text(data: bytes) -> str:
    out = []
    for byte in data:
        char = chr(byte)
        if char in _PRINTABLE:
            out.append(char)
        else:
            out.append(f"\\x{byte:02x}")
    return "".join(out)


def _unescape_text(text: str) -> bytes:
    out = bytearray()
    index = 0
    while index < len(text):
        char = text[index]
        if char == "\\":
            if index + 3 >= len(text) or text[index + 1] != "x":
                raise ParseError(f"bad escape in string literal: {text!r}")
            try:
                out.append(int(text[index + 2 : index + 4], 16))
            except ValueError:
                raise ParseError(
                    f"bad escape in string literal: {text!r}"
                ) from None
            index += 4
        else:
            out.append(ord(char))
            index += 1
    return bytes(out)


# --------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------


class _Cursor:
    """A tiny scanning cursor over one line of syz text.

    Shared by the program parser here and the table parser in
    :mod:`repro.specgen.emit`.  Every scan loop is bounded by the line
    length: at the end of a line ``peek()`` returns ``""``, which ``in``
    treats as a member of any string, so an unbounded ``peek() in ...``
    loop would never stop.
    """

    def __init__(self, text: str, line: int) -> None:
        self.text = text
        self.pos = 0
        self.line = line

    def error(self, message: str) -> ParseError:
        return ParseError(f"{message} (at column {self.pos})", self.line)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_spaces(self) -> None:
        while self.peek() == " ":
            self.pos += 1

    def expect(self, char: str) -> None:
        self.skip_spaces()
        if self.peek() != char:
            raise self.error(f"expected {char!r}, found {self.peek()!r}")
        self.pos += 1

    def try_consume(self, char: str) -> bool:
        self.skip_spaces()
        if self.peek() == char:
            self.pos += 1
            return True
        return False

    def at_end(self) -> bool:
        self.skip_spaces()
        return self.pos >= len(self.text)

    def ident(self) -> str:
        self.skip_spaces()
        text, start, end = self.text, self.pos, len(self.text)
        pos = start
        while pos < end and (text[pos].isalnum() or text[pos] in "_$"):
            pos += 1
        if pos == start:
            raise self.error("expected an identifier")
        self.pos = pos
        return text[start:pos]

    def _hex_run(self, pos: int) -> int:
        """End of the run of hex digits starting at ``pos``."""
        text, end = self.text, len(self.text)
        while pos < end and text[pos] in _string.hexdigits:
            pos += 1
        return pos

    def number(self) -> int:
        self.skip_spaces()
        text, start = self.text, self.pos
        if text.startswith("0x", start):
            self.pos = self._hex_run(start + 2)
            if self.pos == start + 2:
                raise self.error("expected hex digits after 0x")
            return int(text[start + 2 : self.pos], 16)
        pos, end = start, len(text)
        while pos < end and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise self.error("expected a number")
        self.pos = pos
        try:
            return int(text[start:pos])
        except ValueError:
            # isdigit() also accepts digits int() rejects, such as "²".
            raise self.error(f"bad number {text[start:pos]!r}") from None

    def hex_bytes(self) -> bytes:
        self.skip_spaces()
        start = self.pos
        self.pos = self._hex_run(start)
        literal = self.text[start : self.pos]
        if not literal or len(literal) % 2:
            raise self.error("expected an even-length hex byte string")
        return bytes.fromhex(literal)

    def quoted(self, quote: str) -> str:
        self.expect(quote)
        text, start, end = self.text, self.pos, len(self.text)
        pos = start
        while pos < end and text[pos] != quote:
            if text[pos] == "\\":
                pos += 1
            pos += 1
        self.pos = pos
        if pos >= end:
            raise self.error("unterminated string literal")
        self.pos += 1
        return text[start:pos]


def _strip_comment(line: str) -> str:
    """``line`` up to its first ``#`` outside a quoted literal.

    Text buffers serialize ``#`` raw, so a ``#`` inside quotes is data.
    """
    if "#" not in line:
        return line
    quote = ""
    index = 0
    while index < len(line):
        char = line[index]
        if quote:
            if char == "\\":
                index += 1
            elif char == quote:
                quote = ""
        elif char in "'\"":
            quote = char
        elif char == "#":
            return line[:index]
        index += 1
    return line


def parse_program(text: str, table: SyscallTable) -> Program:
    """Parse a syz-format ``text`` against ``table``.

    Raises :class:`ParseError` for syntax errors and shape mismatches.
    """
    program = Program()
    labels: dict[str, int] = {}
    line_number = 0
    for raw_line in text.splitlines():
        line_number += 1
        line = _strip_comment(raw_line).strip()
        if not line:
            continue
        cursor = _Cursor(line, line_number)
        name = cursor.ident()
        cursor.skip_spaces()
        label: str | None = None
        if cursor.peek() == "=" and not name.startswith("0x"):
            cursor.expect("=")
            label = name
            name = cursor.ident()
        if name not in table:
            raise ParseError(f"unknown syscall {name!r}", line_number)
        spec = table.lookup(name)
        cursor.expect("(")
        args: list[Value] = []
        for arg_index, (_, arg_ty) in enumerate(spec.args):
            if arg_index > 0:
                cursor.expect(",")
            args.append(_parse_value(cursor, arg_ty, labels))
        cursor.expect(")")
        cursor.skip_spaces()
        if cursor.pos != len(cursor.text):
            raise cursor.error("trailing characters after call")
        call_index = len(program.calls)
        program.calls.append(Call(spec, args))
        if label is not None:
            if spec.produces is None:
                raise ParseError(
                    f"call {name!r} produces no resource to bind to "
                    f"{label!r}",
                    line_number,
                )
            labels[label] = call_index
    return program


def _parse_value(cursor: _Cursor, ty: Type, labels: dict[str, int]) -> Value:
    if isinstance(ty, ConstType):
        value = cursor.number()
        if value != ty.value:
            raise cursor.error(
                f"constant mismatch: expected 0x{ty.value:x}, got 0x{value:x}"
            )
        return ConstValue(ty)
    if isinstance(ty, FlagsType):
        return _parse_flags(cursor, ty)
    if isinstance(ty, (IntType, LenType)):
        return IntValue(ty, cursor.number())
    if isinstance(ty, BufferType):
        if ty.buffer_kind is BufferKind.DATA:
            literal = cursor.quoted('"')
            try:
                data = bytes.fromhex(literal)
            except ValueError as exc:
                raise cursor.error(f"bad hex buffer: {exc}") from exc
            return BufferValue(ty, data)
        literal = cursor.quoted("'")
        return BufferValue(ty, _unescape_text(literal))
    if isinstance(ty, PtrType):
        cursor.skip_spaces()
        if cursor.peek() == "&":
            cursor.expect("&")
            cursor.expect("(")
            address = cursor.number()
            cursor.expect(")")
            cursor.expect("=")
            pointee = _parse_value(cursor, ty.elem, labels)
            return PtrValue(ty, address, pointee)
        value = cursor.number()
        if value != 0:
            raise cursor.error("non-NULL pointer must use &(addr)=value")
        return PtrValue(ty, 0, None)
    if isinstance(ty, StructType):
        cursor.expect("{")
        fields: list[Value] = []
        for field_index, (_, field_ty) in enumerate(ty.fields):
            if field_index > 0:
                cursor.expect(",")
            fields.append(_parse_value(cursor, field_ty, labels))
        cursor.expect("}")
        return StructValue(ty, fields)
    if isinstance(ty, ArrayType):
        cursor.expect("[")
        elems: list[Value] = []
        if not cursor.try_consume("]"):
            while True:
                elems.append(_parse_value(cursor, ty.elem, labels))
                if cursor.try_consume("]"):
                    break
                cursor.expect(",")
        if not ty.min_len <= len(elems) <= ty.max_len:
            raise cursor.error(
                f"array length {len(elems)} outside "
                f"[{ty.min_len}, {ty.max_len}]"
            )
        return ArrayValue(ty, elems)
    if isinstance(ty, ResourceType):
        cursor.skip_spaces()
        if cursor.peek() == "r":
            label = cursor.ident()
            if label not in labels:
                raise cursor.error(f"undefined resource label {label!r}")
            return ResourceValue(ty, labels[label])
        value = cursor.number()
        if value != NULL_RESOURCE:
            raise cursor.error(
                "resource must be a label rN or the NULL resource"
            )
        return ResourceValue(ty, None)
    raise cursor.error(f"unsupported type {ty!r}")


def _parse_flags(cursor: _Cursor, ty: FlagsType) -> IntValue:
    cursor.skip_spaces()
    if cursor.peek().isdigit():
        return IntValue(ty, cursor.number())
    value = 0
    while True:
        name = cursor.ident()
        try:
            value |= ty.value_of(name)
        except SpecError as error:
            raise cursor.error(str(error)) from None
        if not cursor.try_consume("|"):
            break
    return IntValue(ty, value)
