"""Serialize syscall tables to syzlang-style text, and parse it back.

The format is line-oriented and self-describing — resource declarations
first (parents before children), then one syscall per line::

    # repro syzlang table v1
    resource res
    resource scsi : res
    open$scsi(a0 : ptr[in, int[8]], a1 : flags[BIT_40=0x40, 32]) -> scsi @scsi
    ioctl$SCSI_IOCTL_SEND_COMMAND(res0 : res[scsi], ...) @scsi

Every type constructor the repro type system knows is covered (not just
the subset inference produces), so the same emitter renders ground-truth
stdlib tables for diff artifacts.  The grammar is designed for lossless
structural round-trips: ``parse_table(serialize_table(t)) == t`` holds
for any table built from the :mod:`repro.syzlang.types` constructors,
because all frozen type dataclasses compare structurally and every
non-default field is emitted explicitly.
"""

from __future__ import annotations

from repro.errors import SpecError
from repro.syzlang.parser import _Cursor
from repro.syzlang.spec import SyscallSpec, SyscallTable
from repro.syzlang.types import (
    ArrayType,
    BufferKind,
    BufferType,
    ConstType,
    Direction,
    FlagsType,
    IntType,
    LenType,
    PtrType,
    ResourceKind,
    ResourceType,
    StructType,
    Type,
)

__all__ = ["TABLE_HEADER", "parse_table", "serialize_table"]

TABLE_HEADER = "# repro syzlang table v1"


# --------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------


def _collect_kinds(table: SyscallTable) -> list[ResourceKind]:
    """All resource kinds a table references, parents before children."""
    seen: dict[str, ResourceKind] = {}

    def add(kind: ResourceKind) -> None:
        if kind.parent is not None:
            add(kind.parent)
        if kind.name in seen:
            if seen[kind.name] != kind:
                raise SpecError(
                    f"conflicting resource kinds named {kind.name!r}"
                )
            return
        seen[kind.name] = kind

    def walk(ty: Type) -> None:
        if isinstance(ty, ResourceType):
            add(ty.resource)
        elif isinstance(ty, PtrType):
            walk(ty.elem)
        elif isinstance(ty, StructType):
            for _, field_ty in ty.fields:
                walk(field_ty)
        elif isinstance(ty, ArrayType):
            walk(ty.elem)

    for spec in table:
        if spec.produces is not None:
            add(spec.produces)
        for _, arg_ty in spec.args:
            walk(arg_ty)

    ordered: list[ResourceKind] = []
    emitted: set[str] = set()

    def emit(kind: ResourceKind) -> None:
        if kind.name in emitted:
            return
        if kind.parent is not None:
            emit(kind.parent)
        emitted.add(kind.name)
        ordered.append(kind)

    for name in sorted(seen):
        emit(seen[name])
    return ordered


def _hex(value: int) -> str:
    return f"0x{value:x}"


def _serialize_type(ty: Type) -> str:
    if isinstance(ty, IntType):
        parts = [str(ty.bits)]
        if ty.minimum != 0:
            parts.append(f"min={_hex(ty.minimum)}")
        if ty.maximum is not None:
            parts.append(f"max={_hex(ty.maximum)}")
        if ty.align != 1:
            parts.append(f"align={_hex(ty.align)}")
        if ty.interesting:
            parts.append(
                "interesting=" + "|".join(_hex(v) for v in ty.interesting)
            )
        return f"int[{', '.join(parts)}]"
    if isinstance(ty, FlagsType):
        flags = "|".join(f"{name}={_hex(value)}" for name, value in ty.flags)
        return f"flags[{flags}, {ty.bits}]"
    if isinstance(ty, ConstType):
        return f"const[{_hex(ty.value)}, {ty.bits}]"
    if isinstance(ty, LenType):
        return f"len[{ty.path}, {ty.bits}]"
    if isinstance(ty, BufferType):
        parts = [
            ty.buffer_kind.value,
            _hex(ty.min_len),
            _hex(ty.max_len),
        ]
        if ty.values:
            for value in ty.values:
                if not value:
                    raise SpecError("cannot serialize an empty buffer value")
            parts.append("values=" + "|".join(v.hex() for v in ty.values))
        return f"buffer[{', '.join(parts)}]"
    if isinstance(ty, PtrType):
        parts = [ty.direction.value]
        if ty.optional:
            parts.append("opt")
        parts.append(_serialize_type(ty.elem))
        return f"ptr[{', '.join(parts)}]"
    if isinstance(ty, StructType):
        fields = ", ".join(
            f"{name} : {_serialize_type(field_ty)}"
            for name, field_ty in ty.fields
        )
        return f"struct {ty.name} {{{fields}}}"
    if isinstance(ty, ArrayType):
        return (
            f"array[{_serialize_type(ty.elem)}, "
            f"{_hex(ty.min_len)}, {_hex(ty.max_len)}]"
        )
    if isinstance(ty, ResourceType):
        return f"res[{ty.resource.name}]"
    raise SpecError(f"cannot serialize type {ty!r}")


def serialize_table(table: SyscallTable, comment: str = "") -> str:
    """Render ``table`` as syzlang-style text (see module docstring)."""
    lines = [TABLE_HEADER]
    if comment:
        for raw in comment.splitlines():
            lines.append(f"# {raw}")
    for kind in _collect_kinds(table):
        if kind.parent is None:
            lines.append(f"resource {kind.name}")
        else:
            lines.append(f"resource {kind.name} : {kind.parent.name}")
    for spec in table:
        args = ", ".join(
            f"{name} : {_serialize_type(arg_ty)}" for name, arg_ty in spec.args
        )
        line = f"{spec.full_name}({args})"
        if spec.produces is not None:
            line += f" -> {spec.produces.name}"
        line += f" @{spec.subsystem}"
        lines.append(line)
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------


def _parse_type(cursor: _Cursor, kinds: dict[str, ResourceKind]) -> Type:
    head = cursor.ident()
    if head == "int":
        cursor.expect("[")
        bits = cursor.number()
        minimum, maximum, align = 0, None, 1
        interesting: tuple[int, ...] = ()
        while cursor.try_consume(","):
            key = cursor.ident()
            cursor.expect("=")
            if key == "min":
                minimum = cursor.number()
            elif key == "max":
                maximum = cursor.number()
            elif key == "align":
                align = cursor.number()
            elif key == "interesting":
                values = [cursor.number()]
                while cursor.try_consume("|"):
                    values.append(cursor.number())
                interesting = tuple(values)
            else:
                raise cursor.error(f"unknown int attribute {key!r}")
        cursor.expect("]")
        return IntType(
            bits=bits, minimum=minimum, maximum=maximum, align=align,
            interesting=interesting,
        )
    if head == "flags":
        cursor.expect("[")
        flags = []
        while True:
            name = cursor.ident()
            cursor.expect("=")
            flags.append((name, cursor.number()))
            if not cursor.try_consume("|"):
                break
        cursor.expect(",")
        bits = cursor.number()
        cursor.expect("]")
        return FlagsType(flags=tuple(flags), bits=bits)
    if head == "const":
        cursor.expect("[")
        value = cursor.number()
        cursor.expect(",")
        bits = cursor.number()
        cursor.expect("]")
        return ConstType(value, bits=bits)
    if head == "len":
        cursor.expect("[")
        path = cursor.ident()
        cursor.expect(",")
        bits = cursor.number()
        cursor.expect("]")
        return LenType(path=path, bits=bits)
    if head == "buffer":
        cursor.expect("[")
        kind_name = cursor.ident()
        try:
            buffer_kind = BufferKind(kind_name)
        except ValueError:
            raise cursor.error(f"unknown buffer kind {kind_name!r}") from None
        cursor.expect(",")
        min_len = cursor.number()
        cursor.expect(",")
        max_len = cursor.number()
        values: tuple[bytes, ...] = ()
        if cursor.try_consume(","):
            key = cursor.ident()
            if key != "values":
                raise cursor.error(f"unknown buffer attribute {key!r}")
            cursor.expect("=")
            collected = [cursor.hex_bytes()]
            while cursor.try_consume("|"):
                collected.append(cursor.hex_bytes())
            values = tuple(collected)
        cursor.expect("]")
        return BufferType(
            buffer_kind=buffer_kind, min_len=min_len, max_len=max_len,
            values=values,
        )
    if head == "ptr":
        cursor.expect("[")
        direction_name = cursor.ident()
        try:
            direction = Direction(direction_name)
        except ValueError:
            raise cursor.error(
                f"unknown pointer direction {direction_name!r}"
            ) from None
        cursor.expect(",")
        optional = False
        mark = cursor.pos
        probe = cursor.ident()
        if probe == "opt":
            optional = True
            cursor.expect(",")
        else:
            cursor.pos = mark
        elem = _parse_type(cursor, kinds)
        cursor.expect("]")
        return PtrType(elem=elem, direction=direction, optional=optional)
    if head == "struct":
        name = cursor.ident()
        cursor.expect("{")
        fields = []
        while True:
            field_name = cursor.ident()
            cursor.expect(":")
            fields.append((field_name, _parse_type(cursor, kinds)))
            if not cursor.try_consume(","):
                break
        cursor.expect("}")
        return StructType(name=name, fields=tuple(fields))
    if head == "array":
        cursor.expect("[")
        elem = _parse_type(cursor, kinds)
        cursor.expect(",")
        min_len = cursor.number()
        cursor.expect(",")
        max_len = cursor.number()
        cursor.expect("]")
        return ArrayType(elem=elem, min_len=min_len, max_len=max_len)
    if head == "res":
        cursor.expect("[")
        kind_name = cursor.ident()
        cursor.expect("]")
        kind = kinds.get(kind_name)
        if kind is None:
            raise cursor.error(f"undeclared resource kind {kind_name!r}")
        return ResourceType(kind)
    raise cursor.error(f"unknown type constructor {head!r}")


def parse_table(text: str) -> SyscallTable:
    """Parse syzlang-style table ``text`` back into a :class:`SyscallTable`."""
    kinds: dict[str, ResourceKind] = {}
    specs: list[SyscallSpec] = []
    line_number = 0
    for raw_line in text.splitlines():
        line_number += 1
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        cursor = _Cursor(line, line_number)
        if line.startswith("resource "):
            cursor.pos = len("resource ")
            name = cursor.ident()
            parent: ResourceKind | None = None
            if cursor.try_consume(":"):
                parent_name = cursor.ident()
                parent = kinds.get(parent_name)
                if parent is None:
                    raise cursor.error(
                        f"parent resource {parent_name!r} not yet declared"
                    )
            if name in kinds:
                raise cursor.error(f"duplicate resource {name!r}")
            kinds[name] = ResourceKind(name, parent=parent)
            if not cursor.at_end():
                raise cursor.error("trailing characters after resource")
            continue
        full_name = cursor.ident()
        cursor.expect("(")
        args: list[tuple[str, Type]] = []
        if not cursor.try_consume(")"):
            while True:
                arg_name = cursor.ident()
                cursor.expect(":")
                args.append((arg_name, _parse_type(cursor, kinds)))
                if cursor.try_consume(")"):
                    break
                cursor.expect(",")
        produces: ResourceKind | None = None
        cursor.skip_spaces()
        if cursor.peek() == "-":
            cursor.expect("-")
            cursor.expect(">")
            kind_name = cursor.ident()
            produces = kinds.get(kind_name)
            if produces is None:
                raise cursor.error(
                    f"undeclared produced resource {kind_name!r}"
                )
        cursor.expect("@")
        subsystem = cursor.ident()
        if not cursor.at_end():
            raise cursor.error("trailing characters after syscall")
        name, variant = (
            full_name.split("$", 1) if "$" in full_name else (full_name, "")
        )
        specs.append(
            SyscallSpec(
                name=name,
                args=tuple(args),
                variant=variant,
                produces=produces,
                subsystem=subsystem,
            )
        )
    return SyscallTable(specs)
