"""Concrete test programs: values, calls, and argument paths.

A :class:`Program` is a short sequence of system-call invocations, each
carrying a tree of concrete argument values shaped by its
:class:`~repro.syzlang.spec.SyscallSpec`.  Programs support cloning,
validation, insertion/removal of calls with resource fix-up, and — most
importantly for the paper — enumeration of every *mutation site*: each
mutable leaf argument, however deeply nested, addressed by an
:class:`ArgPath`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ProgramError
from repro.syzlang.spec import SyscallSpec, SyscallTable
from repro.syzlang.types import (
    ArgKind,
    ArrayType,
    BufferType,
    ConstType,
    FlagsType,
    IntType,
    LenType,
    PtrType,
    ResourceType,
    StructType,
    Type,
)

__all__ = [
    "ArgPath",
    "ArrayValue",
    "BufferValue",
    "Call",
    "ConstValue",
    "IntValue",
    "Program",
    "PtrValue",
    "ResourceValue",
    "StructValue",
    "Value",
    "zero_value",
]

# Base of the synthetic test data area, mirroring syz tests' mmap region.
DATA_AREA_BASE = 0x7F0000000000


@dataclass(frozen=True)
class ArgPath:
    """Address of one sub-argument inside a program.

    ``call_index`` selects the call; ``elements`` descends through the
    value tree: the first element is the top-level argument index, then
    ``0`` steps through a pointer, a field index steps into a struct, and
    an element index steps into an array.
    """

    call_index: int
    elements: tuple[int, ...]

    def __str__(self) -> str:
        trail = ".".join(str(element) for element in self.elements)
        return f"call{self.call_index}:{trail}"


class Value:
    """Base class of all concrete argument values.

    Types are frozen and describe shape only, so a clone shares ``ty``
    (and calls share their ``SyscallSpec``) and copies just the value
    tree: editing the clone in place never touches the original.
    """

    ty: Type

    def clone(self) -> "Value":
        raise NotImplementedError


@dataclass
class IntValue(Value):
    """Integer value; also used for flags and length fields."""

    ty: Type  # IntType | FlagsType | LenType
    value: int = 0

    def clone(self) -> "IntValue":
        return IntValue(self.ty, self.value)


@dataclass
class ConstValue(Value):
    """Fixed constant pinned by the spec; never mutated."""

    ty: ConstType

    def clone(self) -> "ConstValue":
        return ConstValue(self.ty)

    @property
    def value(self) -> int:
        return self.ty.value


@dataclass
class BufferValue(Value):
    ty: BufferType
    data: bytes = b""

    def clone(self) -> "BufferValue":
        return BufferValue(self.ty, self.data)


@dataclass
class PtrValue(Value):
    """Pointer into the test data area; ``pointee`` is None for NULL."""

    ty: PtrType
    address: int = DATA_AREA_BASE
    pointee: "Value | None" = None

    def clone(self) -> "PtrValue":
        pointee = self.pointee
        return PtrValue(
            self.ty, self.address, None if pointee is None else pointee.clone()
        )


@dataclass
class StructValue(Value):
    ty: StructType
    fields: list[Value] = field(default_factory=list)

    def clone(self) -> "StructValue":
        return StructValue(self.ty, [child.clone() for child in self.fields])


@dataclass
class ArrayValue(Value):
    ty: ArrayType
    elems: list[Value] = field(default_factory=list)

    def clone(self) -> "ArrayValue":
        return ArrayValue(self.ty, [child.clone() for child in self.elems])


@dataclass
class ResourceValue(Value):
    """Reference to the resource produced by an earlier call.

    ``producer`` is the index of the producing call inside the program,
    or None for the NULL resource (Syzkaller's ``0xffff...ffff``).
    """

    ty: ResourceType
    producer: int | None = None

    def clone(self) -> "ResourceValue":
        return ResourceValue(self.ty, self.producer)


def zero_value(ty: Type) -> Value:
    """A minimal syntactically valid value of ``ty`` (all zeros/NULL)."""
    if isinstance(ty, ConstType):
        return ConstValue(ty)
    if isinstance(ty, (IntType, FlagsType, LenType)):
        return IntValue(ty, 0)
    if isinstance(ty, BufferType):
        return BufferValue(ty, b"\x00" * ty.min_len)
    if isinstance(ty, PtrType):
        return PtrValue(ty, DATA_AREA_BASE, zero_value(ty.elem))
    if isinstance(ty, StructType):
        return StructValue(ty, [zero_value(fty) for _, fty in ty.fields])
    if isinstance(ty, ArrayType):
        return ArrayValue(ty, [zero_value(ty.elem) for _ in range(ty.min_len)])
    if isinstance(ty, ResourceType):
        return ResourceValue(ty, None)
    raise ProgramError(f"cannot build a value of type {ty!r}")


def _walk_value(
    value: Value,
    elements: tuple[int, ...],
    out: list[tuple[tuple[int, ...], Value]],
) -> None:
    """Append ``(elements, value)`` for ``value`` and, in pre-order,
    every value below it."""
    out.append((elements, value))
    if isinstance(value, PtrValue):
        if value.pointee is not None:
            _walk_value(value.pointee, elements + (0,), out)
    elif isinstance(value, StructValue):
        for index, child in enumerate(value.fields):
            _walk_value(child, elements + (index,), out)
    elif isinstance(value, ArrayValue):
        for index, child in enumerate(value.elems):
            _walk_value(child, elements + (index,), out)


def _call_values(call: "Call") -> list[tuple[tuple[int, ...], Value]]:
    """``(path elements, value)`` for every value in ``call``, pre-order."""
    out: list[tuple[tuple[int, ...], Value]] = []
    for arg_index, arg in enumerate(call.args):
        _walk_value(arg, (arg_index,), out)
    return out


@dataclass
class Call:
    """One system-call invocation."""

    spec: SyscallSpec
    args: list[Value] = field(default_factory=list)

    def clone(self) -> "Call":
        return Call(self.spec, [arg.clone() for arg in self.args])

    def value_at(self, elements: tuple[int, ...]) -> Value | None:
        """The value ``elements`` addresses (ArgPath conventions), or
        None where the path leads nowhere: through a NULL pointer, past
        a leaf, or out of range."""
        args = self.args
        if not elements or not 0 <= elements[0] < len(args):
            return None
        value = args[elements[0]]
        for element in elements[1:]:
            if isinstance(value, PtrValue):
                if element != 0 or value.pointee is None:
                    return None
                value = value.pointee
                continue
            if isinstance(value, StructValue):
                children = value.fields
            elif isinstance(value, ArrayValue):
                children = value.elems
            else:
                return None
            if not 0 <= element < len(children):
                return None
            value = children[element]
        return value

    def validate(self) -> None:
        if len(self.args) != self.spec.arity:
            raise ProgramError(
                f"{self.spec.full_name} expects {self.spec.arity} args, "
                f"got {len(self.args)}"
            )
        for (arg_name, arg_ty), value in zip(self.spec.args, self.args):
            _validate_value(self.spec.full_name, arg_name, arg_ty, value)


def _validate_value(call: str, name: str, ty: Type, value: Value) -> None:
    expected: type[Value]
    if isinstance(ty, ConstType):
        expected = ConstValue
    elif isinstance(ty, (IntType, FlagsType, LenType)):
        expected = IntValue
    elif isinstance(ty, BufferType):
        expected = BufferValue
    elif isinstance(ty, PtrType):
        expected = PtrValue
    elif isinstance(ty, StructType):
        expected = StructValue
    elif isinstance(ty, ArrayType):
        expected = ArrayValue
    elif isinstance(ty, ResourceType):
        expected = ResourceValue
    else:
        raise ProgramError(f"{call}: unknown type for arg {name!r}")
    if not isinstance(value, expected):
        raise ProgramError(
            f"{call}: arg {name!r} should be {expected.__name__}, "
            f"got {type(value).__name__}"
        )
    if isinstance(value, PtrValue) and value.pointee is not None:
        _validate_value(call, name, ty.elem, value.pointee)  # type: ignore[union-attr]
    elif isinstance(value, StructValue):
        struct_ty = ty
        assert isinstance(struct_ty, StructType)
        if len(value.fields) != len(struct_ty.fields):
            raise ProgramError(
                f"{call}: struct {struct_ty.name!r} arity mismatch"
            )
        for (field_name, field_ty), child in zip(struct_ty.fields, value.fields):
            _validate_value(call, f"{name}.{field_name}", field_ty, child)
    elif isinstance(value, ArrayValue):
        array_ty = ty
        assert isinstance(array_ty, ArrayType)
        for index, child in enumerate(value.elems):
            _validate_value(call, f"{name}[{index}]", array_ty.elem, child)


@dataclass
class Program:
    """A sequence of calls — one kernel test.

    Programs are values: the corpus, the hubs, crash triage and the
    inference tier hold them without copying, so code edits in place
    only a program it has just built or cloned (as
    :meth:`~repro.fuzzer.engine.MutationEngine.mutate_test` does).
    """

    calls: list[Call] = field(default_factory=list)

    def clone(self) -> "Program":
        return Program([call.clone() for call in self.calls])

    def __len__(self) -> int:
        return len(self.calls)

    def validate(self, table: SyscallTable | None = None) -> None:
        """Check shapes and resource references; raise ProgramError."""
        for index, call in enumerate(self.calls):
            if table is not None and call.spec.full_name not in table:
                raise ProgramError(f"unknown syscall {call.spec.full_name!r}")
            call.validate()
            for path, value in self.walk_call(index):
                if isinstance(value, ResourceValue) and value.producer is not None:
                    self._check_resource_ref(index, path, value)

    def _check_resource_ref(
        self, call_index: int, path: ArgPath, value: ResourceValue
    ) -> None:
        producer = value.producer
        assert producer is not None
        if producer >= call_index or producer < 0:
            raise ProgramError(
                f"{path}: resource produced by call {producer} is not "
                f"available before call {call_index}"
            )
        produced = self.calls[producer].spec.produces
        if produced is None or not produced.compatible_with(value.ty.resource):
            raise ProgramError(
                f"{path}: call {producer} does not produce a "
                f"{value.ty.resource.name!r} resource"
            )

    # ----- traversal -----

    def walk_call(self, call_index: int) -> list[tuple[ArgPath, Value]]:
        """``(ArgPath, Value)`` for every value in one call, pre-order."""
        return [
            (ArgPath(call_index, elements), value)
            for elements, value in _call_values(self.calls[call_index])
        ]

    def walk(self) -> list[tuple[ArgPath, Value]]:
        """``(ArgPath, Value)`` across the whole program."""
        return [
            pair
            for call_index in range(len(self.calls))
            for pair in self.walk_call(call_index)
        ]

    def mutation_sites(self) -> list[ArgPath]:
        """Paths of every mutable leaf argument (the §2 search space)."""
        return [
            ArgPath(call_index, elements)
            for call_index, call in enumerate(self.calls)
            for elements, value in _call_values(call)
            if value.ty.is_mutable()
        ]

    def get(self, path: ArgPath) -> Value:
        """The value at ``path``; raises ProgramError on a bad path."""
        if not 0 <= path.call_index < len(self.calls):
            raise ProgramError(f"{path}: no such call")
        value = self.calls[path.call_index].value_at(path.elements)
        if value is None:
            raise ProgramError(f"{path}: dangling path")
        return value

    def set(self, path: ArgPath, new_value: Value) -> None:
        """Replace the value at ``path`` with ``new_value`` in place."""
        if len(path.elements) == 1:
            call = self.calls[path.call_index]
            if not 0 <= path.elements[0] < len(call.args):
                raise ProgramError(f"{path}: no such argument")
            call.args[path.elements[0]] = new_value
            return
        parent = self.get(
            ArgPath(path.call_index, path.elements[:-1])
        )
        last = path.elements[-1]
        if isinstance(parent, PtrValue) and last == 0:
            parent.pointee = new_value
        elif isinstance(parent, StructValue) and 0 <= last < len(parent.fields):
            parent.fields[last] = new_value
        elif isinstance(parent, ArrayValue) and 0 <= last < len(parent.elems):
            parent.elems[last] = new_value
        else:
            raise ProgramError(f"{path}: cannot replace child {last}")

    # ----- structural edits -----

    def insert_call(self, index: int, call: Call) -> None:
        """Insert ``call`` at ``index``, shifting resource references."""
        if not 0 <= index <= len(self.calls):
            raise ProgramError(f"bad insertion index {index}")
        self.calls.insert(index, call)
        for call_index, other in enumerate(self.calls):
            if call_index == index:
                continue
            for _, value in _call_values(other):
                if isinstance(value, ResourceValue) and value.producer is not None:
                    if value.producer >= index:
                        value.producer += 1

    def remove_call(self, index: int) -> None:
        """Remove the call at ``index``; dangling references become NULL."""
        if not 0 <= index < len(self.calls):
            raise ProgramError(f"bad removal index {index}")
        del self.calls[index]
        for call in self.calls:
            for _, value in _call_values(call):
                if isinstance(value, ResourceValue) and value.producer is not None:
                    if value.producer == index:
                        value.producer = None
                    elif value.producer > index:
                        value.producer -= 1

    def resolve_len_fields(self) -> None:
        """Recompute every LenType field from its sibling buffer/array.

        Called after generation so length fields start consistent; the
        mutator may later *deliberately* desynchronise them.
        """
        for path, value in self.walk():
            if not isinstance(value, IntValue) or not isinstance(value.ty, LenType):
                continue
            target = self._find_len_target(path, value.ty.path)
            if target is None:
                continue
            if isinstance(target, BufferValue):
                value.value = len(target.data)
            elif isinstance(target, ArrayValue):
                value.value = len(target.elems)
            elif isinstance(target, PtrValue) and target.pointee is not None:
                pointee = target.pointee
                if isinstance(pointee, BufferValue):
                    value.value = len(pointee.data)
                elif isinstance(pointee, ArrayValue):
                    value.value = len(pointee.elems)

    def _find_len_target(self, len_path: ArgPath, name: str) -> Value | None:
        """Locate the sibling named ``name`` for a length field."""
        call = self.calls[len_path.call_index]
        if len(len_path.elements) == 1:
            for (arg_name, _), arg_value in zip(call.spec.args, call.args):
                if arg_name == name:
                    return arg_value
            return None
        parent_path = ArgPath(len_path.call_index, len_path.elements[:-1])
        parent = self.get(parent_path)
        if isinstance(parent, StructValue):
            for (field_name, _), field_value in zip(
                parent.ty.fields, parent.fields
            ):
                if field_name == name:
                    return field_value
        return None
