"""Random generation of argument values and whole test programs.

The generator plays two roles in the reproduction:

- it builds the *seed corpora* that stand in for the Syzbot test corpus
  the paper samples 1M base tests from (§5.1), and
- it supplies fresh values to the mutation instantiator
  (:mod:`repro.fuzzer.mutations`).

Generation is resource-aware: a call that consumes an ``fd`` is preceded
by a producing call with high probability, mirroring how Syzkaller biases
generation toward semantically valid programs.
"""

from __future__ import annotations

import numpy as np

from repro.rng import choice_weighted
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
    DATA_AREA_BASE,
)
from repro.syzlang.spec import SyscallSpec, SyscallTable
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
)

__all__ = ["ProgramGenerator"]

_FILENAMES = (b"./file0", b"./file1", b"./file2", b"./dir0/file0")
_STRINGS = (b"", b"db", b"hello", b"\x00\x00", b"AAAA")


# Call-count range of a random program (before prepended producers).
MIN_CALLS = 3
MAX_CALLS = 8
# Probability that a resource consumer is wired to a live producer
# instead of NULL.
WIRE_RESOURCE_PROB = 0.9
# Probability a nullable pointer is generated NULL.
NULL_PTR_PROB = 0.05


class ProgramGenerator:
    """Generates random, valid programs over a syscall table."""

    def __init__(
        self,
        table: SyscallTable,
        rng: np.random.Generator,
    ):
        self.table = table
        self.rng = rng
        self._next_offset = 0

    # ----- values -----

    def random_value(self, ty: Type, producers: dict[str, list[int]]) -> Value:
        """A random value of ``ty``.

        ``producers`` maps resource-kind names to indices of calls already
        in the program that produce them.
        """
        if isinstance(ty, ConstType):
            return ConstValue(ty)
        if isinstance(ty, FlagsType):
            return IntValue(ty, self._random_flags(ty))
        if isinstance(ty, LenType):
            # Filled in by Program.resolve_len_fields afterwards.
            return IntValue(ty, 0)
        if isinstance(ty, IntType):
            return IntValue(ty, self._random_int(ty))
        if isinstance(ty, BufferType):
            return BufferValue(ty, self._random_buffer(ty))
        if isinstance(ty, PtrType):
            if ty.optional and self.rng.random() < NULL_PTR_PROB:
                return PtrValue(ty, 0, None)
            pointee = self.random_value(ty.elem, producers)
            return PtrValue(ty, self._fresh_address(), pointee)
        if isinstance(ty, StructType):
            fields = [
                self.random_value(field_ty, producers)
                for _, field_ty in ty.fields
            ]
            return StructValue(ty, fields)
        if isinstance(ty, ArrayType):
            length = int(self.rng.integers(ty.min_len, ty.max_len + 1))
            elems = [
                self.random_value(ty.elem, producers) for _ in range(length)
            ]
            return ArrayValue(ty, elems)
        if isinstance(ty, ResourceType):
            return self._random_resource(ty, producers)
        raise TypeError(f"cannot generate a value of type {ty!r}")

    def _random_int(self, ty: IntType) -> int:
        if ty.interesting and self.rng.random() < 0.25:
            return int(self.rng.choice(ty.interesting))
        upper = ty.upper_bound
        if upper - ty.minimum > 1 << 32:
            # Wide ranges: sample magnitudes, not uniform 64-bit noise.
            magnitude = int(self.rng.integers(0, ty.bits))
            value = int(self.rng.integers(0, 2)) + (1 << magnitude) - 1
            value = min(max(value, ty.minimum), upper)
        else:
            value = int(self.rng.integers(ty.minimum, upper + 1))
        if ty.align > 1:
            value -= value % ty.align
            value = max(value, ty.minimum)
        return value

    def _random_flags(self, ty: FlagsType) -> int:
        value = 0
        for _, bit in ty.flags:
            if self.rng.random() < 0.3:
                value |= bit
        return value

    def _random_buffer(self, ty: BufferType) -> bytes:
        if ty.values and self.rng.random() < 0.8:
            return bytes(ty.values[int(self.rng.integers(len(ty.values)))])
        if ty.buffer_kind is BufferKind.FILENAME:
            return bytes(_FILENAMES[int(self.rng.integers(len(_FILENAMES)))])
        if ty.buffer_kind is BufferKind.STRING:
            return bytes(_STRINGS[int(self.rng.integers(len(_STRINGS)))])
        length = int(
            self.rng.integers(ty.min_len, min(ty.max_len, 16) + 1)
        )
        return bytes(self.rng.integers(0, 256, size=length, dtype=np.uint8))

    def _random_resource(
        self, ty: ResourceType, producers: dict[str, list[int]]
    ) -> ResourceValue:
        candidates: list[int] = []
        for kind_name, indices in producers.items():
            if kind_name == ty.resource.name:
                candidates.extend(indices)
        if candidates and self.rng.random() < WIRE_RESOURCE_PROB:
            return ResourceValue(ty, int(self.rng.choice(candidates)))
        return ResourceValue(ty, None)

    def _fresh_address(self) -> int:
        address = DATA_AREA_BASE + self._next_offset
        self._next_offset = (self._next_offset + 64) % 0x10000
        return address

    # ----- calls and programs -----

    def random_call(
        self, spec: SyscallSpec, producers: dict[str, list[int]]
    ) -> Call:
        args = [
            self.random_value(arg_ty, producers) for _, arg_ty in spec.args
        ]
        return Call(spec, args)

    def producers_in(self, program: Program) -> dict[str, list[int]]:
        """Resource-kind name -> indices of the calls in ``program``
        producing it (a child kind's producers count for its parents)."""
        producers: dict[str, list[int]] = {}
        for index, call in enumerate(program.calls):
            produced = call.spec.produces
            if produced is None:
                continue
            kind = produced
            while kind is not None:
                producers.setdefault(kind.name, []).append(index)
                kind = kind.parent
        return producers

    def random_program(self, length: int | None = None) -> Program:
        """Generate one valid random program."""
        if length is None:
            length = int(self.rng.integers(MIN_CALLS, MAX_CALLS + 1))
        program = Program()
        for _ in range(length):
            producers = self.producers_in(program)
            spec = self._pick_spec(producers)
            # If the spec consumes a resource we cannot satisfy, prepend a
            # producer first (resource-aware generation).
            for needed in spec.consumes():
                if needed.name not in producers:
                    producer_specs = self.table.producers_of(needed)
                    if producer_specs:
                        producer = producer_specs[
                            int(self.rng.integers(len(producer_specs)))
                        ]
                        program.calls.append(
                            self.random_call(producer, producers)
                        )
                        producers = self.producers_in(program)
            program.calls.append(self.random_call(spec, producers))
        program.resolve_len_fields()
        return program

    def _pick_spec(self, producers: dict[str, list[int]]) -> SyscallSpec:
        weights = []
        for spec in self.table.specs:
            weight = 1.0
            consumed = spec.consumes()
            if consumed and all(k.name in producers for k in consumed):
                # Prefer calls whose resources are already available.
                weight = 3.0
            weights.append(weight)
        return choice_weighted(self.rng, list(self.table.specs), weights)

    def seed_corpus(self, size: int) -> list[Program]:
        """Generate a corpus of ``size`` random programs."""
        return [self.random_program() for _ in range(size)]
