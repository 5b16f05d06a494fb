"""Branch conditions of the synthetic kernel.

A condition block's predicate is evaluated against the scalar view of the
current system call's arguments and the live :class:`KernelState`.
Each condition also renders itself as assembly tokens; for argument
conditions those tokens include the argument's *slot token*, reproducing
the compiled-kernel property that a data-dependent branch textually
references the memory offset of the value it tests (see
:mod:`repro.syzlang.slots`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Protocol

from repro.syzlang.program import (
    BufferValue,
    ConstValue,
    IntValue,
    PtrValue,
    ResourceValue,
    Value,
)
from repro.syzlang.slots import slot_token

__all__ = [
    "CondOp", "ArgCondition", "ScalarArgs", "StateCondition", "imm_token",
]


class CondOp(enum.Enum):
    """Comparison operators on a scalar view of an argument."""

    EQ = "eq"
    NE = "ne"
    LT = "lt"
    GT = "gt"
    MASK_SET = "mask_set"  # value & operand == operand
    MASK_CLEAR = "mask_clear"  # value & operand == 0


_IMM_BUCKETS = (0, 1, 2, 4, 8, 16, 64, 256, 1024, 4096, 65536)


def imm_token(operand: int) -> str:
    """Bucket an immediate into a small token vocabulary.

    Real disassembly has unbounded immediates; bucketing keeps the
    assembly vocabulary compact while preserving magnitude information.
    """
    for bucket in _IMM_BUCKETS:
        if operand <= bucket:
            return f"imm_{bucket:x}"
    return "imm_big"


def scalar_view(value: Value | None) -> int:
    """Reduce an argument value to the integer the kernel branches on.

    Integers are themselves; buffers contribute their length; NULL
    pointers are 0; resources contribute their runtime handle validity
    (the executor's argument view resolves them from producer results).
    """
    if value is None:
        return 0
    if isinstance(value, (IntValue, ConstValue)):
        return value.value
    if isinstance(value, BufferValue):
        return len(value.data)
    if isinstance(value, PtrValue):
        return 0 if value.pointee is None else value.address
    if isinstance(value, ResourceValue):
        # The executor substitutes resolved handles; a raw ResourceValue
        # reaching here means "unresolved", treated as invalid.
        return 0
    return 0


class ScalarArgs(Protocol):
    """The arguments of one call as branch conditions read them:
    ``get(path, default)`` is the :func:`scalar_view` of the value at
    ``path``, or ``default`` where the path leads nowhere."""

    def get(self, path: tuple[int, ...], default: int = 0) -> int: ...


@dataclass(frozen=True)
class ArgCondition:
    """A branch on one (sub-)argument of the current call.

    ``path_elements`` addresses the argument inside the call (the same
    convention as :class:`~repro.syzlang.program.ArgPath` minus the call
    index); ``syscall`` is the spec full name, needed for slot tokens.
    """

    syscall: str
    path_elements: tuple[int, ...]
    op: CondOp
    operand: int

    def evaluate(self, args: ScalarArgs, state) -> bool:
        value = args.get(self.path_elements, 0)
        if self.op is CondOp.EQ:
            return value == self.operand
        if self.op is CondOp.NE:
            return value != self.operand
        if self.op is CondOp.LT:
            return value < self.operand
        if self.op is CondOp.GT:
            return value > self.operand
        if self.op is CondOp.MASK_SET:
            return (value & self.operand) == self.operand
        if self.op is CondOp.MASK_CLEAR:
            return (value & self.operand) == 0
        raise AssertionError(f"unhandled op {self.op}")

    def asm_tokens(self) -> tuple[str, ...]:
        slot = slot_token(self.syscall, self.path_elements)
        imm = imm_token(self.operand)
        if self.op in (CondOp.MASK_SET, CondOp.MASK_CLEAR):
            return ("mov", "r10", slot, "test", "r10", imm, "jnz")
        jump = {
            CondOp.EQ: "je",
            CondOp.NE: "jne",
            CondOp.LT: "jb",
            CondOp.GT: "ja",
        }[self.op]
        return ("mov", "r10", slot, "cmp", "r10", imm, jump)


@dataclass(frozen=True)
class StateCondition:
    """A branch on kernel state mutated by earlier calls.

    ``key`` names a flag in :attr:`KernelState.flags`; the branch is taken
    when the flag's value equals ``operand``.  These branches are *not*
    steerable by argument mutation of the current call — the model must
    learn to treat their alternative paths differently.
    """

    key: str
    operand: int = 1

    def evaluate(self, args: ScalarArgs, state) -> bool:
        return state.flags.get(self.key, 0) == self.operand

    def asm_tokens(self) -> tuple[str, ...]:
        return ("mov", "r11", f"state_{self.key}", "test", "r11", "r11", "jnz")
