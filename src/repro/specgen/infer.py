"""Static spec inference: recover syzlang from the kernel's CFGs.

This is the repro-scale analogue of KernelGPT / syzdescriptor: given
*only* a built kernel (handler CFGs, branch conditions, state effects —
never the ground-truth :class:`~repro.syzlang.spec.SyscallTable` the
builder consumed), reconstruct a table good enough to fuzz with.

What the CFG gives away, and how we read it:

- **Arity and shapes.**  Every :class:`ArgCondition` embeds the flattened
  path of the slot it tests (the compiled-kernel property that a branch
  textually references the offset it loads).  The union of observed
  paths per handler is a path trie; interior nodes become structs,
  top-level compound args become pointers (the calling convention for
  compound arguments), leaves become scalars.
- **Scalar domains.**  EQ/NE/LT/GT operands are the constants the kernel
  actually compares against — they become ``IntType.interesting`` and
  pin the inferred width.  MASK_SET/MASK_CLEAR operands are flag bits —
  the leaf becomes a :class:`FlagsType` whose domain is exactly the
  branched-on bits.
- **Resources.**  Handlers guard resource args with a dedicated
  ``GT 0`` condition in an ``:fdget`` block before any other branch;
  those top-level paths become :class:`ResourceType` args.  Producers
  are recovered lexically (``open``/``socket``/``create``/... — the
  KernelGPT-style naming prior), and :class:`StateCondition` def-use
  chains (``subsystem:producer:done`` keys resolved through the PR-5
  dependency oracle) corroborate which subsystems actually share
  state, yielding one inferred resource kind per subsystem that has
  both a producer and a guarded consumer, all parented on a generic
  kind so cross-subsystem consumers still wire.

What is *fundamentally* ambiguous (scored by :mod:`repro.specgen.diff`
and discussed in DESIGN.md): buffers vs. opaque pointers (conditions
only ever see a buffer's length), length fields vs. plain ints, const
args (never branched on, hence invisible), and the exact resource
taxonomy beyond subsystem granularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analyze.deps import DependencyOracle
from repro.kernel.build import Kernel
from repro.kernel.conditions import ArgCondition, CondOp, StateCondition
from repro.syzlang.spec import SyscallSpec, SyscallTable
from repro.syzlang.types import (
    FlagsType,
    IntType,
    PtrType,
    ResourceKind,
    ResourceType,
    StructType,
    Type,
)

__all__ = [
    "GENERIC_RESOURCE",
    "InferenceReport",
    "PRODUCER_LEXEMES",
    "infer_specs",
    "infer_table",
]

# The root of the inferred resource hierarchy; plays the role stdlib's
# ``fd`` plays in the ground truth.
GENERIC_RESOURCE = ResourceKind("res")

# Lexical producer prior: base names containing one of these lexemes are
# assumed to return a handle (KernelGPT's "creation function" heuristic).
PRODUCER_LEXEMES = ("open", "socket", "dup", "pipe", "create", "setup", "accept")

_MAX_INTERESTING = 16


@dataclass
class InferenceReport:
    """Aggregate inference-quality numbers for one kernel.

    ``state_edges`` are (producer_syscall, consumer_syscall) pairs
    recovered from :class:`StateCondition` keys — the def-use relation
    the resource-kind grouping rests on.
    """

    version: str
    syscalls: int = 0
    args_total: int = 0
    resource_args: int = 0
    flag_leaves: int = 0
    flag_bits: int = 0
    int_leaves: int = 0
    interesting_values: int = 0
    struct_nodes: int = 0
    opaque_args: int = 0
    producers: int = 0
    state_edges: set = field(default_factory=set)

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "syscalls": self.syscalls,
            "args_total": self.args_total,
            "resource_args": self.resource_args,
            "flag_leaves": self.flag_leaves,
            "flag_bits": self.flag_bits,
            "int_leaves": self.int_leaves,
            "interesting_values": self.interesting_values,
            "struct_nodes": self.struct_nodes,
            "opaque_args": self.opaque_args,
            "producers": self.producers,
            "state_edges": len(self.state_edges),
        }

    def export_gauges(self, observer) -> None:
        """Publish inference-quality ``specgen.*`` gauges to an observer
        registry."""
        registry = observer.registry
        for key, value in self.to_dict().items():
            if key == "version":
                continue
            registry.gauge(f"specgen.{key}").set(value)


class _TrieNode:
    """One node of the observed-path trie of a single argument."""

    __slots__ = ("children", "evidence")

    def __init__(self) -> None:
        self.children: dict[int, _TrieNode] = {}
        self.evidence: list[tuple[CondOp, int]] = []

    def child(self, index: int) -> "_TrieNode":
        node = self.children.get(index)
        if node is None:
            node = _TrieNode()
            self.children[index] = node
        return node


def _split_full_name(full_name: str) -> tuple[str, str]:
    if "$" in full_name:
        name, variant = full_name.split("$", 1)
        return name, variant
    return full_name, ""


def _sanitize(token: str) -> str:
    return token.replace("$", "_").replace(".", "_")


def _int_bits(bound: int) -> int:
    for bits in (8, 16, 32, 64):
        if bound < (1 << bits):
            return bits
    return 64


def _leaf_from_evidence(
    evidence: list[tuple[CondOp, int]], report: InferenceReport
) -> Type:
    """Type one scalar leaf from the (op, operand) pairs branching on it."""
    mask_operands = [
        operand
        for op, operand in evidence
        if op in (CondOp.MASK_SET, CondOp.MASK_CLEAR) and operand > 0
    ]
    if mask_operands:
        union = 0
        for operand in mask_operands:
            union |= operand
        bits = tuple(
            1 << position for position in range(64) if (union >> position) & 1
        )
        flags = tuple((f"BIT_{bit:X}", bit) for bit in bits)
        report.flag_leaves += 1
        report.flag_bits += len(bits)
        return FlagsType(flags=flags, bits=64 if union >= (1 << 32) else 32)

    interesting: set[int] = {0}
    bound = 1
    for op, operand in evidence:
        bound = max(bound, operand + 1)
        if op in (CondOp.EQ, CondOp.NE):
            interesting.add(operand)
        elif op is CondOp.GT:
            interesting.add(operand)
            interesting.add(operand + 1)
        elif op is CondOp.LT:
            interesting.add(max(operand - 1, 0))
        elif op is CondOp.MASK_CLEAR:
            interesting.add(0)
    values = tuple(sorted(interesting))[:_MAX_INTERESTING]
    report.int_leaves += 1
    report.interesting_values += len(values)
    return IntType(bits=_int_bits(bound), interesting=values)


def _opaque_scalar() -> IntType:
    """Placeholder for slots the kernel never branches on."""
    return IntType(bits=64)


def _node_type(
    node: _TrieNode, name_base: str, report: InferenceReport
) -> Type:
    """An interior trie node becomes a struct; a leaf becomes a scalar.

    Interior structs always index children directly, so the inferred
    value tree flattens to exactly the observed condition paths —
    regardless of whether the ground truth used a pointer, an array, or
    a nested struct at that position (those shapes are observationally
    equivalent through flattened slots; see DESIGN.md).
    """
    if node.children:
        width = max(node.children) + 1
        fields: list[tuple[str, Type]] = []
        for index in range(width):
            child = node.children.get(index)
            if child is None:
                fields.append((f"f{index}", _opaque_scalar()))
            else:
                fields.append(
                    (f"f{index}", _node_type(child, f"{name_base}_{index}", report))
                )
        report.struct_nodes += 1
        return StructType(name=name_base, fields=tuple(fields))
    if node.evidence:
        return _leaf_from_evidence(node.evidence, report)
    return _opaque_scalar()


def _handler_evidence(
    kernel: Kernel, full_name: str
) -> tuple[set[tuple[int, ...]], dict[tuple[int, ...], list[tuple[CondOp, int]]], set[str]]:
    """Scan one handler CFG: guard paths, scalar evidence, state keys."""
    cfg = kernel.handlers[full_name]
    guards: set[tuple[int, ...]] = set()
    evidence: dict[tuple[int, ...], list[tuple[CondOp, int]]] = {}
    state_keys: set[str] = set()
    for block_id in sorted(cfg.blocks):
        block = cfg.blocks[block_id]
        condition = block.condition
        if isinstance(condition, StateCondition):
            state_keys.add(condition.key)
            continue
        if not isinstance(condition, ArgCondition):
            continue
        if condition.syscall != full_name:
            continue
        path = condition.path_elements
        is_guard = (
            block.label.endswith(":fdget")
            and len(path) == 1
            and condition.op is CondOp.GT
            and condition.operand == 0
        )
        if is_guard:
            guards.add(path)
        else:
            evidence.setdefault(path, []).append(
                (condition.op, condition.operand)
            )
    return guards, evidence, state_keys


def _is_producer(full_name: str) -> bool:
    base, _ = _split_full_name(full_name)
    return any(lexeme in base for lexeme in PRODUCER_LEXEMES)


def infer_specs(
    kernel: Kernel,
    observer=None,
) -> tuple[SyscallTable, InferenceReport]:
    """Infer a :class:`SyscallTable` from ``kernel``'s CFGs alone.

    A :class:`DependencyOracle` resolves state-condition def-use chains
    so the report's producer/consumer edges only include flags some
    effect block actually writes.  Returns the table plus an
    :class:`InferenceReport`; with ``observer`` set, the report is also
    published as ``specgen.*`` gauges.
    """
    oracle = DependencyOracle(kernel)
    report = InferenceReport(version=kernel.version)

    handlers = sorted(kernel.handlers)
    subsystem_of: dict[str, str] = {}
    guards_of: dict[str, set[tuple[int, ...]]] = {}
    evidence_of: dict[str, dict[tuple[int, ...], list[tuple[CondOp, int]]]] = {}
    for full_name in handlers:
        cfg = kernel.handlers[full_name]
        subsystem_of[full_name] = cfg.blocks[cfg.entry].subsystem
        guards, evidence, state_keys = _handler_evidence(kernel, full_name)
        guards_of[full_name] = guards
        evidence_of[full_name] = evidence
        # State keys follow the `{subsystem}:{producer}:done` convention;
        # chase them through the oracle so only keys with live effect
        # writers become producer->consumer edges.
        for key in sorted(state_keys):
            if not oracle.effect_writers(key):
                continue
            parts = key.split(":")
            if len(parts) >= 3 and parts[-1] == "done":
                producer = ":".join(parts[1:-1])
                if producer != full_name:
                    report.state_edges.add((producer, full_name))

    # Resource kinds: one per subsystem with a lexical producer, rooted
    # on the generic kind so consumers in producer-less subsystems
    # (mm, ext4, watch_queue, ...) still wire to *some* handle source.
    producer_subsystems = {
        subsystem_of[full_name]
        for full_name in handlers
        if _is_producer(full_name)
    }
    kinds = {
        subsystem: ResourceKind(_sanitize(subsystem), parent=GENERIC_RESOURCE)
        for subsystem in sorted(producer_subsystems)
    }

    specs: list[SyscallSpec] = []
    for full_name in handlers:
        name, variant = _split_full_name(full_name)
        subsystem = subsystem_of[full_name]
        guards = guards_of[full_name]
        evidence = evidence_of[full_name]
        kind = kinds.get(subsystem, GENERIC_RESOURCE)

        observed = [path[0] for path in guards] + [
            path[0] for path in evidence
        ]
        arity = (max(observed) + 1) if observed else 0

        tries: dict[int, _TrieNode] = {}
        for path, pairs in sorted(evidence.items()):
            node = tries.setdefault(path[0], _TrieNode())
            for element in path[1:]:
                node = node.child(element)
            node.evidence.extend(pairs)

        args: list[tuple[str, Type]] = []
        for index in range(arity):
            if (index,) in guards:
                args.append((f"res{index}", ResourceType(kind)))
                report.resource_args += 1
                continue
            node = tries.get(index)
            if node is None:
                args.append((f"a{index}", _opaque_scalar()))
                report.opaque_args += 1
                continue
            if node.children:
                # Compound argument: the calling convention passes
                # compounds by pointer, so the first deref level is a
                # ptr; everything deeper is modelled as structs.
                base = f"s_{_sanitize(full_name)}_{index}"
                if set(node.children) == {0}:
                    elem = _node_type(node.children[0], base, report)
                else:
                    elem = _node_type(node, base, report)
                args.append((f"a{index}", PtrType(elem)))
            else:
                args.append((f"a{index}", _leaf_from_evidence(node.evidence, report)))

        produces = kind if _is_producer(full_name) else None
        if produces is not None:
            report.producers += 1
        specs.append(
            SyscallSpec(
                name=name,
                args=tuple(args),
                variant=variant,
                produces=produces,
                subsystem=subsystem,
            )
        )
        report.syscalls += 1
        report.args_total += arity

    table = SyscallTable(specs)
    if observer is not None:
        report.export_gauges(observer)
    return table, report


def infer_table(kernel: Kernel, observer=None) -> SyscallTable:
    """Just the inferred table (see :func:`infer_specs`)."""
    table, _ = infer_specs(kernel, observer=observer)
    return table
