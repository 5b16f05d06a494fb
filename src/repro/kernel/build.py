"""Synthetic kernel construction.

:class:`KernelBuilder` generates, from a seed, one handler CFG per
syscall variant in a table, plants bugs behind argument-constraint
chains, and assembles the global :class:`Kernel` with the static-analysis
views (predecessors, frontier, distances) that the fuzzer, the dataset
pipeline, and the directed-fuzzing harness need.

Generation principles (see DESIGN.md):

- every *argument condition* block textually embeds the slot token of the
  argument path it branches on, and its operand is drawn from values the
  instantiator can realistically produce, so that (a) random mutation
  occasionally flips branches — yielding training data — and (b) the
  learned localizer has real signal to exploit;
- *state conditions* depend on flags set by other calls of the same
  subsystem, creating the implicit cross-call dependencies that make some
  branches unreachable through argument mutation alone;
- bugs sit behind ``depth`` chained argument conditions: shallow bugs are
  "known" (previously found by the continuous-fuzzing fleet), deep bugs
  are the undiscovered ones Snowplow hunts in §5.3.2.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.errors import KernelBuildError
from repro.rng import split
from repro.kernel.blocks import BasicBlock, BlockRole
from repro.kernel.bugs import Bug, CrashKind
from repro.kernel.cfg import HandlerCFG
from repro.kernel.conditions import ArgCondition, CondOp, StateCondition
from repro.syzlang.spec import SyscallSpec, SyscallTable
from repro.syzlang.types import (
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
from repro.syzlang.stdlib import (
    ATA_16,
    ATA_NOP,
    ATA_PROT_PIO,
)

__all__ = ["BugPlan", "Kernel", "KernelBuilder", "KernelConfig", "enumerate_type_paths"]

_BODY_OPCODES = (
    "mov", "lea", "add", "sub", "shl", "shr", "and", "or", "xor",
    "push", "pop", "call", "test", "inc", "dec",
)
_REGISTERS = ("rax", "rbx", "rcx", "rdx", "rsi", "rdi", "r8", "r9", "r12", "r13")


def enumerate_type_paths(spec: SyscallSpec) -> list[tuple[tuple[int, ...], Type]]:
    """All steerable leaf argument paths of a spec (arrays via index 0).

    Returns ``(path_elements, leaf_type)`` pairs for every mutable leaf
    the kernel may branch on.  Constants and resources are excluded —
    resource validity is checked by dedicated guard conditions.
    """
    paths: list[tuple[tuple[int, ...], Type]] = []

    def walk(ty: Type, elements: tuple[int, ...]) -> None:
        if isinstance(ty, (ConstType, ResourceType)):
            return
        if isinstance(ty, PtrType):
            walk(ty.elem, elements + (0,))
            return
        if isinstance(ty, StructType):
            for index, (_, field_ty) in enumerate(ty.fields):
                walk(field_ty, elements + (index,))
            return
        if isinstance(ty, ArrayType):
            walk(ty.elem, elements + (0,))
            return
        paths.append((elements, ty))

    for arg_index, (_, arg_ty) in enumerate(spec.args):
        walk(arg_ty, (arg_index,))
    return paths


def resource_guard_paths(spec: SyscallSpec) -> list[tuple[int, ...]]:
    """Top-level argument paths holding resources (fd guards)."""
    return [
        (index,)
        for index, (_, arg_ty) in enumerate(spec.args)
        if isinstance(arg_ty, ResourceType)
    ]


@dataclass(frozen=True)
class BugPlan:
    """Where and how to plant one bug."""

    bug_id: str
    kind: CrashKind
    subsystem: str
    function: str
    depth: int
    known: bool = False
    reproducible: bool = True
    corrupts_memory: bool = False
    # Pin to a specific syscall variant; otherwise any handler in the
    # subsystem is eligible.
    syscall: str | None = None


@dataclass
class KernelConfig:
    """Size/shape knobs for kernel generation."""

    version: str = "6.8"
    seed: int = 0
    # Number of top-level condition segments per handler.
    segments: tuple[int, int] = (4, 8)
    # Maximum nesting depth of conditions inside a taken branch.
    nest_depth: int = 2
    # Length range of straight-line body runs.
    run_length: tuple[int, int] = (1, 3)
    # Probability that a segment branches on kernel state instead of an
    # argument.
    state_cond_prob: float = 0.18
    # Fraction of handlers regenerated with a version-salted seed for
    # releases after the base one (API churn between releases).
    perturb_fraction: float = 0.15
    bug_plans: tuple[BugPlan, ...] = ()
    plant_ata_bug: bool = True
    # Blocks of the interrupt pseudo-handler (noise source, §3.1).
    interrupt_blocks: int = 12


@dataclass
class Kernel:
    """A built synthetic kernel: handlers plus global static views."""

    version: str
    table: SyscallTable
    handlers: dict[str, HandlerCFG]
    blocks: dict[int, BasicBlock]
    bugs: list[Bug]
    bug_blocks: dict[str, int]
    interrupt_trace: list[int]
    handler_of_block: dict[int, str] = field(default_factory=dict)
    succs: dict[int, tuple[int, ...]] = field(default_factory=dict)
    preds: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.handler_of_block:
            for name, cfg in self.handlers.items():
                for block_id in cfg.blocks:
                    self.handler_of_block[block_id] = name
        if not self.succs:
            for cfg in self.handlers.values():
                self.succs.update(cfg.succs)
        if not self.preds:
            preds: dict[int, list[int]] = {bid: [] for bid in self.blocks}
            for src, dsts in self.succs.items():
                for dst in dsts:
                    preds[dst].append(src)
            self.preds = {bid: tuple(ps) for bid, ps in preds.items()}

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def static_edge_count(self) -> int:
        return sum(len(dsts) for dsts in self.succs.values())

    def frontier(self, covered: set[int]) -> set[int]:
        """Uncovered blocks one branch away from ``covered`` (§3.1's
        alternative path entries)."""
        result: set[int] = set()
        for block_id in covered:
            for succ in self.succs.get(block_id, ()):
                if succ not in covered:
                    result.add(succ)
        return result

    def target_distances(
        self, targets: Iterable[int], state_edge_cost: float = math.inf
    ) -> dict[int, float]:
        """Distance of every block that can reach ``targets``.

        A multi-source Dijkstra over the reversed CFG: each CFG edge
        costs 1, and a finite ``state_edge_cost`` also links every
        state-condition block to each effect block writing its flag (a
        producer hop).  At the default ``inf`` the map is plain CFG hop
        counts.  Blocks that cannot reach a target are absent.
        """
        dist: dict[int, float] = {target: 0.0 for target in targets}
        heap = [(0.0, target) for target in dist]
        heapq.heapify(heap)
        producers = (
            self._producer_edges() if state_edge_cost < math.inf else {}
        )
        while heap:
            d, block_id = heapq.heappop(heap)
            if d > dist[block_id]:
                continue
            for pred in self.preds.get(block_id, ()):
                candidate = d + 1.0
                if candidate < dist.get(pred, math.inf):
                    dist[pred] = candidate
                    heapq.heappush(heap, (candidate, pred))
            for writer in producers.get(block_id, ()):
                candidate = d + state_edge_cost
                if candidate < dist.get(writer, math.inf):
                    dist[writer] = candidate
                    heapq.heappush(heap, (candidate, writer))
        return dist

    def _producer_edges(self) -> dict[int, tuple[int, ...]]:
        """State-condition block -> effect blocks writing its flag."""
        writers: dict[str, list[int]] = {}
        for block_id, block in self.blocks.items():
            for key, _value in block.effects:
                writers.setdefault(key, []).append(block_id)
        return {
            block_id: tuple(sorted(writers.get(block.condition.key, ())))
            for block_id, block in self.blocks.items()
            if isinstance(block.condition, StateCondition)
        }

    def guarding_condition(self, block_id: int) -> ArgCondition | StateCondition | None:
        """The condition of the closest conditional predecessor, if any."""
        for pred in self.preds.get(block_id, ()):
            block = self.blocks[pred]
            if block.role is BlockRole.CONDITION and block.condition is not None:
                return block.condition  # type: ignore[return-value]
        return None

    def blocks_of_subsystem(self, subsystem: str) -> list[int]:
        return [
            block_id
            for block_id, block in self.blocks.items()
            if block.subsystem == subsystem
        ]


class KernelBuilder:
    """Builds a :class:`Kernel` from a syscall table and a config."""

    def __init__(self, table: SyscallTable, config: KernelConfig):
        self.table = table
        self.config = config
        self._next_id = 0
        self._blocks: dict[int, BasicBlock] = {}
        self._bugs: list[Bug] = []
        self._bug_blocks: dict[str, int] = {}

    # ----- low-level block allocation -----

    def _alloc(
        self,
        label: str,
        subsystem: str,
        role: BlockRole,
        asm: tuple[str, ...],
        **kwargs,
    ) -> int:
        block_id = self._next_id
        self._next_id += 1
        self._blocks[block_id] = BasicBlock(
            block_id=block_id,
            label=label,
            subsystem=subsystem,
            role=role,
            asm=asm,
            **kwargs,
        )
        return block_id

    def _body_asm(self, rng: np.random.Generator, function: str) -> tuple[str, ...]:
        length = int(rng.integers(3, 7))
        tokens: list[str] = [f"fn_{function}"]
        for _ in range(length):
            opcode = _BODY_OPCODES[int(rng.integers(len(_BODY_OPCODES)))]
            reg = _REGISTERS[int(rng.integers(len(_REGISTERS)))]
            tokens.extend((opcode, reg))
        return tuple(tokens)

    # ----- handler construction -----

    def build_handler(
        self, spec: SyscallSpec, rng: np.random.Generator,
        plans: list[BugPlan],
    ) -> HandlerCFG:
        """Generate the CFG for one syscall variant."""
        cfg = HandlerCFG(syscall=spec.full_name, entry=-1)
        subsystem = spec.subsystem
        function = f"{subsystem}_{spec.name}{('_' + spec.variant) if spec.variant else ''}"

        def body(label: str) -> int:
            return self._alloc(
                f"{spec.full_name}:{label}", subsystem, BlockRole.BODY,
                self._body_asm(rng, function),
            )

        success_exit = self._alloc(
            f"{spec.full_name}:ret_ok", subsystem, BlockRole.EXIT_SUCCESS,
            (f"fn_{function}", "mov", "rax", "imm_0", "ret"),
        )
        error_exit = self._alloc(
            f"{spec.full_name}:ret_err", subsystem, BlockRole.EXIT_ERROR,
            (f"fn_{function}", "mov", "rax", "imm_big", "ret"),
            errno=22,
        )

        arg_paths = enumerate_type_paths(spec)

        # Effects block: successful calls flip subsystem state flags that
        # other handlers' StateConditions read.
        effect_key = f"{subsystem}:{spec.full_name}:done"
        effects_block = self._alloc(
            f"{spec.full_name}:commit", subsystem, BlockRole.BODY,
            self._body_asm(rng, function),
            effects=((effect_key, 1),),
        )
        cfg.succs[effects_block] = (success_exit,)

        next_id = effects_block

        # Main chain, built back-to-front.
        segment_lo, segment_hi = self.config.segments
        segment_count = int(rng.integers(segment_lo, segment_hi + 1))
        for segment in range(segment_count):
            roll = rng.random()
            if arg_paths and roll >= self.config.state_cond_prob:
                next_id = self._arg_condition_segment(
                    cfg, spec, rng, arg_paths, next_id, error_exit, body,
                    nest=self.config.nest_depth,
                )
            elif roll < self.config.state_cond_prob:
                next_id = self._state_condition_segment(
                    cfg, spec, rng, next_id, error_exit, body
                )
            run = body(f"run{segment}")
            cfg.succs[run] = (next_id,)
            next_id = run

        # Planted bugs: guarded chains hanging off the front of the main
        # path so they are evaluated on every invocation.
        for plan in plans:
            next_id = self._plant_bug(cfg, spec, rng, plan, arg_paths, next_id)

        # Resource guards (EBADF paths) come first.
        for guard_path in reversed(resource_guard_paths(spec)):
            guard_cond = ArgCondition(
                syscall=spec.full_name,
                path_elements=guard_path,
                op=CondOp.GT,
                operand=0,
            )
            fail = body("ebadf")
            cfg.succs[fail] = (error_exit,)
            guard = self._alloc(
                f"{spec.full_name}:fdget", subsystem, BlockRole.CONDITION,
                guard_cond.asm_tokens(), condition=guard_cond,
            )
            cfg.succs[guard] = (fail, next_id)
            next_id = guard

        entry = self._alloc(
            f"{spec.full_name}:entry", subsystem, BlockRole.ENTRY,
            (f"fn_{function}", "push", "rbp", "mov", "rbp", "rsp"),
        )
        cfg.succs[entry] = (next_id,)
        cfg.entry = entry

        for block_id in self._collect_reachable(entry, cfg):
            cfg.blocks[block_id] = self._blocks[block_id]
        cfg.validate()
        return cfg

    def _collect_reachable(self, entry: int, cfg: HandlerCFG) -> set[int]:
        seen = {entry}
        frontier = deque([entry])
        while frontier:
            current = frontier.popleft()
            for succ in cfg.succs.get(current, ()):
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
        return seen

    def _random_condition(
        self,
        spec: SyscallSpec,
        rng: np.random.Generator,
        arg_paths: list[tuple[tuple[int, ...], Type]],
    ) -> ArgCondition:
        """A branch on a random steerable argument path.

        Operands come from the type's realistic value set so random
        instantiation flips the branch at a useful (low but nonzero) rate.
        """
        path, leaf = arg_paths[int(rng.integers(len(arg_paths)))]
        if isinstance(leaf, FlagsType):
            _, bit = leaf.flags[int(rng.integers(len(leaf.flags)))]
            if bit == 0:
                bit = leaf.flags[0][1] or 1
            op = CondOp.MASK_SET if rng.random() < 0.7 else CondOp.MASK_CLEAR
            return ArgCondition(spec.full_name, path, op, bit)
        if isinstance(leaf, IntType) and leaf.interesting:
            operand = int(leaf.interesting[int(rng.integers(len(leaf.interesting)))])
            roll = rng.random()
            if roll < 0.5:
                return ArgCondition(spec.full_name, path, CondOp.EQ, operand)
            if roll < 0.75 and operand > 0:
                return ArgCondition(spec.full_name, path, CondOp.GT, operand)
            return ArgCondition(spec.full_name, path, CondOp.LT, max(operand, 1))
        if isinstance(leaf, IntType):
            # Sample the operand on a log scale so wide (64-bit) ranges do
            # not always yield astronomically large thresholds.
            magnitude = int(rng.integers(0, leaf.bits))
            operand = min(leaf.minimum + (1 << magnitude), leaf.upper_bound)
            op = CondOp.GT if rng.random() < 0.5 else CondOp.LT
            return ArgCondition(spec.full_name, path, op, operand)
        if isinstance(leaf, LenType):
            operand = int(rng.choice((0, 1, 8, 64, 512)))
            op = CondOp.GT if rng.random() < 0.7 else CondOp.EQ
            return ArgCondition(spec.full_name, path, op, operand)
        if isinstance(leaf, BufferType):
            operand = int(rng.choice((0, 1, 4, 8)))
            return ArgCondition(spec.full_name, path, CondOp.GT, operand)
        # Fallback: nonzero check.
        return ArgCondition(spec.full_name, path, CondOp.NE, 0)

    def _arg_condition_segment(
        self, cfg, spec, rng, arg_paths, join, error_exit, body, nest: int
    ) -> int:
        condition = self._random_condition(spec, rng, arg_paths)
        reward = self._reward_size(condition, rng)
        taken_entry = self._taken_chain(
            cfg, spec, rng, arg_paths, join, error_exit, body, nest, reward
        )
        cond_block = self._alloc(
            f"{spec.full_name}:br", spec.subsystem, BlockRole.CONDITION,
            condition.asm_tokens(), condition=condition,
        )
        cfg.succs[cond_block] = (join, taken_entry)
        return cond_block

    @staticmethod
    def _reward_size(condition: ArgCondition, rng: np.random.Generator) -> int:
        """Body blocks guarded by a branch, scaled with its rarity.

        Real kernels show the same pattern: a branch on an exact command
        or mode value typically dispatches into a whole function
        (hundreds of instructions), while a cheap range check guards a
        few lines.  This is what makes hard branches *worth* reaching —
        the property Snowplow's speedup rests on.
        """
        if condition.op is CondOp.EQ:
            base = 8
        elif condition.op in (CondOp.MASK_SET, CondOp.MASK_CLEAR):
            base = 5
        else:
            base = 2
        return base + int(rng.integers(0, base + 1))

    def _taken_chain(
        self, cfg, spec, rng, arg_paths, join, error_exit, body, nest: int,
        reward: int,
    ) -> int:
        """The code run when a branch is taken; rejoins or errors out."""
        terminal_roll = rng.random()
        if terminal_roll < 0.08:
            tail: int = error_exit
        else:
            tail = join
        next_id = tail
        if nest > 0 and rng.random() < 0.6:
            next_id = self._arg_condition_segment(
                cfg, spec, rng, arg_paths, next_id, error_exit, body, nest - 1
            )
        for index in range(max(reward, 1)):
            block = body(f"taken{index}")
            cfg.succs[block] = (next_id,)
            next_id = block
        return next_id

    def _state_condition_segment(
        self, cfg, spec, rng, join, error_exit, body
    ) -> int:
        """A branch on a flag set by another call of the same subsystem."""
        peers = [
            peer for peer in self.table.specs
            if peer.subsystem == spec.subsystem
            and peer.full_name != spec.full_name
        ]
        if peers:
            peer = peers[int(rng.integers(len(peers)))]
            key = f"{spec.subsystem}:{peer.full_name}:done"
        else:
            key = f"{spec.subsystem}:{spec.full_name}:done"
        condition = StateCondition(key=key)
        taken = body("statepath")
        cfg.succs[taken] = (join,)
        cond_block = self._alloc(
            f"{spec.full_name}:stbr", spec.subsystem, BlockRole.CONDITION,
            condition.asm_tokens(), condition=condition,
        )
        cfg.succs[cond_block] = (join, taken)
        return cond_block

    # ----- bug planting -----

    def _bug_conditions(
        self,
        spec: SyscallSpec,
        rng: np.random.Generator,
        plan: BugPlan,
        arg_paths: list[tuple[tuple[int, ...], Type]],
    ) -> list[ArgCondition]:
        """A satisfiable chain of ``plan.depth`` conditions on distinct
        argument paths."""
        if plan.bug_id == "ata-oob" and self.config.plant_ata_bug:
            return self._ata_conditions(spec)
        eligible = [
            (path, leaf) for path, leaf in arg_paths
            if isinstance(leaf, (IntType, FlagsType, LenType, BufferType))
        ]
        if len(eligible) < plan.depth:
            raise KernelBuildError(
                f"bug {plan.bug_id}: handler {spec.full_name} has only "
                f"{len(eligible)} steerable paths for depth {plan.depth}"
            )
        order = rng.permutation(len(eligible))[: plan.depth]
        conditions: list[ArgCondition] = []
        for index in order:
            path, leaf = eligible[int(index)]
            conditions.append(
                self._rare_condition(spec.full_name, path, leaf, rng)
            )
        return conditions

    @staticmethod
    def _rare_condition(
        syscall: str, path: tuple[int, ...], leaf: Type,
        rng: np.random.Generator,
    ) -> ArgCondition:
        """A condition rarely satisfied by random values yet reachable by
        the instantiator's targeted strategies (interesting constants,
        multi-flag combinations, buffer resizing, length desync)."""
        if isinstance(leaf, FlagsType):
            bits = [bit for _, bit in leaf.flags if bit]
            if len(bits) >= 2:
                picks = rng.permutation(len(bits))[:2]
                operand = bits[int(picks[0])] | bits[int(picks[1])]
            else:
                operand = bits[0] if bits else 1
            return ArgCondition(syscall, path, CondOp.MASK_SET, operand)
        if isinstance(leaf, IntType) and leaf.interesting:
            pool = [v for v in leaf.interesting if v != 0] or list(leaf.interesting)
            operand = int(pool[int(rng.integers(len(pool)))])
            return ArgCondition(syscall, path, CondOp.EQ, operand)
        if isinstance(leaf, LenType):
            # Reachable only by deliberately desynchronising the length
            # field from its buffer (the ATA-bug mutation pattern).
            return ArgCondition(syscall, path, CondOp.GT, 64)
        if isinstance(leaf, BufferType):
            bound = max(leaf.min_len + 1, (3 * leaf.max_len) // 4)
            return ArgCondition(syscall, path, CondOp.GT, bound)
        assert isinstance(leaf, IntType)
        # No interesting constants: gate on a high log-scale threshold the
        # instantiator reaches through its power-of-two strategy.
        threshold = min(leaf.upper_bound, max(leaf.minimum + 1, 1 << (leaf.bits - 3)))
        return ArgCondition(syscall, path, CondOp.GT, threshold)

    def _ata_conditions(self, spec: SyscallSpec) -> list[ArgCondition]:
        """The hand-crafted guard of Table 4 bug #1: an ATA_16
        pass-through NOP PIO command with an oversized reply length."""
        name = spec.full_name
        return [
            ArgCondition(name, (2, 0, 2, 0), CondOp.EQ, ATA_16),      # cdb.opcode
            ArgCondition(name, (2, 0, 2, 1), CondOp.EQ, ATA_PROT_PIO),  # cdb.protocol
            ArgCondition(name, (2, 0, 2, 3), CondOp.EQ, ATA_NOP),     # cdb.ata_cmd
            ArgCondition(name, (2, 0, 1), CondOp.GT, 512),            # outlen
        ]

    def _plant_bug(
        self, cfg, spec, rng, plan: BugPlan, arg_paths, join: int
    ) -> int:
        conditions = self._bug_conditions(spec, rng, plan, arg_paths)
        bug = Bug(
            bug_id=plan.bug_id,
            kind=plan.kind,
            subsystem=plan.subsystem,
            function=plan.function,
            depth=len(conditions),
            known=plan.known,
            reproducible=plan.reproducible,
            corrupts_memory=plan.corrupts_memory,
        )
        crash_block = self._alloc(
            f"{spec.full_name}:crash:{plan.bug_id}", spec.subsystem,
            BlockRole.CRASH,
            (f"fn_{plan.function}", "mov", "rax", "imm_big", "ud2"),
            bug=bug,
        )
        self._bugs.append(bug)
        self._bug_blocks[bug.bug_id] = crash_block
        # Chain: cond1 -> cond2 -> ... -> crash; any false edge rejoins.
        next_id = crash_block
        for condition in reversed(conditions):
            cond_block = self._alloc(
                f"{spec.full_name}:bugbr:{plan.bug_id}", spec.subsystem,
                BlockRole.CONDITION, condition.asm_tokens(),
                condition=condition,
            )
            cfg.succs[cond_block] = (join, next_id)
            next_id = cond_block
        return next_id

    # ----- interrupt pseudo-handler (noise source) -----

    def _build_interrupt_trace(self, rng: np.random.Generator) -> list[int]:
        trace: list[int] = []
        for index in range(self.config.interrupt_blocks):
            block_id = self._alloc(
                f"irq:{index}", "irq", BlockRole.BODY,
                self._body_asm(rng, "irq_timer"),
            )
            trace.append(block_id)
        return trace

    # ----- top level -----

    def _assign_bug_plans(self) -> dict[str, list[BugPlan]]:
        """Map each bug plan to a concrete handler."""
        assignment: dict[str, list[BugPlan]] = {}
        specs_by_subsystem: dict[str, list[SyscallSpec]] = {}
        for spec in self.table.specs:
            specs_by_subsystem.setdefault(spec.subsystem, []).append(spec)
        plans = list(self.config.bug_plans)
        if self.config.plant_ata_bug and "ioctl$SCSI_IOCTL_SEND_COMMAND" in self.table:
            if not any(plan.bug_id == "ata-oob" for plan in plans):
                plans.append(
                    BugPlan(
                        bug_id="ata-oob",
                        kind=CrashKind.OOB,
                        subsystem="scsi",
                        function="ata_pio_sector",
                        depth=4,
                        known=False,
                        corrupts_memory=True,
                        syscall="ioctl$SCSI_IOCTL_SEND_COMMAND",
                    )
                )
        rng = split(self.config.seed, "bug-assign")
        for plan in plans:
            if plan.syscall is not None:
                target = plan.syscall
                if target not in self.table:
                    raise KernelBuildError(
                        f"bug {plan.bug_id}: unknown syscall {target!r}"
                    )
            else:
                candidates = specs_by_subsystem.get(plan.subsystem)
                if not candidates:
                    raise KernelBuildError(
                        f"bug {plan.bug_id}: no handlers in subsystem "
                        f"{plan.subsystem!r}"
                    )
                # Prefer handlers with enough steerable paths.
                rich = [
                    spec for spec in candidates
                    if len(enumerate_type_paths(spec)) >= plan.depth + 1
                ]
                pool = rich or candidates
                target = pool[int(rng.integers(len(pool)))].full_name
            assignment.setdefault(target, []).append(plan)
        return assignment

    def _handler_seed(self, spec: SyscallSpec) -> np.random.Generator:
        """Handler seeds are version-independent for shared specs, so
        releases mostly share code — except for a perturbed fraction,
        modelling churn between releases."""
        version = self.config.version
        if version != "6.8":
            salt = split(self.config.seed, "perturb", spec.full_name, version)
            if salt.random() < self.config.perturb_fraction:
                return split(self.config.seed, "handler", spec.full_name, version)
        return split(self.config.seed, "handler", spec.full_name)

    def build(self) -> Kernel:
        """Generate the full kernel."""
        assignment = self._assign_bug_plans()
        handlers: dict[str, HandlerCFG] = {}
        for spec in self.table.specs:
            rng = self._handler_seed(spec)
            plans = assignment.get(spec.full_name, [])
            handlers[spec.full_name] = self.build_handler(spec, rng, plans)
        interrupt_trace = self._build_interrupt_trace(
            split(self.config.seed, "irq")
        )
        blocks: dict[int, BasicBlock] = {}
        for cfg in handlers.values():
            blocks.update(cfg.blocks)
        for block_id in interrupt_trace:
            blocks[block_id] = self._blocks[block_id]
        return Kernel(
            version=self.config.version,
            table=self.table,
            handlers=handlers,
            blocks=blocks,
            bugs=list(self._bugs),
            bug_blocks=dict(self._bug_blocks),
            interrupt_trace=interrupt_trace,
        )
