"""Reachability and solvability analysis over handler CFGs.

Handler CFGs are acyclic, so every question about a block reduces to a
question about the set of entry paths that can reach it.  Each path is a
conjunction of branch predicates — :class:`ArgCondition` comparisons on
scalar argument views plus :class:`StateCondition` equality tests on
kernel flags — and this module decides satisfiability of those
conjunctions under an interval+bitmask abstract domain:

- :class:`AbstractValue` tracks ``[lo, hi]`` bounds together with
  must-set/must-clear bit masks, covering every :class:`CondOp`
  (``EQ``/``NE``/``LT``/``GT``/``MASK_SET``/``MASK_CLEAR``) exactly for
  the refinements the synthetic kernel generates;
- flags are constant for the duration of one call (the only effect
  block sits directly before the success exit), so per-path flag
  requirements are equality/disequality sets checked against the values
  any handler in the kernel can actually write.

A block is *statically dead* when no entry path admits a satisfying
assignment.  The generator's random nested conditions produce such
blocks routinely (two branches on the same argument path with
contradictory operands), and they waste fuzzing budget: the frontier
scheduler keeps proposing them as targets that no mutation can reach.
:class:`ReachabilityAnalysis` exposes the dead set so loops can skip
them, and hands :mod:`repro.analyze.witness` a concrete feasible path
(with per-slot abstract values) from which satisfying programs are
built.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import AnalysisError
from repro.kernel.blocks import BlockRole
from repro.kernel.build import Kernel
from repro.kernel.cfg import HandlerCFG
from repro.kernel.conditions import ArgCondition, CondOp, StateCondition

__all__ = [
    "AbstractValue",
    "FlagRequirement",
    "PathState",
    "PathWitness",
    "ReachabilityAnalysis",
    "dominator_tree",
]

# Scalar views are Python ints; these bounds only exist so intervals
# have a printable "unconstrained" form.  Nothing clamps real values.
_NEG = -(1 << 63)
_POS = (1 << 63) - 1

# Per-handler cap on DFS steps.  Handlers are small DAGs (tens of
# blocks, nesting depth <= 2), so real kernels stay far below this; if
# a hand-built CFG ever exceeds it, the analysis degrades *soundly* by
# treating every unvisited block as feasible (never falsely dead).
_DFS_STEP_LIMIT = 500_000


def _popcount(value: int) -> int:
    return bin(value).count("1")


@dataclass(frozen=True)
class AbstractValue:
    """Interval + bitmask abstraction of one scalar argument view."""

    lo: int = _NEG
    hi: int = _POS
    must_set: int = 0
    must_clear: int = 0

    def is_empty(self) -> bool:
        """True when no concrete value satisfies the constraints."""
        if self.lo > self.hi:
            return True
        if self.must_set & self.must_clear:
            return True
        if self.lo == self.hi:
            value = self.lo
            if (value & self.must_set) != self.must_set:
                return True
            if value & self.must_clear:
                return True
        # A non-negative value containing all must_set bits is >= the
        # mask itself; an upper bound below the mask is a contradiction.
        if self.must_set and self.lo >= 0 and self.hi < self.must_set:
            return True
        return False

    def admits(self, value: int) -> bool:
        return (
            self.lo <= value <= self.hi
            and (value & self.must_set) == self.must_set
            and not value & self.must_clear
        )

    def refine(self, op: CondOp, operand: int, taken: bool) -> "AbstractValue | None":
        """The value set after a branch on ``op``/``operand`` resolves
        with outcome ``taken``; None when the refinement is empty."""
        lo, hi = self.lo, self.hi
        must_set, must_clear = self.must_set, self.must_clear
        if (op is CondOp.EQ and taken) or (op is CondOp.NE and not taken):
            lo = max(lo, operand)
            hi = min(hi, operand)
        elif (op is CondOp.EQ and not taken) or (op is CondOp.NE and taken):
            if lo == hi == operand:
                return None
            if lo == operand:
                lo += 1
            if hi == operand:
                hi -= 1
        elif op is CondOp.LT:
            if taken:
                hi = min(hi, operand - 1)
            else:
                lo = max(lo, operand)
        elif op is CondOp.GT:
            if taken:
                lo = max(lo, operand + 1)
            else:
                hi = min(hi, operand)
        elif op is CondOp.MASK_SET:
            if taken:
                must_set |= operand
            else:
                # "not all operand bits set": already-forced bits make
                # the branch a tautology; a single tracked bit flips to
                # must_clear, multi-bit negations stay unconstrained.
                if operand and (operand & must_set) == operand:
                    return None
                if _popcount(operand) == 1:
                    must_clear |= operand
        elif op is CondOp.MASK_CLEAR:
            if taken:
                must_clear |= operand
            else:
                if operand == 0:
                    return None  # value & 0 != 0 is unsatisfiable
                if (operand & must_clear) == operand:
                    return None
                if _popcount(operand) == 1:
                    must_set |= operand
        else:  # pragma: no cover - CondOp is closed
            raise AnalysisError(f"unhandled condition op {op!r}")
        refined = AbstractValue(lo, hi, must_set, must_clear)
        return None if refined.is_empty() else refined

    def meet(self, other: "AbstractValue") -> "AbstractValue":
        """Greatest lower bound: the conjunction of both constraint
        sets.  Exact in this domain — a value is admitted by the meet
        iff both operands admit it — because intervals intersect to
        intervals and must-bit sets union to must-bit sets."""
        return AbstractValue(
            lo=max(self.lo, other.lo),
            hi=min(self.hi, other.hi),
            must_set=self.must_set | other.must_set,
            must_clear=self.must_clear | other.must_clear,
        )

    def join(self, other: "AbstractValue") -> "AbstractValue":
        """Least upper bound: a sound over-approximation of the union.
        Any value either operand admits is admitted by the join (the
        converse does not hold — interval hulls and bit intersections
        lose the disjunction, as joins in a conjunctive domain must)."""
        return AbstractValue(
            lo=min(self.lo, other.lo),
            hi=max(self.hi, other.hi),
            must_set=self.must_set & other.must_set,
            must_clear=self.must_clear & other.must_clear,
        )

    def example(self) -> int:
        """A concrete witness value; raises on an empty abstraction."""
        candidates = (
            0,
            self.must_set,
            self.lo,
            self.lo | self.must_set,
            (self.lo | self.must_set) & ~self.must_clear,
            self.hi,
            self.hi & ~self.must_clear,
        )
        for value in candidates:
            if self.admits(value):
                return value
        value = max(self.lo, self.must_set, 0)
        for _ in range(1 << 16):
            if value > self.hi:
                break
            if self.admits(value):
                return value
            value += 1
        value = min(self.hi, -1)
        for _ in range(1 << 12):
            if value < self.lo:
                break
            if self.admits(value):
                return value
            value -= 1
        raise AnalysisError(f"no concrete witness for {self!r}")


@dataclass(frozen=True)
class FlagRequirement:
    """What one path demands of a single kernel flag.

    Flags are constant within a call, so a path's demands collapse into
    at most one required value (``eq``) plus a set of forbidden values
    (``ne``).  Achievability is checked against ``writable``: the values
    effect blocks anywhere in the kernel assign to the flag, plus the
    default 0 every fresh :class:`KernelState` starts from.
    """

    eq: frozenset[int] = frozenset()
    ne: frozenset[int] = frozenset()

    def require(self, operand: int, taken: bool) -> "FlagRequirement | None":
        if taken:
            if operand in self.ne:
                return None
            if self.eq and operand not in self.eq:
                return None
            return FlagRequirement(frozenset((operand,)), self.ne)
        if self.eq == frozenset((operand,)):
            return None
        return FlagRequirement(self.eq, self.ne | frozenset((operand,)))

    def satisfiable(self, writable: frozenset[int]) -> bool:
        achievable = writable | {0}
        if self.eq:
            (needed,) = tuple(self.eq)
            return needed in achievable
        return bool(achievable - self.ne)

    def needed_value(self, writable: frozenset[int]) -> int | None:
        """The flag value a witness program must arrange, or None when
        the default 0 already satisfies the requirement."""
        achievable = sorted(writable | {0})
        for value in achievable:
            if self.eq and value not in self.eq:
                continue
            if value in self.ne:
                continue
            return value if value != 0 else None
        raise AnalysisError(f"unsatisfiable flag requirement {self!r}")


@dataclass(frozen=True)
class PathState:
    """Accumulated constraints along one entry path."""

    slots: tuple[tuple[tuple[str, tuple[int, ...]], AbstractValue], ...] = ()
    flags: tuple[tuple[str, FlagRequirement], ...] = ()

    def refine_arg(self, condition: ArgCondition, taken: bool) -> "PathState | None":
        key = (condition.syscall, condition.path_elements)
        current = dict(self.slots)
        refined = current.get(key, AbstractValue()).refine(
            condition.op, condition.operand, taken
        )
        if refined is None:
            return None
        current[key] = refined
        return replace(self, slots=tuple(sorted(current.items())))

    def refine_flag(
        self,
        condition: StateCondition,
        taken: bool,
        writable: frozenset[int],
    ) -> "PathState | None":
        current = dict(self.flags)
        requirement = current.get(condition.key, FlagRequirement()).require(
            condition.operand, taken
        )
        if requirement is None or not requirement.satisfiable(writable):
            return None
        current[condition.key] = requirement
        return replace(self, flags=tuple(sorted(current.items())))


@dataclass(frozen=True)
class PathWitness:
    """One feasible entry path to a target block."""

    syscall: str
    blocks: tuple[int, ...]
    state: PathState


def dominator_tree(cfg: HandlerCFG) -> dict[int, int | None]:
    """Immediate dominators of every reachable block (entry maps to
    None), via the Cooper–Harper–Kennedy iteration on reverse postorder.
    """
    order: list[int] = []
    seen: set[int] = set()

    def visit(block_id: int) -> None:
        stack: list[tuple[int, int]] = [(block_id, 0)]
        seen.add(block_id)
        while stack:
            current, cursor = stack.pop()
            succs = cfg.successors(current)
            if cursor < len(succs):
                stack.append((current, cursor + 1))
                succ = succs[cursor]
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, 0))
            else:
                order.append(current)

    visit(cfg.entry)
    rpo = list(reversed(order))
    index = {block_id: pos for pos, block_id in enumerate(rpo)}
    preds: dict[int, list[int]] = {block_id: [] for block_id in rpo}
    for block_id in rpo:
        for succ in cfg.successors(block_id):
            preds[succ].append(block_id)
    idom: dict[int, int | None] = {cfg.entry: cfg.entry}

    def intersect(a: int, b: int) -> int:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]  # type: ignore[assignment]
            while index[b] > index[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for block_id in rpo[1:]:
            processed = [p for p in preds[block_id] if p in idom]
            if not processed:
                continue
            new_idom = processed[0]
            for pred in processed[1:]:
                new_idom = intersect(pred, new_idom)
            if idom.get(block_id) != new_idom:
                idom[block_id] = new_idom
                changed = True
    idom[cfg.entry] = None
    return idom


class ReachabilityAnalysis:
    """Cached static reachability/solvability facts about one kernel."""

    def __init__(self, kernel: Kernel, observer=None):
        self.kernel = kernel
        self.observer = observer
        self._feasible: dict[str, frozenset[int]] = {}
        self._truncated: set[str] = set()
        self._dominators: dict[str, dict[int, int | None]] = {}
        self._dead: frozenset[int] | None = None
        self._writable: dict[str, frozenset[int]] | None = None

    # ----- flag writers -----

    def flag_writers(self) -> dict[str, frozenset[int]]:
        """Values each kernel flag can be set to by any effect block."""
        if self._writable is None:
            writers: dict[str, set[int]] = {}
            for block in self.kernel.blocks.values():
                for key, value in block.effects:
                    writers.setdefault(key, set()).add(value)
            self._writable = {
                key: frozenset(values) for key, values in writers.items()
            }
        return self._writable

    def writer_blocks(self, key: str, value: int) -> list[int]:
        """Blocks whose effects assign ``value`` to flag ``key``."""
        return sorted(
            block_id
            for block_id, block in self.kernel.blocks.items()
            if any(k == key and v == value for k, v in block.effects)
        )

    # ----- feasibility -----

    def _branch_states(self, block, state: PathState, writable):
        """(false-edge state, true-edge state) after a condition block."""
        condition = block.condition
        if isinstance(condition, ArgCondition):
            return (
                state.refine_arg(condition, taken=False),
                state.refine_arg(condition, taken=True),
            )
        if isinstance(condition, StateCondition):
            flags = writable.get(condition.key, frozenset())
            return (
                state.refine_flag(condition, False, flags),
                state.refine_flag(condition, True, flags),
            )
        return state, state

    def handler_feasible(self, syscall: str) -> frozenset[int]:
        """Blocks of one handler reachable by some satisfiable path."""
        cached = self._feasible.get(syscall)
        if cached is not None:
            return cached
        cfg = self.kernel.handlers[syscall]
        writable = self.flag_writers()
        feasible: set[int] = set()
        visited: set[tuple[int, PathState]] = set()
        stack: list[tuple[int, PathState]] = [(cfg.entry, PathState())]
        steps = 0
        truncated = False
        while stack:
            steps += 1
            if steps > _DFS_STEP_LIMIT:
                truncated = True
                break
            block_id, state = stack.pop()
            if (block_id, state) in visited:
                continue
            visited.add((block_id, state))
            feasible.add(block_id)
            block = cfg.blocks[block_id]
            succs = cfg.successors(block_id)
            if block.role is BlockRole.CONDITION and len(succs) == 2:
                not_taken, taken = self._branch_states(block, state, writable)
                if not_taken is not None:
                    stack.append((succs[0], not_taken))
                if taken is not None:
                    stack.append((succs[1], taken))
            else:
                for succ in succs:
                    stack.append((succ, state))
        if truncated:
            # Sound degradation: everything not proven anything stays
            # potentially reachable.
            feasible |= set(cfg.blocks)
            self._truncated.add(syscall)
        result = frozenset(feasible)
        self._feasible[syscall] = result
        return result

    def dead_blocks(self) -> frozenset[int]:
        """Blocks of every handler that no satisfiable path reaches."""
        if self._dead is None:
            dead: set[int] = set()
            total = 0
            for syscall, cfg in self.kernel.handlers.items():
                feasible = self.handler_feasible(syscall)
                dead |= set(cfg.blocks) - feasible
                total += len(cfg.blocks)
            self._dead = frozenset(dead)
            if self.observer is not None:
                registry = self.observer.registry
                registry.gauge("analyze.blocks").set(total)
                registry.gauge("analyze.dead_blocks").set(len(dead))
        return self._dead

    def is_dead(self, block_id: int) -> bool:
        """Statically dead?  Blocks outside any handler (e.g. the
        interrupt trace) are never dead."""
        syscall = self.kernel.handler_of_block.get(block_id)
        if syscall is None or syscall not in self.kernel.handlers:
            return False
        return block_id not in self.handler_feasible(syscall)

    def solvable(self, block_id: int) -> bool:
        return not self.is_dead(block_id)

    # ----- shared dominators -----

    def dominators(self, syscall: str) -> dict[int, int | None]:
        cached = self._dominators.get(syscall)
        if cached is None:
            cached = dominator_tree(self.kernel.handlers[syscall])
            self._dominators[syscall] = cached
        return cached

    # ----- witnesses -----

    def feasible_path(self, target: int) -> PathWitness | None:
        """One satisfiable entry path to ``target``, or None when the
        block is statically dead (or outside every handler)."""
        syscall = self.kernel.handler_of_block.get(target)
        if syscall is None or syscall not in self.kernel.handlers:
            return None
        cfg = self.kernel.handlers[syscall]
        if target not in cfg.blocks:
            return None
        writable = self.flag_writers()
        # Prune with plain reachability-to-target first.
        can_reach: set[int] = {target}
        order = [target]
        while order:
            current = order.pop()
            for pred in self.kernel.preds.get(current, ()):
                if pred in cfg.blocks and pred not in can_reach:
                    can_reach.add(pred)
                    order.append(pred)
        if cfg.entry not in can_reach:
            return None
        visited: set[tuple[int, PathState]] = set()
        stack: list[tuple[int, tuple[int, ...], PathState]] = [
            (cfg.entry, (cfg.entry,), PathState())
        ]
        steps = 0
        while stack and steps < _DFS_STEP_LIMIT:
            steps += 1
            block_id, trail, state = stack.pop()
            if block_id == target:
                return PathWitness(syscall=syscall, blocks=trail, state=state)
            if (block_id, state) in visited:
                continue
            visited.add((block_id, state))
            block = cfg.blocks[block_id]
            succs = cfg.successors(block_id)
            if block.role is BlockRole.CONDITION and len(succs) == 2:
                not_taken, taken = self._branch_states(block, state, writable)
                # Prefer the default (false) edge: LIFO order means the
                # last push pops first, so push taken before not-taken.
                if taken is not None and succs[1] in can_reach:
                    stack.append((succs[1], trail + (succs[1],), taken))
                if not_taken is not None and succs[0] in can_reach:
                    stack.append((succs[0], trail + (succs[0],), not_taken))
            else:
                for succ in succs:
                    if succ in can_reach:
                        stack.append((succ, trail + (succ,), state))
        return None
