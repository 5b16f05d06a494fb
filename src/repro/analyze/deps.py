"""The argument-dependency oracle: static slicing of branch predicates.

Snowplow's premise (§3–§4) is that the compare instructions guarding an
uncovered branch are statically correlated with the syscall argument
that steers it; PMM *learns* that correlation from mutation data.  The
synthetic kernel constructs the correlation deterministically — every
:class:`ArgCondition` renders its steering slot's token into the block's
assembly — so it can also be *computed*: for each block this module
intersects the predicate sets of all entry paths, yielding the
**mandatory predicates** every execution reaching the block must
resolve.  Mandatory :class:`ArgCondition`\\ s name exact
``(syscall, path)`` steering slots; mandatory
:class:`StateCondition`\\ s are chased through a def-use chain to the
effect blocks of the producer syscalls that write the flag, whose own
mandatory slots become secondary steering slots.

:class:`StaticOracleLocalizer` packages the slice as a drop-in
:class:`~repro.fuzzer.localizer.Localizer`.  Scored against the static
truth it defines, it is exact by construction — the upper-bound row of
the Table-1 selector comparison, and the statically attainable maximum
PMM's precision/recall are reported against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analyze.reach import AbstractValue
from repro.errors import ProgramError
from repro.kernel.blocks import BlockRole
from repro.kernel.build import Kernel
from repro.kernel.cfg import HandlerCFG
from repro.kernel.conditions import ArgCondition, StateCondition, scalar_view
from repro.syzlang.program import ArgPath, Program, ResourceValue
from repro.syzlang.slots import slot_token

__all__ = [
    "BlockDependencies",
    "DependencyOracle",
    "Predicate",
    "StateDependency",
    "StaticOracleLocalizer",
    "SteeringSlot",
    "static_truths",
]


@dataclass(frozen=True)
class Predicate:
    """One resolved branch: a condition plus the polarity taken."""

    condition: ArgCondition | StateCondition
    taken: bool


@dataclass(frozen=True)
class SteeringSlot:
    """An exact argument slot that steers a block."""

    syscall: str
    path_elements: tuple[int, ...]

    @property
    def token(self) -> str:
        return slot_token(self.syscall, self.path_elements)

    def arg_paths(self, program: Program) -> list[ArgPath]:
        """The slot instantiated on every matching call of ``program``
        (paths that do not exist in the concrete value tree still
        count: steering them requires materializing them)."""
        return [
            ArgPath(call_index, self.path_elements)
            for call_index, call in enumerate(program.calls)
            if call.spec.full_name == self.syscall
        ]


@dataclass(frozen=True)
class StateDependency:
    """A mandatory state predicate, resolved through its producers.

    ``producers`` are the syscalls whose effect blocks write the flag;
    ``producer_slots`` are the mandatory steering slots of those effect
    blocks — mutating them steers the *producer* toward its commit path,
    which is how an argument mutation can flip a state branch at all.
    ``default_satisfied`` means a fresh :class:`KernelState` (flag 0)
    already resolves the branch the required way, so no producer call
    is needed.
    """

    key: str
    operand: int
    taken: bool
    producers: tuple[str, ...]
    producer_slots: tuple[SteeringSlot, ...]

    @property
    def default_satisfied(self) -> bool:
        satisfied_at_zero = 0 == self.operand
        return satisfied_at_zero == self.taken


@dataclass(frozen=True)
class BlockDependencies:
    """The full static slice of one block."""

    block_id: int
    syscall: str
    predicates: tuple[Predicate, ...]
    slots: tuple[SteeringSlot, ...]
    state_deps: tuple[StateDependency, ...]

    def steering_paths(self, program: Program) -> list[ArgPath]:
        """Every argument path of ``program`` that steers this block:
        direct slots first, then producer slots of unresolved state
        dependencies, deduplicated in deterministic order."""
        paths: list[ArgPath] = []
        seen: set[ArgPath] = set()
        slot_queue = list(self.slots)
        for dep in self.state_deps:
            if not dep.default_satisfied:
                slot_queue.extend(dep.producer_slots)
        for slot in slot_queue:
            for path in slot.arg_paths(program):
                if path not in seen:
                    seen.add(path)
                    paths.append(path)
        return paths

    def slot_abstracts(self) -> dict[tuple[str, tuple[int, ...]], AbstractValue]:
        """Per-slot :class:`AbstractValue` implied by the mandatory
        argument predicates (the value set a call must place in each
        slot for every predicate on it to resolve the required way)."""
        out: dict[tuple[str, tuple[int, ...]], AbstractValue] = {}
        for predicate in self.predicates:
            condition = predicate.condition
            if not isinstance(condition, ArgCondition):
                continue
            key = (condition.syscall, condition.path_elements)
            refined = out.get(key, AbstractValue()).refine(
                condition.op, condition.operand, predicate.taken
            )
            if refined is not None:
                out[key] = refined
        return out

    def pending_paths(self, program: Program) -> list[ArgPath]:
        """The steering paths whose *current* value still violates a
        mandatory predicate — what a directed mutation has to fix.

        Slots the program already satisfies are excluded so steering
        does not re-randomize them (and lose the progress the corpus
        entry encodes); producer slots of state dependencies have no
        local abstract value and always stay pending.
        """
        abstracts = self.slot_abstracts()
        pending: list[ArgPath] = []
        for path in self.steering_paths(program):
            call = program.calls[path.call_index]
            abstract = abstracts.get((call.spec.full_name, path.elements))
            if abstract is None:
                pending.append(path)
                continue
            try:
                value = program.get(path)
            except ProgramError:
                pending.append(path)  # slot not materialized yet
                continue
            if isinstance(value, ResourceValue):
                # The executor resolves a wired producer to a positive
                # handle; an unwired resource stays 0.
                concrete = 1 if value.producer is not None else 0
            else:
                concrete = scalar_view(value)
            if not abstract.admits(concrete):
                pending.append(path)
        return pending


def _topological_order(cfg: HandlerCFG) -> list[int]:
    in_degree = {block_id: 0 for block_id in cfg.blocks}
    for block_id in cfg.blocks:
        for succ in cfg.successors(block_id):
            in_degree[succ] += 1
    ready = [bid for bid, deg in sorted(in_degree.items()) if deg == 0]
    order: list[int] = []
    while ready:
        current = ready.pop()
        order.append(current)
        for succ in cfg.successors(current):
            in_degree[succ] -= 1
            if in_degree[succ] == 0:
                ready.append(succ)
    return order


class DependencyOracle:
    """Mandatory-predicate slices for every block of a kernel."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self._mandatory: dict[int, frozenset[Predicate]] = {}
        self._effect_writers: dict[str, list[int]] = {}
        for block_id, block in kernel.blocks.items():
            for key, _value in block.effects:
                self._effect_writers.setdefault(key, []).append(block_id)
        for writers in self._effect_writers.values():
            writers.sort()
        for cfg in kernel.handlers.values():
            self._slice_handler(cfg)

    def _slice_handler(self, cfg: HandlerCFG) -> None:
        """Intersection dataflow: a predicate is mandatory for a block
        iff every incoming edge carries it (either inherited from the
        predecessor or contributed by the branch edge itself)."""
        preds: dict[int, list[tuple[int, Predicate | None]]] = {
            block_id: [] for block_id in cfg.blocks
        }
        for block_id, block in cfg.blocks.items():
            succs = cfg.successors(block_id)
            if (
                block.role is BlockRole.CONDITION
                and block.condition is not None
                and len(succs) == 2
                and succs[0] != succs[1]
            ):
                preds[succs[0]].append(
                    (block_id, Predicate(block.condition, taken=False))
                )
                preds[succs[1]].append(
                    (block_id, Predicate(block.condition, taken=True))
                )
            else:
                for succ in succs:
                    preds[succ].append((block_id, None))
        self._mandatory[cfg.entry] = frozenset()
        for block_id in _topological_order(cfg):
            if block_id == cfg.entry:
                continue
            incoming: frozenset[Predicate] | None = None
            for pred_id, edge in preds[block_id]:
                carried = self._mandatory[pred_id]
                if edge is not None:
                    carried = carried | {edge}
                incoming = carried if incoming is None else incoming & carried
            self._mandatory[block_id] = incoming or frozenset()

    # ----- public API -----

    def mandatory_predicates(self, block_id: int) -> tuple[Predicate, ...]:
        """Every predicate all entry paths to ``block_id`` resolve,
        in deterministic order."""
        mandatory = self._mandatory.get(block_id, frozenset())
        return tuple(sorted(mandatory, key=_predicate_sort_key))

    def dependencies(self, block_id: int) -> BlockDependencies:
        syscall = self.kernel.handler_of_block.get(block_id, "")
        predicates = self.mandatory_predicates(block_id)
        slots: list[SteeringSlot] = []
        seen_slots: set[SteeringSlot] = set()
        state_deps: list[StateDependency] = []
        for predicate in predicates:
            condition = predicate.condition
            if isinstance(condition, ArgCondition):
                slot = SteeringSlot(condition.syscall, condition.path_elements)
                if slot not in seen_slots:
                    seen_slots.add(slot)
                    slots.append(slot)
            elif isinstance(condition, StateCondition):
                state_deps.append(
                    self._resolve_state(condition, predicate.taken)
                )
        return BlockDependencies(
            block_id=block_id,
            syscall=syscall,
            predicates=predicates,
            slots=tuple(slots),
            state_deps=tuple(state_deps),
        )

    def _resolve_state(
        self, condition: StateCondition, taken: bool
    ) -> StateDependency:
        """Def-use chase: from a flag read to the effect blocks that
        write it, pulling in the producers' own mandatory slots."""
        producers: list[str] = []
        producer_slots: list[SteeringSlot] = []
        seen: set[SteeringSlot] = set()
        for writer in self._effect_writers.get(condition.key, ()):
            producer = self.kernel.handler_of_block.get(writer)
            if producer is None:
                continue
            if producer not in producers:
                producers.append(producer)
            for predicate in self.mandatory_predicates(writer):
                inner = predicate.condition
                if isinstance(inner, ArgCondition):
                    slot = SteeringSlot(inner.syscall, inner.path_elements)
                    if slot not in seen:
                        seen.add(slot)
                        producer_slots.append(slot)
        return StateDependency(
            key=condition.key,
            operand=condition.operand,
            taken=taken,
            producers=tuple(sorted(producers)),
            producer_slots=tuple(producer_slots),
        )

    def effect_writers(self, key: str) -> tuple[int, ...]:
        return tuple(self._effect_writers.get(key, ()))


def _predicate_sort_key(predicate: Predicate):
    condition = predicate.condition
    if isinstance(condition, ArgCondition):
        return (0, condition.syscall, condition.path_elements,
                condition.op.value, condition.operand, predicate.taken)
    return (1, condition.key, (), "", condition.operand, predicate.taken)


class StaticOracleLocalizer:
    """Exact argument localization from the dependency oracle.

    A drop-in :class:`~repro.fuzzer.localizer.Localizer`: for each
    target block it returns the mandatory steering slots instantiated on
    the program's matching calls, including producer slots for state
    dependencies a fresh kernel state leaves unresolved.  Unlike
    :class:`~repro.snowplow.oracle.OracleLocalizer` (which reads only
    the closest guarding condition), this covers the *whole* mandatory
    chain — the statically attainable maximum a learned selector is
    measured against.
    """

    def __init__(
        self,
        kernel: Kernel,
        max_paths: int | None = None,
    ):
        self.kernel = kernel
        self.oracle = DependencyOracle(kernel)
        self.max_paths = max_paths

    def target_paths(self, program: Program, targets) -> list[ArgPath]:
        """Untruncated steering paths for ``targets``, deduplicated in
        deterministic order — the static ground truth for one example."""
        paths: list[ArgPath] = []
        seen: set[ArgPath] = set()
        for target in sorted(targets or ()):
            deps = self.oracle.dependencies(target)
            for path in deps.steering_paths(program):
                if path not in seen:
                    seen.add(path)
                    paths.append(path)
        return paths

    def localize(self, program, coverage, targets, rng) -> list[ArgPath]:
        paths = self.target_paths(program, targets)
        if self.max_paths is not None:
            return paths[: self.max_paths]
        return paths


def static_truths(
    localizer: StaticOracleLocalizer,
    programs: list[Program],
    examples,
) -> list[set[ArgPath]]:
    """Static ground-truth selection sets for dataset examples.

    For each :class:`~repro.pmm.dataset.MutationExample`, the truth is
    the full set of steering paths the oracle derives for its targets on
    its base program.  Scoring any selector's predictions against these
    sets with :func:`repro.pmm.metrics.evaluate_selector` reports
    performance relative to the statically attainable maximum; the
    static oracle itself scores 1.0 across the board by construction.
    """
    return [
        set(localizer.target_paths(
            programs[example.base_index], example.targets
        ))
        for example in examples
    ]
