"""Directed kernel fuzzing (the SyzDirect role, §5.4).

A directed fuzzer tries to *reach* a specific kernel block instead of
maximising total coverage.  The reimplementation captures SyzDirect's
mechanism class:

- static distance: the CFG hop count toward the target
  (:meth:`Kernel.target_distances` with no producer edges), used to
  rank corpus tests by their closest approach;
- resource-aware call planting: if the base test never invokes the
  target's system call, insert it (with any producer calls its resources
  need);
- argument prioritisation: once the right call is present, argument
  mutations are focused on that call.

Snowplow-D is the same fuzzer with the argument localizer swapped for
PMM, queried with the target block marked (§5.4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CampaignError, MutationError, ProgramError
from repro.fuzzer.corpus import Corpus
from repro.fuzzer.localizer import Localizer
from repro.fuzzer.mutations import ArgumentInstantiator
from repro.kernel.build import Kernel
from repro.kernel.coverage import Coverage
from repro.kernel.executor import Executor
from repro.syzlang.generator import ProgramGenerator
from repro.syzlang.program import ArgPath, Program
from repro.vclock import CostModel, VirtualClock

__all__ = [
    "DirectedFuzzer",
    "DirectedResult",
    "SyzDirectLocalizer",
    "plant_target_call",
]


def plant_target_call(
    program: Program,
    generator: ProgramGenerator,
    target_syscall: str,
    rng: np.random.Generator,
) -> bool:
    """Append ``target_syscall`` to ``program``, resource-aware.

    Producers for any resources the call consumes that the program does
    not already produce are inserted first (SyzDirect's call planting).
    Mutates ``program`` in place; returns False when the syscall is
    unknown to the generator's table.
    """
    if not target_syscall or target_syscall not in generator.table:
        return False
    spec = generator.table.lookup(target_syscall)
    position = len(program.calls)
    producers = generator.producers_in(program)
    for needed in spec.consumes():
        if needed.name not in producers:
            producer_specs = generator.table.producers_of(needed)
            if producer_specs:
                producer = producer_specs[
                    int(rng.integers(len(producer_specs)))
                ]
                call = generator.random_call(producer, producers)
                program.insert_call(position, call)
                position += 1
                producers.setdefault(needed.name, []).append(position - 1)
    program.insert_call(position, generator.random_call(spec, producers))
    return True


class SyzDirectLocalizer:
    """SyzDirect's heuristic argument localization.

    Prefers arguments of calls invoking the target's own system call;
    falls back to arguments of upstream resource producers, then to any
    argument — encoding the "mutate upstream calls that enable the right
    downstream call" heuristic described in §2.

    With a :class:`~repro.analyze.deps.DependencyOracle` attached, the
    heuristic is bypassed whenever the oracle derives exact steering
    slots for the target on this program: the statically-sliced
    ``(syscall, path)`` sites are returned directly (deterministically,
    no rng draw), and the heuristic only handles targets or programs the
    slice does not cover.
    """

    def __init__(self, target_syscall: str, k: int = 2, oracle=None):
        self.target_syscall = target_syscall
        self.k = k
        self.oracle = oracle

    def localize(self, program, coverage, targets, rng) -> list[ArgPath]:
        """Oracle slots when sliced, else sites on target-syscall calls
        first, then their upstream resource producers, then anything."""
        if self.oracle is not None and targets:
            exact: list[ArgPath] = []
            pending: list[ArgPath] = []
            seen: set[ArgPath] = set()
            seen_pending: set[ArgPath] = set()
            for target in sorted(targets):
                deps = self.oracle.dependencies(target)
                for path in deps.steering_paths(program):
                    if path not in seen:
                        seen.add(path)
                        exact.append(path)
                for path in deps.pending_paths(program):
                    if path not in seen_pending:
                        seen_pending.add(path)
                        pending.append(path)
            # Only the still-violated slots: re-randomizing slots the
            # base already satisfies would throw that progress away.
            # Never truncated to k either — every slot is *mandatory*,
            # so a deterministic cap would permanently starve the slots
            # beyond it.  All-satisfied programs (state deps, or a
            # not-taken edge) fall back to the full slot set.
            if pending:
                return pending
            if exact:
                return exact
        sites = program.mutation_sites()
        if not sites:
            return []
        target_calls = {
            index
            for index, call in enumerate(program.calls)
            if call.spec.full_name == self.target_syscall
        }
        upstream: set[int] = set()
        for index in target_calls:
            spec = program.calls[index].spec
            for needed in spec.consumes():
                for j, call in enumerate(program.calls[:index]):
                    produced = call.spec.produces
                    if produced is not None and produced.compatible_with(needed):
                        upstream.add(j)
        primary = [s for s in sites if s.call_index in target_calls]
        secondary = [s for s in sites if s.call_index in upstream]
        pool = primary or secondary or sites
        count = min(self.k, len(pool))
        picks = rng.permutation(len(pool))[:count]
        return [pool[int(pick)] for pick in picks]


@dataclass
class DirectedResult:
    """Outcome of one directed-fuzzing run."""

    target_block: int
    reached: bool
    time_to_target: float | None
    executions: int


class DirectedFuzzer:
    """Reach a target kernel block as fast as possible."""

    def __init__(
        self,
        kernel: Kernel,
        target_block: int,
        executor: Executor,
        generator: ProgramGenerator,
        localizer: Localizer,
        clock: VirtualClock,
        cost: CostModel,
        rng: np.random.Generator,
        insert_target_prob: float = 0.3,
        # Extra per-mutation cost (virtual s), e.g. amortized inference
        # for a learned localizer; reproduces Table 5's slight slowdowns
        # on trivial targets.
        mutation_overhead: float = 0.0,
    ):
        if target_block not in kernel.blocks:
            raise CampaignError(f"unknown target block {target_block}")
        self.kernel = kernel
        self.target_block = target_block
        self.target_syscall = kernel.handler_of_block.get(target_block, "")
        self.executor = executor
        self.generator = generator
        self.localizer = localizer
        self.clock = clock
        self.cost = cost
        self.rng = rng
        self.insert_target_prob = insert_target_prob
        self.mutation_overhead = mutation_overhead
        self.instantiator = ArgumentInstantiator(generator, rng)
        self.distance = kernel.target_distances([target_block])
        self.corpus = Corpus()
        self._closeness: list[int] = []

    # ----- setup -----

    def seed(self, programs: list[Program]) -> None:
        """Execute the seed corpus and record closest approaches."""
        for program in programs:
            if self.clock.expired():
                break
            self.clock.advance(self.cost.test_execution, "execution")
            result = self.executor.run(program)
            self.corpus.add(program, result.coverage, signal=1)
            self._closeness.append(self._approach(result.coverage))

    def _approach(self, coverage: Coverage) -> int:
        """Hops from the test's closest covered block to the target."""
        best = 10**9
        for block in coverage.blocks:
            hops = self.distance.get(block)
            if hops is not None and hops < best:
                best = hops
        return best

    # ----- the search -----

    def run(self) -> DirectedResult:
        """Search until the target is covered or the horizon expires."""
        if not self.corpus.entries:
            raise CampaignError("seed() must be called before run()")
        executions = 0
        while not self.clock.expired():
            index = self._choose_index()
            base = self.corpus.entries[index]
            candidate = self._mutate(base.program, base.coverage)
            self.clock.advance(
                self.cost.mutation + self.mutation_overhead, "mutation"
            )
            self.clock.advance(self.cost.test_execution, "execution")
            executions += 1
            result = self.executor.run(candidate)
            if self.target_block in result.coverage.blocks:
                return DirectedResult(
                    target_block=self.target_block,
                    reached=True,
                    time_to_target=self.clock.now,
                    executions=executions,
                )
            approach = self._approach(result.coverage)
            if approach < min(self._closeness, default=10**9):
                self.corpus.add(candidate, result.coverage, signal=1)
                self._closeness.append(approach)
        return DirectedResult(
            target_block=self.target_block,
            reached=False,
            time_to_target=None,
            executions=executions,
        )

    def _choose_index(self) -> int:
        """Pick the base test, favouring closest approach (SyzDirect's
        seed-selection heuristic)."""
        weights = np.array(
            [1.0 / (1.0 + hops) for hops in self._closeness], dtype=float
        )
        weights /= weights.sum()
        return int(self.rng.choice(len(weights), p=weights))

    def _mutate(self, base: Program, coverage: Coverage) -> Program:
        mutated = base.clone()
        has_target_call = any(
            call.spec.full_name == self.target_syscall
            for call in mutated.calls
        )
        if not has_target_call or self.rng.random() < self.insert_target_prob:
            self._insert_target_call(mutated)
            return mutated
        paths = self.localizer.localize(
            mutated, coverage, {self.target_block}, self.rng
        )
        for path in paths:
            try:
                self.instantiator.instantiate(mutated, path)
            except (MutationError, ProgramError):
                continue
        return mutated

    def _insert_target_call(self, program: Program) -> None:
        """Plant the target's system call, with producers for its
        resources (resource-aware planting)."""
        plant_target_call(program, self.generator, self.target_syscall, self.rng)
