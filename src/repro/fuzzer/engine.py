"""The three-stage mutation engine of Figure 1.

``mutate_test`` composes the policy functions exactly as the paper's
pseudocode: the *selector* picks a mutation type, the *localizer* picks
where to apply it, and the *instantiator* performs it.  The engine is
strategy-agnostic: Syzkaller is this engine with heuristic policies,
Snowplow is this engine with a learned argument localizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MutationError
from repro.fuzzer.localizer import Localizer
from repro.fuzzer.mutations import ArgumentInstantiator, MutationType
from repro.kernel.coverage import Coverage
from repro.rng import choice_weighted
from repro.syzlang.generator import ProgramGenerator
from repro.syzlang.program import ArgPath, Program

__all__ = ["TypeSelector", "MutationEngine", "MutationOutcome"]


class TypeSelector:
    """Syzkaller-style fixed-probability mutation-type selection.

    The default selector flips a biased coin, ignoring the target (§2).
    """

    def __init__(
        self,
        argument_weight: float = 0.60,
        insertion_weight: float = 0.30,
        removal_weight: float = 0.10,
    ):
        if min(argument_weight, insertion_weight, removal_weight) < 0:
            raise ValueError("mutation-type weights must be non-negative")
        self.weights = {
            MutationType.ARGUMENT_MUTATION: argument_weight,
            MutationType.SYSCALL_INSERTION: insertion_weight,
            MutationType.SYSCALL_REMOVAL: removal_weight,
        }

    def select(
        self, program: Program, targets: set[int] | None,
        rng: np.random.Generator,
    ) -> MutationType:
        """Pick a mutation type with the configured biased coin."""
        types = list(self.weights)
        weights = [self.weights[m_type] for m_type in types]
        choice = choice_weighted(rng, types, weights)
        if choice is MutationType.SYSCALL_REMOVAL and len(program) <= 1:
            return MutationType.ARGUMENT_MUTATION
        return choice


@dataclass
class MutationOutcome:
    """What mutate_test produced and where it mutated."""

    program: Program
    mutation_type: MutationType
    mutated_paths: list[ArgPath]


class MutationEngine:
    """Applies one mutation to a base test."""

    def __init__(
        self,
        selector: TypeSelector,
        localizer: Localizer,
        generator: ProgramGenerator,
        rng: np.random.Generator,
    ):
        self.selector = selector
        self.localizer = localizer
        self.generator = generator
        self.instantiator = ArgumentInstantiator(generator, rng)
        self.rng = rng

    def mutate_test(
        self,
        base: Program,
        base_coverage: Coverage | None = None,
        forced_paths: list[ArgPath] | None = None,
        hints: frozenset[int] | None = None,
    ) -> MutationOutcome:
        """One mutation of ``base`` (Figure 1's ``mutate_test``).

        ``forced_paths`` bypasses type selection and localization: it is
        how asynchronous PMM predictions are injected once inference
        completes (§3.4).
        """
        mutated = base.clone()
        if forced_paths is not None:
            # PMM-guided bursts target comparison-guarded branches by
            # construction, so comparison-operand hints apply with high
            # probability (Syzkaller's comparison-guided mutation mode).
            applied = self._apply_argument_mutations(
                mutated, forced_paths, hints, hint_prob=0.6
            )
            return MutationOutcome(
                mutated, MutationType.ARGUMENT_MUTATION, applied
            )
        m_type = self.selector.select(mutated, None, self.rng)
        if m_type is MutationType.ARGUMENT_MUTATION:
            paths = self.localizer.localize(
                mutated, base_coverage, None, self.rng
            )
            applied = self._apply_argument_mutations(mutated, paths, hints)
            return MutationOutcome(mutated, m_type, applied)
        if m_type is MutationType.SYSCALL_INSERTION:
            self._insert_call(mutated)
            return MutationOutcome(mutated, m_type, [])
        self._remove_call(mutated)
        return MutationOutcome(mutated, m_type, [])

    # ----- helpers -----

    def _apply_argument_mutations(
        self,
        program: Program,
        paths: list[ArgPath],
        hints: frozenset[int] | None = None,
        hint_prob: float = 0.30,
    ) -> list[ArgPath]:
        applied: list[ArgPath] = []
        for path in paths:
            try:
                self.instantiator.instantiate(
                    program, path, set(hints) if hints else None,
                    hint_prob=hint_prob,
                )
            except MutationError:
                continue
            applied.append(path)
        return applied

    def _insert_call(self, program: Program) -> None:
        producers = self.generator.producers_in(program)
        table = self.generator.table
        spec = table.specs[int(self.rng.integers(len(table.specs)))]
        position = int(self.rng.integers(0, len(program) + 1))
        available = {
            kind: [idx for idx in indices if idx < position]
            for kind, indices in producers.items()
        }
        call = self.generator.random_call(spec, available)
        program.insert_call(position, call)

    def _remove_call(self, program: Program) -> None:
        if len(program) <= 1:
            return
        index = int(self.rng.integers(len(program)))
        program.remove_call(index)
