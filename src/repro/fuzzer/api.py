"""The paper's Figure 1 controller API, verbatim.

The library's object-oriented loop (:mod:`repro.fuzzer.loop`) is what
campaigns use; this module additionally exposes the exact functional
decomposition of the paper's pseudocode — ``fuzz_corpus(corpus,
choose_test, selector, localizer, instantiator, targets)`` — so the
controller-policy experiments read like the paper.

Policies are plain callables:

- ``choose_test(corpus, uncovered, covered, targets, rng) -> (test, target)``
- ``selector(test, target, rng) -> MutationType``
- ``localizer(test, target, m_type, rng) -> list[ArgPath]``
- ``instantiator(test, target, m_type, location, rng) -> None`` (mutates
  in place)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import CampaignError
from repro.fuzzer.mutations import MutationType
from repro.kernel.build import Kernel
from repro.kernel.executor import Executor
from repro.syzlang.program import ArgPath, Program

__all__ = ["FuzzReport", "fuzz_corpus", "mutate_test", "apply_mutation"]


@dataclass
class FuzzReport:
    """What the Figure 1 loop produced."""

    covered: set[int] = field(default_factory=set)
    crashes: list = field(default_factory=list)
    executions: int = 0
    corpus: list[Program] = field(default_factory=list)
    targets_reached: set[int] = field(default_factory=set)


def apply_mutation(
    test: Program,
    m_type: MutationType,
    location: list[ArgPath],
    instantiation: Callable[[Program, list[ArgPath]], None],
) -> Program:
    """Figure 1 line 34: apply one mutation, returning a new test."""
    mutated = test.clone()
    instantiation(mutated, location)
    return mutated


def mutate_test(
    test_to_mutate: Program,
    target: int | None,
    selector,
    localizer,
    instantiator,
    rng: np.random.Generator,
) -> Program:
    """Figure 1 lines 25-38: type selection, localization, instantiation."""
    m_type = selector(test_to_mutate, target, rng)
    location = localizer(test_to_mutate, target, m_type, rng)
    return apply_mutation(
        test_to_mutate,
        m_type,
        location,
        lambda program, paths: instantiator(
            program, target, m_type, paths, rng
        ),
    )


def fuzz_corpus(
    corpus: list[Program],
    choose_test,
    selector,
    localizer,
    instantiator,
    kernel: Kernel,
    executor: Executor,
    rng: np.random.Generator,
    targets: set[int] | None = None,
    max_executions: int = 10_000,
    update_corpus=None,
) -> FuzzReport:
    """Figure 1 lines 1-23, with an execution budget instead of an
    unbounded ``while``.

    ``targets=None`` makes the campaign undirected (line 4: every block
    of the kernel CFG is desirable); otherwise the loop runs until all
    targets are covered or the budget is spent.
    """
    if not corpus:
        raise CampaignError("fuzz_corpus needs a non-empty corpus")
    uncovered: set[int] = set(kernel.blocks)
    covered: set[int] = set()
    desired = set(kernel.blocks) if targets is None else set(targets)
    report = FuzzReport(corpus=list(corpus))

    while not desired <= covered and report.executions < max_executions:
        test, target = choose_test(
            report.corpus, uncovered, covered, desired, rng
        )
        mutated = mutate_test(
            test, target, selector, localizer, instantiator, rng
        )
        result = executor.run(mutated)
        report.executions += 1
        if result.crash is not None:
            report.crashes.append((mutated, result.crash))
        coverage = result.coverage.blocks
        new_blocks = coverage - covered
        if update_corpus is not None:
            update_corpus(report.corpus, test, mutated, coverage, uncovered)
        elif new_blocks:
            report.corpus.append(mutated)
        uncovered -= coverage
        covered |= coverage
        report.targets_reached = desired & covered

    report.covered = covered
    return report
