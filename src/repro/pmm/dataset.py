"""The mutation dataset pipeline (§3.1).

Harvesting: each base test in a seed corpus is executed once for its
baseline coverage, then mutated many times with the fuzzer's *random*
argument localization + instantiation.  Every mutant whose coverage
contains blocks the base missed yields a successful-mutation sample
⟨s_i, c_i, a_ij, c_ij \\ c_i⟩; mutations of the same base reaching the
same new coverage are merged, so a_ij may contain several arguments.

Example construction inverts the samples into training queries using the
paper's option (c): the target set is drawn from the *noisy* frontier —
all uncovered blocks one branch away from c_i — at 1-element, 25 %, 50 %,
75 %, or 100 % sampling, forced to overlap the actually-achieved nearby
new coverage.  Examples whose targets are over-popular kernel blocks are
capped, and splits are made per base test so no base leaks across
train/validation/evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import DatasetError, MutationError
from repro.fuzzer.mutations import ArgumentInstantiator
from repro.graphs.build import build_query_graph
from repro.graphs.encode import EncodedGraph, GraphEncoder
from repro.kernel.build import Kernel
from repro.kernel.coverage import Coverage
from repro.kernel.executor import Executor
from repro.rng import split
from repro.syzlang.generator import ProgramGenerator
from repro.syzlang.program import ArgPath, Program

__all__ = [
    "DatasetConfig",
    "MutationSample",
    "MutationExample",
    "MutationDataset",
    "harvest_mutations",
    "make_examples",
]

_SAMPLE_FRACTIONS = (None, 0.25, 0.50, 0.75, 1.00)  # None = single block


@dataclass(frozen=True)
class MutationSample:
    """One successful argument mutation ⟨s_i, c_i, a_ij, c_ij \\ c_i⟩."""

    base_index: int
    mutated_paths: frozenset[ArgPath]
    new_blocks: frozenset[int]


@dataclass
class MutationExample:
    """One training query: base + coverage + targets → MUTATE labels."""

    base_index: int
    targets: frozenset[int]
    labels: frozenset[ArgPath]


# Popularity cap: examples kept per target block.
MAX_EXAMPLES_PER_BLOCK = 40
# Per-base-test split; the rest is the evaluation split.
TRAIN_FRACTION = 0.8
VALIDATION_FRACTION = 0.1


@dataclass
class DatasetConfig:
    """Pipeline knobs (paper values in comments)."""

    mutations_per_test: int = 200          # paper: 1000
    # §3.1 target construction: "noisy" is the paper's chosen option (c)
    # — frontier sampling at 1/25/50/75/100 % with forced overlap;
    # "exact" is the rejected option (a) — the target set is exactly the
    # mutation's new coverage.  Kept for the design ablation.
    target_strategy: str = "noisy"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.target_strategy not in ("noisy", "exact"):
            raise DatasetError(
                f"unknown target strategy {self.target_strategy!r}"
            )


@dataclass
class MutationDataset:
    """The full dataset: base tests, their coverage, and split examples."""

    programs: list[Program]
    coverages: list[Coverage]
    samples: list[MutationSample]
    train: list[MutationExample] = field(default_factory=list)
    validation: list[MutationExample] = field(default_factory=list)
    evaluation: list[MutationExample] = field(default_factory=list)

    def encode_example(
        self,
        example: MutationExample,
        kernel: Kernel,
        encoder: GraphEncoder,
    ) -> EncodedGraph:
        """Build + encode the query graph of one example, with labels."""
        program = self.programs[example.base_index]
        coverage = self.coverages[example.base_index]
        graph = build_query_graph(
            program, coverage, kernel, set(example.targets)
        )
        labels = {path: True for path in example.labels}
        return encoder.encode(graph, labels=labels)

    def stats(self) -> dict[str, float]:
        """Summary statistics (the §5.1 dataset characterisation)."""
        sites = [len(p.mutation_sites()) for p in self.programs]
        merged_sizes = [len(s.mutated_paths) for s in self.samples]
        per_base: dict[int, int] = {}
        for sample in self.samples:
            per_base[sample.base_index] = per_base.get(sample.base_index, 0) + 1
        return {
            "base_tests": len(self.programs),
            "avg_mutation_sites": float(np.mean(sites)) if sites else 0.0,
            "samples": len(self.samples),
            "avg_samples_per_base": (
                float(np.mean(list(per_base.values()))) if per_base else 0.0
            ),
            "avg_label_size": (
                float(np.mean(merged_sizes)) if merged_sizes else 0.0
            ),
            "train_examples": len(self.train),
            "validation_examples": len(self.validation),
            "evaluation_examples": len(self.evaluation),
        }


def harvest_mutations(
    kernel: Kernel,
    executor: Executor,
    generator: ProgramGenerator,
    corpus: list[Program],
    config: DatasetConfig,
) -> MutationDataset:
    """Run the §3.1 harvesting campaign over ``corpus``."""
    if not corpus:
        raise DatasetError("harvesting needs a non-empty corpus")
    rng = split(config.seed, "harvest")
    instantiator = ArgumentInstantiator(generator, rng)
    programs: list[Program] = []
    coverages: list[Coverage] = []
    samples: list[MutationSample] = []
    for base_index, base in enumerate(corpus):
        base_result = executor.run(base)
        if base_result.crashed:
            # §5.1: crashing base tests are excluded from data generation.
            continue
        kept_index = len(programs)
        programs.append(base)
        coverages.append(base_result.coverage)
        sites = base.mutation_sites()
        if not sites:
            continue
        merged: dict[frozenset[int], set[ArgPath]] = {}
        for _ in range(config.mutations_per_test):
            path = sites[int(rng.integers(len(sites)))]
            mutant = base.clone()
            try:
                instantiator.instantiate(mutant, path)
            except MutationError:
                continue
            result = executor.run(mutant)
            new_blocks = result.coverage.blocks - base_result.coverage.blocks
            if not new_blocks:
                continue
            merged.setdefault(frozenset(new_blocks), set()).add(path)
        for new_blocks, paths in merged.items():
            samples.append(
                MutationSample(
                    base_index=kept_index,
                    mutated_paths=frozenset(paths),
                    new_blocks=new_blocks,
                )
            )
    dataset = MutationDataset(
        programs=programs, coverages=coverages, samples=samples
    )
    _build_examples(dataset, kernel, config)
    return dataset


def make_examples(
    sample: MutationSample,
    base_samples: list[MutationSample],
    coverage: Coverage,
    kernel: Kernel,
    rng: np.random.Generator,
) -> list[MutationExample]:
    """Invert one sample into training examples (§3.1 option (c)).

    The noisy target pool is the one-branch frontier of the base
    coverage; the achieved part is the sample's new blocks that lie in
    that frontier.  Samples without any near new coverage are skipped.

    The MUTATE label of an example is the union of mutated arguments
    across *all* of the base's samples whose near new coverage overlaps
    the chosen targets — i.e. every argument known to steer the test into
    some targeted block — which is the quantity the localizer is asked to
    predict ("which arguments, when mutated, would lead the test to reach
    the desired target coverage", §3).
    """
    frontier = kernel.frontier(coverage.blocks)
    achieved_near = sample.new_blocks & frontier
    if not achieved_near:
        return []
    pool = sorted(frontier)
    achieved_list = sorted(achieved_near)
    examples: list[MutationExample] = []
    for fraction in _SAMPLE_FRACTIONS:
        if fraction is None:
            targets = {achieved_list[int(rng.integers(len(achieved_list)))]}
        else:
            count = max(1, int(round(fraction * len(pool))))
            picks = rng.permutation(len(pool))[:count]
            targets = {pool[int(pick)] for pick in picks}
            if not targets & achieved_near:
                # Force the required overlap with achieved new coverage.
                targets.add(
                    achieved_list[int(rng.integers(len(achieved_list)))]
                )
        labels: set[ArgPath] = set()
        for peer in base_samples:
            if (peer.new_blocks & frontier) & targets:
                labels.update(peer.mutated_paths)
        examples.append(
            MutationExample(
                base_index=sample.base_index,
                targets=frozenset(targets),
                labels=frozenset(labels),
            )
        )
    return examples


def _build_examples(
    dataset: MutationDataset, kernel: Kernel, config: DatasetConfig
) -> None:
    rng = split(config.seed, "examples")
    by_base: dict[int, list[MutationSample]] = {}
    for sample in dataset.samples:
        by_base.setdefault(sample.base_index, []).append(sample)
    all_examples: list[MutationExample] = []
    for sample in dataset.samples:
        coverage = dataset.coverages[sample.base_index]
        if config.target_strategy == "exact":
            all_examples.append(
                MutationExample(
                    base_index=sample.base_index,
                    targets=sample.new_blocks,
                    labels=sample.mutated_paths,
                )
            )
            continue
        all_examples.extend(
            make_examples(
                sample, by_base[sample.base_index], coverage, kernel, rng
            )
        )
    capped = _apply_popularity_cap(all_examples, MAX_EXAMPLES_PER_BLOCK, rng)
    _split_examples(dataset, capped, config)


def _apply_popularity_cap(
    examples: list[MutationExample], cap: int, rng: np.random.Generator
) -> list[MutationExample]:
    """Discard examples whose targets are already over-represented."""
    if cap <= 0:
        raise DatasetError(f"popularity cap must be positive, got {cap}")
    counts: dict[int, int] = {}
    kept: list[MutationExample] = []
    order = rng.permutation(len(examples))
    for index in order:
        example = examples[int(index)]
        if any(counts.get(block, 0) >= cap for block in example.targets):
            continue
        for block in example.targets:
            counts[block] = counts.get(block, 0) + 1
        kept.append(example)
    return kept


def _split_examples(
    dataset: MutationDataset,
    examples: list[MutationExample],
    config: DatasetConfig,
) -> None:
    """Per-base-test split: all examples of a base land in one split."""
    rng = split(config.seed, "split")
    base_indices = sorted({example.base_index for example in examples})
    order = rng.permutation(len(base_indices))
    shuffled = [base_indices[int(i)] for i in order]
    n_train = int(TRAIN_FRACTION * len(shuffled))
    n_val = int(VALIDATION_FRACTION * len(shuffled))
    train_bases = set(shuffled[:n_train])
    val_bases = set(shuffled[n_train : n_train + n_val])
    for example in examples:
        if example.base_index in train_bases:
            dataset.train.append(example)
        elif example.base_index in val_bases:
            dataset.validation.append(example)
        else:
            dataset.evaluation.append(example)
