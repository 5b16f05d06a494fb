"""repro.analyze: abstract domain, dominators, reachability, the
dependency oracle, witness soundness, and the lint framework."""

import copy
import json

import pytest

from repro.analyze import (
    AbstractValue,
    DependencyOracle,
    FlagRequirement,
    ReachabilityAnalysis,
    StaticOracleLocalizer,
    dominator_tree,
    findings_json,
    load_findings,
    registered_checks,
    run_corpus_checks,
    run_kernel_checks,
    static_truths,
    strict_failures,
    witness_program,
)
from repro.errors import AnalysisError
from repro.fuzzer import RandomLocalizer
from repro.fuzzer.directed import SyzDirectLocalizer
from repro.kernel import Coverage, Executor, build_kernel
from repro.kernel.blocks import BasicBlock, BlockRole
from repro.kernel.cfg import HandlerCFG
from repro.kernel.conditions import ArgCondition, CondOp, StateCondition
from repro.pmm import DatasetConfig, PMMConfig, TrainConfig, evaluate_selector
from repro.rng import derive_seed, make_rng, split
from repro.snowplow import CampaignConfig, train_pmm
from repro.snowplow.campaign import build_fuzz_loop, build_loop
from repro.snowplow.checkpointing import loop_state, restore_loop_state
from repro.syzlang import ProgramGenerator


@pytest.fixture(scope="module")
def tiny_68():
    return build_kernel("6.8", seed=1, size="tiny")


@pytest.fixture(scope="module")
def reach_68(tiny_68):
    return ReachabilityAnalysis(tiny_68)


@pytest.fixture(scope="module")
def oracle_68(tiny_68):
    return DependencyOracle(tiny_68)


# ----- abstract domain -----


class TestAbstractValue:
    def test_eq_pins_and_contradicts(self):
        av = AbstractValue().refine(CondOp.EQ, 5, True)
        assert av.lo == av.hi == 5
        assert av.admits(5) and not av.admits(4)
        assert av.refine(CondOp.EQ, 6, True) is None
        assert av.refine(CondOp.NE, 5, True) is None

    def test_ne_trims_boundaries(self):
        av = AbstractValue(lo=3, hi=7)
        trimmed = av.refine(CondOp.NE, 3, True)
        assert trimmed.lo == 4 and trimmed.hi == 7
        pinned = AbstractValue(lo=2, hi=2)
        assert pinned.refine(CondOp.NE, 2, True) is None
        assert pinned.refine(CondOp.EQ, 2, False) is None

    def test_lt_gt_bounds(self):
        av = AbstractValue()
        assert av.refine(CondOp.LT, 10, True).hi == 9
        assert av.refine(CondOp.LT, 10, False).lo == 10
        assert av.refine(CondOp.GT, 10, True).lo == 11
        assert av.refine(CondOp.GT, 10, False).hi == 10
        assert (
            av.refine(CondOp.GT, 10, True).refine(CondOp.LT, 5, True) is None
        )

    def test_mask_set_and_clear_conflict(self):
        av = AbstractValue().refine(CondOp.MASK_SET, 0b1000, True)
        assert av.must_set == 0b1000
        assert av.refine(CondOp.MASK_CLEAR, 0b1000, True) is None

    def test_mask_negations(self):
        av = AbstractValue().refine(CondOp.MASK_SET, 0b100, True)
        # "not all bits of 0b100 set" contradicts the forced bit.
        assert av.refine(CondOp.MASK_SET, 0b100, False) is None
        # Single-bit negation of MASK_SET flips to must_clear ...
        single = AbstractValue().refine(CondOp.MASK_SET, 0b10, False)
        assert single.must_clear == 0b10
        # ... multi-bit negation stays unconstrained (sound, not exact).
        multi = AbstractValue().refine(CondOp.MASK_SET, 0b110, False)
        assert multi.must_clear == 0 and multi.must_set == 0
        # value & 0 != 0 can never hold.
        assert AbstractValue().refine(CondOp.MASK_CLEAR, 0, False) is None
        forced = AbstractValue().refine(CondOp.MASK_CLEAR, 0b1, False)
        assert forced.must_set == 0b1

    def test_interval_mask_interplay(self):
        # must_set 8 with a non-negative value forces value >= 8, so an
        # upper bound below the mask is a contradiction.
        av = AbstractValue(lo=0).refine(CondOp.MASK_SET, 8, True)
        assert av.refine(CondOp.LT, 8, True) is None
        alive = av.refine(CondOp.LT, 9, True)
        assert alive is not None and alive.example() == 8

    def test_example_satisfies(self):
        cases = [
            AbstractValue(),
            AbstractValue(lo=5, hi=9),
            AbstractValue().refine(CondOp.MASK_SET, 0b101, True),
            AbstractValue(lo=1).refine(CondOp.MASK_CLEAR, 0b1, True),
            AbstractValue(lo=-20, hi=-3),
        ]
        for av in cases:
            assert av.admits(av.example())

    def test_example_raises_on_empty(self):
        with pytest.raises(AnalysisError):
            AbstractValue(lo=1, hi=0).example()


class TestFlagRequirement:
    def test_conflicting_equalities(self):
        req = FlagRequirement().require(1, True)
        assert req.require(2, True) is None
        assert req.require(1, False) is None

    def test_needed_value(self):
        assert FlagRequirement().needed_value(frozenset()) is None
        req = FlagRequirement().require(3, True)
        assert req.needed_value(frozenset({3})) == 3
        avoid = FlagRequirement().require(0, False)
        assert avoid.needed_value(frozenset({2})) == 2
        with pytest.raises(AnalysisError):
            avoid.needed_value(frozenset())

    def test_satisfiable(self):
        req = FlagRequirement().require(7, True)
        assert not req.satisfiable(frozenset({1, 2}))
        assert req.satisfiable(frozenset({7}))
        assert not FlagRequirement().require(0, False).satisfiable(frozenset())


# ----- dominators -----


def _mk_cfg(roles, succs):
    cfg = HandlerCFG(syscall="test$cfg", entry=0)
    for block_id, role in roles.items():
        cfg.blocks[block_id] = BasicBlock(
            block_id=block_id, label=f"b{block_id}", subsystem="test",
            role=role,
        )
    cfg.succs = {k: tuple(v) for k, v in succs.items()}
    cfg.validate()
    return cfg


class TestDominatorTree:
    def test_nested_diamond(self):
        c = BlockRole.CONDITION
        b = BlockRole.BODY
        cfg = _mk_cfg(
            {0: BlockRole.ENTRY, 1: c, 2: b, 3: c, 4: b, 5: b,
             6: BlockRole.EXIT_SUCCESS},
            {0: [1], 1: [2, 3], 2: [6], 3: [4, 5], 4: [6], 5: [6], 6: []},
        )
        idom = dominator_tree(cfg)
        assert idom == {0: None, 1: 0, 2: 1, 3: 1, 4: 3, 5: 3, 6: 1}

    def test_straight_line(self):
        cfg = _mk_cfg(
            {0: BlockRole.ENTRY, 1: BlockRole.BODY,
             2: BlockRole.EXIT_SUCCESS},
            {0: [1], 1: [2], 2: []},
        )
        assert dominator_tree(cfg) == {0: None, 1: 0, 2: 1}

    def test_matches_reachability_wrapper(self, tiny_68, reach_68):
        name = sorted(tiny_68.handlers)[0]
        assert reach_68.dominators(name) == dominator_tree(
            tiny_68.handlers[name]
        )


# ----- reachability -----


def _inject_dead_bug_chain(kernel):
    """A copy of ``kernel`` where one bug's crash block is made
    statically dead by rewriting a condition on its feasible path."""
    mutant = copy.deepcopy(kernel)
    reach = ReachabilityAnalysis(mutant)
    for bug_id in sorted(mutant.bug_blocks):
        crash_id = mutant.bug_blocks[bug_id]
        path = reach.feasible_path(crash_id)
        if path is None:
            continue
        cfg = mutant.handlers[path.syscall]
        for prev, nxt in zip(path.blocks, path.blocks[1:]):
            block = mutant.blocks[prev]
            if block.role is not BlockRole.CONDITION:
                continue
            if not isinstance(block.condition, ArgCondition):
                continue
            taken = cfg.succs[prev][1] == nxt
            if taken:
                # Demand a flag value no effect block ever writes.
                block.condition = StateCondition(
                    key="injected_never_written", operand=7
                )
            else:
                # The not-taken edge of `value & 0 == 0` is vacuously
                # unsatisfiable.
                block.condition = ArgCondition(
                    block.condition.syscall,
                    block.condition.path_elements,
                    CondOp.MASK_CLEAR,
                    0,
                )
            return mutant, crash_id
    raise AssertionError("no bug chain with an ArgCondition on its path")


class TestReachability:
    def test_dead_blocks_exist_and_are_consistent(self, tiny_68, reach_68):
        dead = reach_68.dead_blocks()
        assert dead, "generator's nested conditions produce dead blocks"
        assert dead <= set(tiny_68.blocks)
        for block_id in sorted(dead)[:10]:
            assert reach_68.is_dead(block_id)
            assert not reach_68.solvable(block_id)
        # Stock kernels keep every planted bug chain reachable.
        assert not any(
            tiny_68.blocks[b].role is BlockRole.CRASH for b in dead
        )

    def test_feasible_path_is_a_real_path(self, tiny_68, reach_68):
        checked = 0
        for name in sorted(tiny_68.handlers)[:6]:
            cfg = tiny_68.handlers[name]
            for block_id in sorted(cfg.blocks):
                if reach_68.is_dead(block_id):
                    continue
                path = reach_68.feasible_path(block_id)
                assert path is not None
                assert path.blocks[0] == cfg.entry
                assert path.blocks[-1] == block_id
                for prev, nxt in zip(path.blocks, path.blocks[1:]):
                    assert nxt in cfg.succs[prev]
                checked += 1
        assert checked > 0

    def test_distance_matches_kernel(self, tiny_68, reach_68):
        target = sorted(tiny_68.bug_blocks.values())[0]
        assert reach_68.distance_to(target) == tiny_68.distance_to(target)

    def test_injected_contradiction_kills_bug_chain(self, tiny_68):
        mutant, crash_id = _inject_dead_bug_chain(tiny_68)
        assert crash_id in ReachabilityAnalysis(mutant).dead_blocks()
        # The pristine kernel is untouched.
        assert crash_id not in ReachabilityAnalysis(tiny_68).dead_blocks()


# ----- witness soundness / completeness -----


class TestWitnessSoundness:
    def test_witnesses_cover_their_targets_68(self, tiny_68, reach_68,
                                              oracle_68):
        executor = Executor(tiny_68, seed=7)
        targets = []
        for name in sorted(tiny_68.handlers):
            cfg = tiny_68.handlers[name]
            live = [
                b for b in sorted(cfg.blocks) if not reach_68.is_dead(b)
            ]
            targets.extend(live[::5])  # sampled; the bench runs them all
        targets.extend(sorted(tiny_68.bug_blocks.values()))
        assert targets
        for block_id in targets:
            program = witness_program(
                tiny_68, block_id, reach=reach_68, oracle=oracle_68
            )
            assert program is not None, f"no witness for live {block_id}"
            result = executor.run(program)
            assert block_id in result.coverage.blocks, (
                f"witness misses its target block {block_id}"
            )

    @pytest.mark.parametrize("version", ["6.9", "6.10"])
    def test_witnesses_cover_their_targets_other_releases(self, version):
        kernel = build_kernel(version, seed=1, size="tiny")
        reach = ReachabilityAnalysis(kernel)
        oracle = DependencyOracle(kernel)
        executor = Executor(kernel, seed=7)
        live = [
            b for name in sorted(kernel.handlers)
            for b in sorted(kernel.handlers[name].blocks)
            if not reach.is_dead(b)
        ]
        for block_id in live[::9]:
            program = witness_program(
                kernel, block_id, reach=reach, oracle=oracle
            )
            assert program is not None
            assert block_id in executor.run(program).coverage.blocks

    def test_random_programs_never_cover_dead_blocks(self, tiny_68,
                                                     reach_68):
        dead = reach_68.dead_blocks()
        executor = Executor(tiny_68, seed=3)
        generator = ProgramGenerator(tiny_68.table, make_rng(42))
        for _ in range(150):
            result = executor.run(generator.random_program())
            hit = result.coverage.blocks & dead
            assert not hit, f"'dead' blocks {sorted(hit)} were covered"


# ----- dependency oracle -----


class TestDependencyOracle:
    def test_mandatory_predicates_lie_on_every_path(self, tiny_68,
                                                    oracle_68, reach_68):
        name = sorted(tiny_68.handlers)[0]
        cfg = tiny_68.handlers[name]
        for block_id in sorted(cfg.blocks):
            if reach_68.is_dead(block_id):
                continue
            path = reach_68.feasible_path(block_id)
            resolved = {}
            for prev, nxt in zip(path.blocks, path.blocks[1:]):
                block = tiny_68.blocks[prev]
                if block.role is BlockRole.CONDITION:
                    resolved[block.condition] = cfg.succs[prev][1] == nxt
            for predicate in oracle_68.mandatory_predicates(block_id):
                assert resolved.get(predicate.condition) == predicate.taken

    def test_steering_paths_point_into_the_program(self, tiny_68,
                                                   oracle_68):
        generator = ProgramGenerator(tiny_68.table, make_rng(5))
        programs = [generator.random_program() for _ in range(20)]
        seen_any = False
        for block_id in sorted(tiny_68.blocks):
            deps = oracle_68.dependencies(block_id)
            if not deps.slots:
                continue
            for program in programs:
                for path in deps.steering_paths(program):
                    assert path.call_index < len(program.calls)
                    spec = program.calls[path.call_index].spec
                    seen_any = True
                    assert spec.full_name in (
                        {s.syscall for s in deps.slots}
                        | {
                            slot.syscall
                            for dep in deps.state_deps
                            for slot in dep.producer_slots
                        }
                    )
        assert seen_any

    def test_state_deps_have_producers_or_default(self, tiny_68, oracle_68):
        state_dep_seen = False
        for block_id in sorted(tiny_68.blocks):
            for dep in oracle_68.dependencies(block_id).state_deps:
                state_dep_seen = True
                assert dep.default_satisfied or dep.producers, (
                    f"state dep on {dep.key} has no producer"
                )
                writer_syscalls = {
                    tiny_68.handler_of_block[b]
                    for b in oracle_68.effect_writers(dep.key)
                }
                assert set(dep.producers) <= writer_syscalls
        assert state_dep_seen


class TestStaticOracleLocalizer:
    @pytest.fixture(scope="class")
    def trained_tiny(self, tiny_68):
        return train_pmm(
            tiny_68,
            seed=0,
            corpus_size=15,
            dataset_config=DatasetConfig(
                mutations_per_test=25, seed=derive_seed(0, "d")
            ),
            pmm_config=PMMConfig(dim=16, seed=derive_seed(0, "m")),
            train_config=TrainConfig(epochs=0, seed=derive_seed(0, "t")),
        )

    def test_perfect_against_static_truth(self, tiny_68, trained_tiny):
        dataset = trained_tiny.dataset
        holdout = dataset.evaluation[:60]
        assert holdout
        localizer = StaticOracleLocalizer(tiny_68)
        truths = static_truths(localizer, dataset.programs, holdout)
        predictions = [
            set(localizer.localize(
                dataset.programs[e.base_index], None, e.targets, None
            ))
            for e in holdout
        ]
        metrics = evaluate_selector(predictions, truths)
        assert metrics.precision == metrics.recall == 1.0
        rng = make_rng(9)
        random_metrics = evaluate_selector(
            [
                set(RandomLocalizer(3).localize(
                    dataset.programs[e.base_index], None, None, rng
                ))
                for e in holdout
            ],
            truths,
        )
        assert random_metrics.f1 < 1.0

    def test_max_paths_truncates(self, tiny_68, trained_tiny):
        dataset = trained_tiny.dataset
        example = dataset.evaluation[0]
        program = dataset.programs[example.base_index]
        full = StaticOracleLocalizer(tiny_68).localize(
            program, None, example.targets, None
        )
        capped = StaticOracleLocalizer(tiny_68, max_paths=1).localize(
            program, None, example.targets, None
        )
        assert capped == full[:1]


# ----- directed steering + dead-target skipping -----


class TestFuzzerIntegration:
    def test_syzdirect_prefers_oracle_slots(self, tiny_68, oracle_68):
        generator = ProgramGenerator(tiny_68.table, make_rng(17))
        rng = make_rng(18)
        for block_id in sorted(tiny_68.bug_blocks.values()):
            syscall = tiny_68.handler_of_block[block_id]
            deps = oracle_68.dependencies(block_id)
            localizer = SyzDirectLocalizer(syscall, k=4, oracle=oracle_68)
            for _ in range(10):
                program = generator.random_program()
                pending = deps.pending_paths(program)
                every = deps.steering_paths(program)
                got = localizer.localize(program, None, {block_id}, rng)
                # Violated slots win; an all-satisfied program falls
                # back to the full mandatory slot set, untruncated.
                if pending:
                    assert got == pending
                elif every:
                    assert got == every

    def test_dead_targets_skipped_counter(self, tiny_68, reach_68):
        config = CampaignConfig(
            horizon=600.0, runs=1, seed=11, seed_corpus_size=6,
            sample_interval=300.0,
        )
        run_seed = derive_seed(config.seed, "analyze-test", 0)
        loop = build_loop(
            tiny_68, None, run_seed, config, oracle=True,
            analysis=reach_68,
        )
        dead_id = sorted(reach_68.dead_blocks())[0]
        pred = tiny_68.preds[dead_id][0]
        coverage = Coverage(blocks={pred})
        before = loop.stats.dead_targets_skipped
        targets = loop._query_targets(coverage)
        assert loop.stats.dead_targets_skipped > before
        assert targets is None or dead_id not in targets

    def test_checkpoint_carries_every_counter(self, tiny_68, reach_68):
        """A loop checkpoint restores every FuzzStats counter.  Run with
        no observer: its registry restore would carry the series anyway
        and hide a counter the checkpoint itself dropped."""
        config = CampaignConfig(
            horizon=3600.0, runs=1, seed=11, seed_corpus_size=10,
            sample_interval=300.0,
        )
        run_seed = derive_seed(config.seed, "analyze-test", 2)
        loop = build_fuzz_loop(
            tiny_68, None, run_seed, config, oracle=True, analysis=reach_68,
        )
        loop.run_until(config.horizon / 2)
        state = json.loads(json.dumps(loop_state(loop)))
        saved = loop.stats.counter_values()
        assert saved["dead_targets_skipped"] > 0
        fresh = build_loop(
            tiny_68, None, run_seed, config, oracle=True, analysis=reach_68,
        )
        restore_loop_state(fresh, state)
        restored = fresh.stats.counter_values()
        # The resume itself, and the in-flight requests it lost.
        saved["resumes"] += 1
        saved["inference_failures"] += state["service"]["lost_in_flight"]
        assert restored == saved

    def test_loop_without_analysis_unchanged(self, tiny_68):
        config = CampaignConfig(
            horizon=600.0, runs=1, seed=11, seed_corpus_size=6,
            sample_interval=300.0,
        )
        run_seed = derive_seed(config.seed, "analyze-test", 1)
        loop = build_loop(tiny_68, None, run_seed, config,
                                    oracle=True)
        seeds = ProgramGenerator(
            tiny_68.table, split(run_seed, "s")
        ).seed_corpus(6)
        loop.seed(seeds)
        stats = loop.run()
        assert stats.dead_targets_skipped == 0


# ----- lint framework -----


class TestLint:
    def test_registry(self):
        kernel_names = {c.name for c in registered_checks("kernel")}
        assert {
            "unreachable-block", "dead-bug-chain",
            "contradictory-predicates", "orphan-slot-token",
            "state-without-producer", "unsteerable-branch",
        } <= kernel_names
        corpus_names = {c.name for c in registered_checks("corpus")}
        assert {
            "resource-before-produced", "dangling-resource",
            "null-pointer-blocks-predicate",
        } <= corpus_names

    def test_stock_kernel_has_no_errors(self, tiny_68, reach_68, oracle_68):
        findings = run_kernel_checks(tiny_68, reach_68, oracle_68)
        assert findings, "dead blocks should produce warnings"
        assert not strict_failures(findings)

    def test_golden_findings(self, tiny_68, reach_68, oracle_68):
        findings = run_kernel_checks(tiny_68, reach_68, oracle_68)
        text = findings_json(
            findings,
            scope="kernel", releases=["6.8"], size="tiny", kernel_seed=1,
        )
        golden = (
            __import__("pathlib").Path(__file__).parent
            / "golden" / "findings_tiny_68.json"
        )
        assert text == golden.read_text(), (
            "findings drifted from tests/golden/findings_tiny_68.json; "
            "regenerate it if the change is intentional"
        )
        parsed = load_findings(text)
        assert [f.to_dict() for f in parsed] == [
            f.to_dict() for f in sorted(findings, key=type(findings[0]).sort_key)
        ]

    def test_injected_contradiction_fails_strict(self, tiny_68):
        mutant, crash_id = _inject_dead_bug_chain(tiny_68)
        findings = run_kernel_checks(mutant)
        errors = strict_failures(findings)
        assert errors, "--strict must trip on the injected contradiction"
        assert any(
            f.check == "dead-bug-chain" and f"block/{crash_id}" in f.location
            for f in errors
        )

    def test_corpus_checks_shapes(self, tiny_68):
        generator = ProgramGenerator(tiny_68.table, make_rng(23))
        programs = [generator.random_program() for _ in range(30)]
        findings = run_corpus_checks(tiny_68, programs)
        names = {c.name for c in registered_checks("corpus")}
        for finding in findings:
            assert finding.check in names
            assert finding.scope == "corpus"
            assert finding.location.startswith("program/")

    def test_namespace_prefixes_locations(self, tiny_68, reach_68,
                                          oracle_68):
        findings = run_kernel_checks(
            tiny_68, reach_68, oracle_68, namespace="6.8/"
        )
        assert findings
        assert all(f.location.startswith("6.8/") for f in findings)


# ----- CLI -----


class TestAnalyzeCLI:
    def test_analyze_kernel_strict_passes_stock(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "findings.json"
        code = main([
            "analyze", "kernel", "--size", "tiny", "--strict",
            "--out", str(out),
        ])
        assert code == 0
        findings = load_findings(out.read_text())
        assert findings and not strict_failures(findings)
        assert "statically dead" in capsys.readouterr().out

    def test_analyze_corpus_runs(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "findings.json"
        code = main([
            "analyze", "corpus", "--size", "tiny", "--seed-corpus", "20",
            "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        assert "corpus: 20 programs" in capsys.readouterr().out
