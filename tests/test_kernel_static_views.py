"""Property tests on the kernel's static-analysis views."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.kernel import Executor
from repro.rng import make_rng
from repro.syzlang import ProgramGenerator


class TestStaticViews:
    def test_guarding_condition_of_alternatives(self, kernel):
        """Every frontier block of an execution has a conditional
        predecessor (by construction: frontiers come from branches)."""
        generator = ProgramGenerator(kernel.table, make_rng(90))
        executor = Executor(kernel)
        checked = 0
        for _ in range(5):
            coverage = executor.run(generator.random_program()).coverage
            for block in kernel.frontier(coverage.blocks):
                assert kernel.guarding_condition(block) is not None
                checked += 1
        assert checked > 0

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 10_000))
    def test_frontier_disjoint_from_coverage(self, kernel, seed):
        generator = ProgramGenerator(kernel.table, make_rng(seed))
        executor = Executor(kernel)
        coverage = executor.run(generator.random_program()).coverage
        frontier = kernel.frontier(coverage.blocks)
        assert not (frontier & coverage.blocks)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 10_000))
    def test_frontier_reachable_in_one_hop(self, kernel, seed):
        generator = ProgramGenerator(kernel.table, make_rng(seed))
        executor = Executor(kernel)
        coverage = executor.run(generator.random_program()).coverage
        frontier = kernel.frontier(coverage.blocks)
        one_hop = set()
        for block in coverage.blocks:
            one_hop.update(kernel.succs.get(block, ()))
        assert frontier <= one_hop

    def test_distance_from_matches_distance_to(self, kernel):
        """Plain CFG distances toward a target are the hop counts of a
        forward BFS from each block (the directed fuzzer's closeness
        metric), for every block of a handler."""
        name = sorted(kernel.handlers)[0]
        cfg = kernel.handlers[name]
        target = cfg.exits()[0]
        backward = kernel.target_distances([target])
        for source in cfg.blocks:
            hops = {source: 0}
            queue = [source]
            for block in queue:
                for succ in kernel.succs.get(block, ()):
                    if succ not in hops:
                        hops[succ] = hops[block] + 1
                        queue.append(succ)
            if target in hops:
                assert backward[source] == hops[target]
            else:
                assert source not in backward

    def test_distance_maps_nonnegative(self, kernel):
        name = sorted(kernel.handlers)[0]
        cfg = kernel.handlers[name]
        for distance in kernel.target_distances([cfg.exits()[0]]).values():
            assert distance >= 0
