"""The executor's and the program walk's fast paths against references.

``ReferenceExecutor`` keeps the interpreter the step tables replaced:
before each call it resolves *every* argument path to a scalar by
walking the value tree (``reference_walk_call``, the generator walk the
list-based one replaced), then steps through the handler CFG block by
block.  The compiled executor must agree with it on everything an
:class:`ExecResult` carries and must leave its RNG in the same state;
the list-based walk must yield the same paths in the same order.
"""

import copy

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analyze.witness import WitnessBuilder
from repro.errors import ExecutionError, ExecutorHang, ProgramError
from repro.faults import FaultInjector, FaultPlan
from repro.kernel import BlockRole, Executor, build_kernel
from repro.kernel.bugs import CrashReport
from repro.kernel.conditions import ArgCondition, scalar_view
from repro.kernel.coverage import Coverage
from repro.kernel.executor import ExecResult, ExecTimeout, _CallArgs
from repro.kernel.state import KernelState
from repro.rng import make_rng
from repro.syzlang import ProgramGenerator
from repro.syzlang.program import (
    ArgPath,
    ArrayValue,
    PtrValue,
    ResourceValue,
    StructValue,
)

_MAX_STEPS_PER_CALL = 100_000
_FLAKY_TRIGGER_PROB = 0.35


# ----- the reference walk and interpreter -----


def _reference_children(value):
    if isinstance(value, PtrValue):
        return [] if value.pointee is None else [(0, value.pointee)]
    if isinstance(value, StructValue):
        return list(enumerate(value.fields))
    if isinstance(value, ArrayValue):
        return list(enumerate(value.elems))
    return []


def reference_walk_call(program, call_index):
    """Yield ``(ArgPath, Value)`` for every value in one call."""
    call = program.calls[call_index]

    def walk(value, elements):
        yield ArgPath(call_index, elements), value
        for child_index, child in _reference_children(value):
            yield from walk(child, elements + (child_index,))

    for arg_index, arg in enumerate(call.args):
        yield from walk(arg, (arg_index,))


def reference_walk(program):
    for call_index in range(len(program.calls)):
        yield from reference_walk_call(program, call_index)


def reference_scalars(program, call_index, retvals):
    """Scalar view of every argument path of one call, resolved eagerly."""
    flat = {}
    for path, value in reference_walk_call(program, call_index):
        if isinstance(value, ResourceValue):
            producer = value.producer
            if producer is None or producer >= len(retvals):
                flat[path.elements] = 0
            else:
                flat[path.elements] = max(retvals[producer], 0)
        else:
            flat[path.elements] = scalar_view(value)
    return flat


class ReferenceExecutor(Executor):
    """The direct CFG interpreter over an eagerly resolved scalar map."""

    def _run(self, program, now):
        state = KernelState()
        retvals = []
        call_traces = []
        crash = None
        timeout = None
        executed = 0
        operands = set()
        for call_index, call in enumerate(program.calls):
            hang = (
                self.injector is not None
                and self.injector.fires("executor", now)
            )
            flat = reference_scalars(program, call_index, retvals)
            try:
                trace, retval, crash = self._reference_call(
                    call, flat, state, operands
                )
            except ExecutorHang as error:
                if not self.watchdog:
                    raise
                trace = list(getattr(error, "trace", []))
                timeout = ExecTimeout(
                    call_index=call_index, steps=len(trace),
                    reason="step_budget",
                )
            if hang and timeout is None:
                cut = max(
                    1, int(self.injector.uniform("executor") * len(trace))
                )
                trace = trace[:cut]
                timeout = ExecTimeout(
                    call_index=call_index, steps=len(trace),
                    reason="injected_hang",
                )
            executed += len(trace)
            if self.noise > 0 and self._rng.random() < self.noise:
                trace = self._inject_interrupt(trace)
            call_traces.append(trace)
            if timeout is not None:
                self.vm_restarts += 1
                break
            retvals.append(retval)
            if crash is not None:
                break
        return ExecResult(
            coverage=Coverage.from_traces(call_traces),
            crash=crash,
            retvals=retvals,
            blocks_executed=executed,
            comparison_operands=operands,
            timeout=timeout,
        )

    def _reference_call(self, call, flat, state, operands):
        cfg = self.kernel.handlers.get(call.spec.full_name)
        if cfg is None:
            raise ExecutionError(
                f"kernel {self.kernel.version} has no handler for "
                f"{call.spec.full_name!r}"
            )
        trace = []
        current = cfg.entry
        for _ in range(_MAX_STEPS_PER_CALL):
            block = cfg.blocks[current]
            trace.append(current)
            for key, flag_value in block.effects:
                state.flags[key] = flag_value
            if block.role is BlockRole.CRASH:
                bug = block.bug
                triggers = bug.reproducible or (
                    self._rng.random() < _FLAKY_TRIGGER_PROB
                )
                if triggers:
                    if bug.corrupts_memory:
                        description = bug.corruption_description(self._rng)
                    else:
                        description = bug.description()
                    report = CrashReport(
                        bug=bug, block_id=current, description=description,
                    )
                    return trace, -5, report
                return trace, -5, None
            if block.role is BlockRole.EXIT_SUCCESS:
                retval = 0
                produces = call.spec.produces
                if produces is not None:
                    retval = state.open_handle(kind=produces.name)
                return trace, retval, None
            if block.role is BlockRole.EXIT_ERROR:
                return trace, -block.errno, None
            succs = cfg.successors(current)
            if block.role is BlockRole.CONDITION:
                condition = block.condition
                if hasattr(condition, "operand"):
                    operands.add(condition.operand)
                taken = condition.evaluate(flat, state)
                current = succs[1] if taken else succs[0]
            else:
                current = succs[0]
        error = ExecutorHang(
            f"handler {call.spec.full_name} exceeded {_MAX_STEPS_PER_CALL} "
            "steps"
        )
        error.trace = trace
        raise error


# ----- helpers -----


@pytest.fixture(scope="module", params=["tiny", "default"])
def kernel_68(request):
    return build_kernel("6.8", seed=1, size=request.param)


def _damage(program, rng, rate):
    """Drop pointees, shorten arrays, and unwire resources or point them
    at their own call or past the program's end, each site independently
    with probability ``rate``."""
    out_of_range = len(program) + 2
    for path, value in list(reference_walk(program)):
        if rng.random() >= rate:
            continue
        if isinstance(value, PtrValue):
            value.pointee = None
        elif isinstance(value, ResourceValue):
            choices = (None, path.call_index, out_of_range)
            value.producer = choices[int(rng.integers(len(choices)))]
        elif isinstance(value, ArrayValue) and value.elems:
            del value.elems[int(rng.integers(len(value.elems))):]
    return program


def _program(kernel, seed, damage=0.0):
    rng = make_rng(seed)
    program = ProgramGenerator(kernel.table, rng).random_program()
    return _damage(program, rng, damage) if damage else program


def _assert_same_runs(kernel, programs, plan=None, watchdog=False,
                      **options):
    """Both executors, built alike (each with its own injector over
    ``plan``, and the watchdog turned on the way a loop does), give
    equal results run after run and end in the same RNG state.
    Returns the compiled executor's results."""
    executors = []
    for cls in (Executor, ReferenceExecutor):
        if plan is not None:
            options["injector"] = FaultInjector(plan)
        executor = cls(kernel, **options)
        if watchdog:
            executor.watchdog = True
        executors.append(executor)
    fast, reference = executors
    results = []
    for program in programs:
        got, want = fast.run(program), reference.run(program)
        results.append(got)
        assert got.coverage.call_traces == want.coverage.call_traces
        assert got.coverage == want.coverage
        assert got.retvals == want.retvals
        assert got.crash == want.crash
        assert got.blocks_executed == want.blocks_executed
        assert got.comparison_operands == want.comparison_operands
        assert got.timeout == want.timeout
    assert fast.vm_restarts == reference.vm_restarts
    assert fast._rng.bit_generator.state == reference._rng.bit_generator.state
    return results


_PROPERTY = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


# ----- executor -----


class TestExecutorMatchesReference:
    @_PROPERTY
    @given(seed=st.integers(0, 100_000))
    def test_generated_programs(self, kernel_68, seed):
        _assert_same_runs(kernel_68, [_program(kernel_68, seed)])

    @_PROPERTY
    @given(
        seed=st.integers(0, 100_000),
        damage=st.sampled_from([0.1, 0.3, 0.7]),
    )
    def test_null_pointers_unwired_resources_short_arrays(
        self, kernel_68, seed, damage
    ):
        _assert_same_runs(kernel_68, [_program(kernel_68, seed, damage)])

    @_PROPERTY
    @given(
        seed=st.integers(0, 100_000),
        noise=st.sampled_from([0.2, 0.5, 1.0]),
    )
    def test_noise(self, kernel_68, seed, noise):
        programs = [_program(kernel_68, seed + i, 0.2) for i in range(3)]
        _assert_same_runs(kernel_68, programs, noise=noise, seed=seed)

    def test_flaky_and_corrupting_crash_blocks(self, kernel_68):
        """Witnesses of every planted bug, run repeatedly: flaky bugs
        and memory-corruption descriptions draw from the executor RNG."""
        builder = WitnessBuilder(kernel_68)
        programs = []
        for _, crash_block in sorted(kernel_68.bug_blocks.items()):
            witness = builder.witness(crash_block)
            if witness is not None:
                programs.append(witness)
        results = _assert_same_runs(kernel_68, programs * 8, seed=5)
        crashed = [r.crash.bug for r in results if r.crash is not None]
        assert any(not bug.reproducible for bug in crashed)
        assert any(bug.corrupts_memory for bug in crashed)
        near_misses = [
            r for r in results if r.crash is None
            and kernel_68.blocks[r.coverage.call_traces[-1][-1]].role
            is BlockRole.CRASH
        ]
        assert near_misses, "no flaky bug's race window closed"

    def test_injected_hangs(self, kernel_68):
        plan = FaultPlan(seed=4).with_rate("executor", 0.3)
        programs = [_program(kernel_68, seed) for seed in range(20)]
        results = _assert_same_runs(kernel_68, programs, plan=plan, seed=2)
        assert any(r.timed_out for r in results)

    def test_step_budget_timeout(self):
        """A cyclic handler exhausts the step budget the same way."""
        mutant = copy.deepcopy(build_kernel("6.8", seed=1, size="tiny"))
        program = _program(mutant, 3)
        cfg = mutant.handlers[program.calls[-1].spec.full_name]
        cfg.succs[cfg.entry] = (cfg.entry,)
        (result,) = _assert_same_runs(mutant, [program], watchdog=True)
        assert result.timeout.reason == "step_budget"
        with pytest.raises(ExecutorHang):
            Executor(mutant).run(program)

    def test_missing_handler_is_an_execution_error(self, kernel_68):
        program = _program(kernel_68, 0)
        stripped = copy.copy(kernel_68)
        stripped.handlers = {
            name: cfg for name, cfg in kernel_68.handlers.items()
            if name != program.calls[0].spec.full_name
        }
        with pytest.raises(ExecutionError, match="no handler"):
            Executor(stripped).run(program)


class TestCallArgs:
    @_PROPERTY
    @given(
        seed=st.integers(0, 100_000),
        damage=st.sampled_from([0.0, 0.3]),
    )
    def test_reads_match_the_eager_map(self, kernel_68, seed, damage):
        """Every walked path, every condition path of the handler, and
        paths that dangle (past a leaf, out of range, negative, through
        NULL) read the same as in the eagerly resolved map, and
        ``Program.get`` resolves exactly the walked paths."""
        program = _program(kernel_68, seed, damage)
        retvals = [3, -1, 0, 7, -22, 4, 5, 6, 9, 11, 12, 13][: len(program)]
        for call_index, call in enumerate(program.calls):
            known = retvals[:call_index]
            eager = reference_scalars(program, call_index, known)
            view = _CallArgs(call, known)
            paths = set(eager) | {(), (99,), (-1,)}
            for elements in eager:
                paths.add(elements + (0,))
                paths.add(elements + (7,))
                paths.add(elements[:-1] + (elements[-1] + 1,))
                paths.add(elements[:-1] + (-1,))
            cfg = kernel_68.handlers[call.spec.full_name]
            for block in cfg.blocks.values():
                if isinstance(block.condition, ArgCondition):
                    paths.add(block.condition.path_elements)
            for path in paths:
                assert view.get(path, 0) == eager.get(path, 0), path
                try:
                    program.get(ArgPath(call_index, path))
                except ProgramError:
                    assert path not in eager, path
                else:
                    assert path in eager, path


# ----- program walk -----


class TestWalkMatchesGenerator:
    @_PROPERTY
    @given(
        seed=st.integers(0, 100_000),
        damage=st.sampled_from([0.0, 0.3]),
    )
    def test_walk_and_mutation_sites(self, kernel_68, seed, damage):
        program = _program(kernel_68, seed, damage)
        for call_index in range(len(program)):
            got = program.walk_call(call_index)
            want = list(reference_walk_call(program, call_index))
            assert [path for path, _ in got] == [path for path, _ in want]
            assert all(a is b for (_, a), (_, b) in zip(got, want))
        assert [path for path, _ in program.walk()] == [
            path for path, _ in reference_walk(program)
        ]
        assert program.mutation_sites() == [
            path for path, value in reference_walk(program)
            if value.ty.is_mutable()
        ]

    @_PROPERTY
    @given(seed=st.integers(0, 100_000), position=st.integers(0, 40))
    def test_insert_and_remove_fix_up_like_the_generator_walk(
        self, kernel_68, seed, position
    ):
        program = _program(kernel_68, seed)
        index = position % len(program)

        removed, want = program.clone(), program.clone()
        removed.remove_call(index)
        del want.calls[index]
        for path, value in reference_walk(want):
            if isinstance(value, ResourceValue) and value.producer is not None:
                if value.producer == index:
                    value.producer = None
                elif value.producer > index:
                    value.producer -= 1
        assert removed == want

        inserted, want = program.clone(), program.clone()
        call = program.calls[-1].clone()
        inserted.insert_call(index, call.clone())
        want.calls.insert(index, call.clone())
        for call_index in range(len(want.calls)):
            if call_index == index:
                continue
            for path, value in reference_walk_call(want, call_index):
                if isinstance(value, ResourceValue) and (
                    value.producer is not None and value.producer >= index
                ):
                    value.producer += 1
        assert inserted == want
