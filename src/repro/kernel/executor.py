"""Deterministic execution of test programs against a synthetic kernel.

The executor reproduces the §3.1 data-collection environment: every test
starts from the same initial kernel state (VM-snapshot semantics), calls
run sequentially in a single thread, and — unless the ``noise`` knob is
raised — no asynchronous kernel activity pollutes coverage.  Setting
``noise > 0`` re-introduces the nondeterministic interrupt coverage the
paper eliminates by replacing RPC with virtio, which the determinism
ablation uses to quantify label noise.

Real QEMU guests also *hang*: a test wedges the VM, the fuzzer's
watchdog kills it, and the VM is restarted from snapshot.  With the
watchdog enabled (the default whenever a fault injector is attached), a
runaway or injected-hang call is reported as a structured
:class:`ExecTimeout` on the result — coverage collected up to the kill
is kept, the VM-restart counter ticks, and the caller charges the
restart cost — instead of raising.  Without the watchdog the same
condition raises :class:`~repro.errors.ExecutorHang`.

Two things keep the host cost of a test low.  Each executor compiles a
handler's CFG into a flat *step table* the first time it runs that
handler, so interpreting a block is one dict lookup and one tuple
unpack.  And a call's arguments are never flattened up front: branch
conditions read them through :class:`_CallArgs`, which descends the
value tree only along the path a condition names.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ExecutionError, ExecutorHang
from repro.faults import FaultInjector
from repro.kernel.blocks import BasicBlock, BlockRole
from repro.kernel.build import Kernel
from repro.kernel.bugs import CrashReport
from repro.kernel.conditions import scalar_view
from repro.kernel.coverage import Coverage
from repro.kernel.state import KernelState
from repro.rng import make_rng
from repro.syzlang.program import Call, Program, ResourceValue

__all__ = ["ExecResult", "ExecTimeout", "Executor"]

_MAX_STEPS_PER_CALL = 100_000
# Probability that a non-reproducible (concurrency-flavoured) bug fires
# when its guarded block is reached.
_FLAKY_TRIGGER_PROB = 0.35

# Module globals, compared against once per interpreted block.
_CONDITION = BlockRole.CONDITION
_BODY = BlockRole.BODY
_ENTRY = BlockRole.ENTRY
_CRASH = BlockRole.CRASH
_EXIT_SUCCESS = BlockRole.EXIT_SUCCESS

# One compiled block: (role, effects, condition, operand, succs, block).
# ``operand`` is the comparison operand the block records (None when it
# records none); ``succs`` follows the CFG convention, ``succs[0]`` not
# taken and ``succs[1]`` taken.  A plain tuple: short-lived executors
# (one per service restore) compile a table for nearly every call.
_Step = tuple[
    BlockRole,
    tuple[tuple[str, int], ...],
    object,
    int | None,
    tuple[int, ...],
    BasicBlock,
]


class _CallArgs:
    """One call's :class:`~repro.kernel.conditions.ScalarArgs`, read on
    demand: only the paths the executed conditions name are descended.

    A resource reads as its producer's return value clamped at 0 (0
    while unwired or not yet produced), any other value as
    :func:`scalar_view`, and a path that leads nowhere (see
    :meth:`~repro.syzlang.program.Call.value_at`) as ``default``.
    """

    __slots__ = ("call", "retvals")

    def __init__(self, call: Call, retvals: list[int]):
        self.call = call
        self.retvals = retvals

    def get(self, path: tuple[int, ...], default: int = 0) -> int:
        value = self.call.value_at(path)
        if value is None:
            return default
        if isinstance(value, ResourceValue):
            producer = value.producer
            if producer is None or producer >= len(self.retvals):
                return 0
            return max(self.retvals[producer], 0)
        return scalar_view(value)


@dataclass(frozen=True)
class ExecTimeout:
    """A call hung and the watchdog killed the VM.

    ``steps`` is how many blocks the call executed before the kill;
    ``reason`` is ``"injected_hang"`` (fault plan) or ``"step_budget"``
    (a genuinely runaway CFG walk).
    """

    call_index: int
    steps: int
    reason: str


@dataclass
class ExecResult:
    """Outcome of executing one program."""

    coverage: Coverage
    crash: CrashReport | None = None
    retvals: list[int] = field(default_factory=list)
    blocks_executed: int = 0
    # Operands of the compare instructions executed along the path —
    # what KCOV's comparison tracing (KCOV_CMP) exposes to Syzkaller,
    # which seeds integer mutations from them.
    comparison_operands: set[int] = field(default_factory=set)
    # Set when the watchdog killed a hung call; the program's remaining
    # calls did not run and the VM must be restarted from snapshot.
    timeout: ExecTimeout | None = None

    @property
    def crashed(self) -> bool:
        return self.crash is not None

    @property
    def timed_out(self) -> bool:
        return self.timeout is not None


class Executor:
    """Runs programs on a kernel, collecting coverage.

    One executor can run many programs; each run gets a pristine
    :class:`KernelState` (the VM snapshot is reloaded).
    """

    def __init__(
        self,
        kernel: Kernel,
        noise: float = 0.0,
        seed: int = 0,
        injector: FaultInjector | None = None,
    ):
        if not 0.0 <= noise <= 1.0:
            raise ExecutionError(f"noise must be in [0, 1], got {noise}")
        self.kernel = kernel
        self.noise = noise
        self.injector = injector
        # The watchdog is on exactly when faults can be injected (a loop
        # that attaches its injector later turns it on too); a bare
        # executor keeps raising so malformed CFGs stay loud.
        self.watchdog = injector is not None
        self.vm_restarts = 0
        # An observed loop attaches its profiler here.
        self.profiler = None
        self._rng = make_rng(seed)
        # Handler name -> (entry block, block id -> step), compiled on
        # first use.  Kernels are never mutated once built.
        self._tables: dict[str, tuple[int, dict[int, _Step]]] = {}

    def run(self, program: Program, now: float = 0.0) -> ExecResult:
        """Execute ``program`` from a fresh snapshot.

        ``now`` is the caller's virtual time, consulted only by the
        fault injector's outage windows (the executor itself never
        advances the clock).
        """
        if self.profiler is None:
            return self._run(program, now)
        with self.profiler.section("executor.run"):
            return self._run(program, now)

    def _run(self, program: Program, now: float) -> ExecResult:
        state = KernelState()
        retvals: list[int] = []
        call_traces: list[list[int]] = []
        crash: CrashReport | None = None
        timeout: ExecTimeout | None = None
        executed = 0
        operands: set[int] = set()
        for call_index, call in enumerate(program.calls):
            hang = (
                self.injector is not None
                and self.injector.fires("executor", now)
            )
            args = _CallArgs(call, retvals)
            try:
                trace, retval, crash = self._run_call(
                    call, args, state, operands
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
                # The injected hang strikes partway through the call:
                # the watchdog kills the VM, keeping the coverage the
                # guest reported before it wedged.
                cut = max(1, int(self.injector.uniform("executor") * len(trace)))
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
        coverage = Coverage.from_traces(call_traces)
        return ExecResult(
            coverage=coverage,
            crash=crash,
            retvals=retvals,
            blocks_executed=executed,
            comparison_operands=operands,
            timeout=timeout,
        )

    # ----- internals -----

    def _table(self, name: str) -> tuple[int, dict[int, _Step]]:
        """The step table of handler ``name``, compiled on first use."""
        table = self._tables.get(name)
        if table is None:
            cfg = self.kernel.handlers.get(name)
            if cfg is None:
                raise ExecutionError(
                    f"kernel {self.kernel.version} has no handler for "
                    f"{name!r}"
                )
            succs = cfg.succs
            steps: dict[int, _Step] = {
                block_id: (
                    block.role, block.effects, block.condition,
                    getattr(block.condition, "operand", None),
                    succs.get(block_id, ()), block,
                )
                for block_id, block in cfg.blocks.items()
            }
            table = self._tables[name] = (cfg.entry, steps)
        return table

    def _run_call(
        self,
        call,
        args: _CallArgs,
        state: KernelState,
        operands: set[int],
    ) -> tuple[list[int], int, CrashReport | None]:
        current, steps = self._table(call.spec.full_name)
        flags = state.flags
        trace: list[int] = []
        for _ in range(_MAX_STEPS_PER_CALL):
            role, effects, condition, operand, succs, block = steps[current]
            trace.append(current)
            if effects:
                flags.update(effects)
            if role is _CONDITION:
                if operand is not None:
                    operands.add(operand)
                taken = condition.evaluate(args, state)
                current = succs[1] if taken else succs[0]
            elif role is _BODY or role is _ENTRY:
                current = succs[0]
            elif role is _CRASH:
                bug = block.bug
                assert bug is not None
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
                # Near-miss: the race window closed; fall through.
                return trace, -5, None
            elif role is _EXIT_SUCCESS:
                retval = 0
                produces = call.spec.produces
                if produces is not None:
                    retval = state.open_handle(kind=produces.name)
                return trace, retval, None
            else:
                return trace, -block.errno, None
        error = ExecutorHang(
            f"handler {call.spec.full_name} exceeded {_MAX_STEPS_PER_CALL} "
            "steps"
        )
        error.trace = trace
        raise error

    def _inject_interrupt(self, trace: list[int]) -> list[int]:
        """Splice the interrupt pseudo-handler into a call trace."""
        irq = self.kernel.interrupt_trace
        if not irq:
            return trace
        start = int(self._rng.integers(0, len(irq)))
        slice_len = int(self._rng.integers(1, len(irq) - start + 1))
        cut = int(self._rng.integers(0, len(trace) + 1))
        return trace[:cut] + irq[start : start + slice_len] + trace[cut:]
