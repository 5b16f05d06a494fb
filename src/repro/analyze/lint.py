"""Pluggable lint framework over kernel builds and syz corpora.

Checks are small generator functions registered per scope (``kernel`` or
``corpus``) with a fixed severity.  Running a scope yields canonical
:class:`Finding` records — deterministically ordered, serializable to a
byte-stable ``findings.json`` — so lint output can be golden-tested and
diffed in CI exactly like observe artifacts.

Severity calibration matters: the kernel generator's random nested
conditions *routinely* produce statically-dead blocks (two branches on
the same slot with contradictory operands), so a plain contradiction is
a ``warning`` — informative, not gating.  What gates (``error``) are the
invariants the stack actually relies on: bug chains must stay reachable
(a dead crash block can never be found by any fuzzer), every
:class:`ArgCondition` must reference a real steerable slot and render
its token into the block assembly (PMM's training signal), and every
:class:`StateCondition` must have at least one producer writing its flag
(otherwise the branch is vestigial).  ``analyze kernel --strict`` fails
only on errors, so stock releases pass while an injected contradiction
that kills a bug chain fails the gate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.analyze.deps import DependencyOracle
from repro.analyze.reach import AbstractValue, ReachabilityAnalysis
from repro.errors import AnalysisError, SpecError
from repro.kernel.blocks import BlockRole
from repro.kernel.build import Kernel, enumerate_type_paths, resource_guard_paths
from repro.kernel.conditions import ArgCondition, CondOp, StateCondition
from repro.syzlang.program import Program, PtrValue, ResourceValue
from repro.syzlang.slots import slot_token
from repro.syzlang.spec import SyscallTable
from repro.syzlang.types import FlagsType, PtrType

__all__ = [
    "Check",
    "Finding",
    "FINDINGS_VERSION",
    "Severity",
    "findings_json",
    "kernel_check",
    "corpus_check",
    "impact_check",
    "load_findings",
    "registered_checks",
    "run_corpus_checks",
    "run_kernel_checks",
    "strict_failures",
    "table_mismatch_findings",
]

FINDINGS_VERSION = 1

SEVERITIES = ("info", "warning", "error")


class Severity:
    """Finding severities, ordered info < warning < error."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Finding:
    """One lint result, canonical and comparable."""

    check: str
    severity: str
    scope: str
    location: str
    message: str

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "severity": self.severity,
            "scope": self.scope,
            "location": self.location,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Finding":
        return cls(
            check=payload["check"],
            severity=payload["severity"],
            scope=payload["scope"],
            location=payload["location"],
            message=payload["message"],
        )

    def sort_key(self):
        return (self.scope, self.check, self.location, self.message)


@dataclass(frozen=True)
class Check:
    """A registered lint pass."""

    name: str
    scope: str
    severity: str
    doc: str
    fn: Callable[..., Iterator[Finding]]


_REGISTRY: dict[tuple[str, str], Check] = {}


def _register(scope: str, name: str, severity: str):
    if severity not in SEVERITIES:
        raise AnalysisError(f"unknown severity {severity!r}")

    def decorate(fn):
        check = Check(
            name=name,
            scope=scope,
            severity=severity,
            doc=(fn.__doc__ or "").strip().splitlines()[0] if fn.__doc__ else "",
            fn=fn,
        )
        key = (scope, name)
        if key in _REGISTRY:
            raise AnalysisError(f"duplicate {scope} check {name!r}")
        _REGISTRY[key] = check
        return fn

    return decorate


def kernel_check(name: str, severity: str):
    """Register a kernel-scope check: ``fn(ctx) -> Iterator[Finding]``."""
    return _register("kernel", name, severity)


def corpus_check(name: str, severity: str):
    """Register a corpus-scope check: ``fn(ctx) -> Iterator[Finding]``."""
    return _register("corpus", name, severity)


def impact_check(name: str, severity: str):
    """Register an impact-scope check: ``fn(ctx) -> Iterator[Finding]``.

    Impact checks run over a release diff and its target manifest; see
    :func:`repro.analyze.impact.run_impact_checks`.
    """
    return _register("impact", name, severity)


def registered_checks(scope: str | None = None) -> list[Check]:
    checks = [
        check
        for (check_scope, _), check in sorted(_REGISTRY.items())
        if scope is None or check_scope == scope
    ]
    return checks


# ---------------------------------------------------------------------------
# Contexts


@dataclass
class KernelLintContext:
    """Shared state handed to every kernel-scope check."""

    kernel: Kernel
    reach: ReachabilityAnalysis
    oracle: DependencyOracle
    # Location prefix, e.g. "6.8/" when linting several releases at once.
    namespace: str = ""

    def finding(self, check: Check, block_id: int, message: str) -> Finding:
        syscall = self.kernel.handler_of_block.get(block_id, "?")
        return Finding(
            check=check.name,
            severity=check.severity,
            scope="kernel",
            location=f"{self.namespace}{syscall}/block/{block_id}",
            message=message,
        )


@dataclass
class CorpusLintContext:
    """Shared state handed to every corpus-scope check."""

    kernel: Kernel
    programs: list[Program]
    reach: ReachabilityAnalysis
    oracle: DependencyOracle

    def finding(
        self, check: Check, program: int, call: int, message: str
    ) -> Finding:
        return Finding(
            check=check.name,
            severity=check.severity,
            scope="corpus",
            location=f"program/{program}/call/{call}",
            message=message,
        )


# ---------------------------------------------------------------------------
# Kernel checks


@kernel_check("unreachable-block", Severity.ERROR)
def _check_unreachable(ctx: KernelLintContext) -> Iterator[Finding]:
    """Blocks no CFG edge reaches: structurally orphaned."""
    check = _REGISTRY[("kernel", "unreachable-block")]
    for syscall, cfg in sorted(ctx.kernel.handlers.items()):
        reachable = {cfg.entry}
        stack = [cfg.entry]
        while stack:
            current = stack.pop()
            for succ in cfg.successors(current):
                if succ not in reachable:
                    reachable.add(succ)
                    stack.append(succ)
        for block_id in sorted(set(cfg.blocks) - reachable):
            yield ctx.finding(
                check, block_id,
                f"block {block_id} of {syscall} has no path from entry",
            )


@kernel_check("dead-bug-chain", Severity.ERROR)
def _check_dead_bugs(ctx: KernelLintContext) -> Iterator[Finding]:
    """Crash blocks behind contradictory predicates: unfindable bugs."""
    check = _REGISTRY[("kernel", "dead-bug-chain")]
    for block_id in sorted(ctx.reach.dead_blocks()):
        block = ctx.kernel.blocks[block_id]
        if block.role is not BlockRole.CRASH:
            continue
        bug = getattr(block.bug, "bug_id", None) or block.label
        yield ctx.finding(
            check, block_id,
            f"crash block {block_id} ({bug}) is statically unreachable: "
            "no satisfiable path resolves its guarding predicates",
        )


@kernel_check("contradictory-predicates", Severity.WARNING)
def _check_contradictions(ctx: KernelLintContext) -> Iterator[Finding]:
    """Non-crash blocks whose every entry path is contradictory."""
    check = _REGISTRY[("kernel", "contradictory-predicates")]
    for block_id in sorted(ctx.reach.dead_blocks()):
        block = ctx.kernel.blocks[block_id]
        if block.role is BlockRole.CRASH:
            continue  # reported by dead-bug-chain
        yield ctx.finding(
            check, block_id,
            f"block {block_id} ({block.role.value}) is statically dead: "
            "every entry path carries a contradictory predicate "
            "conjunction",
        )


@kernel_check("orphan-slot-token", Severity.ERROR)
def _check_orphan_slots(ctx: KernelLintContext) -> Iterator[Finding]:
    """ArgConditions must reference real slots and embed their token."""
    check = _REGISTRY[("kernel", "orphan-slot-token")]
    valid_paths: dict[str, set[tuple[int, ...]]] = {}
    for block_id in sorted(ctx.kernel.blocks):
        block = ctx.kernel.blocks[block_id]
        condition = block.condition
        if not isinstance(condition, ArgCondition):
            continue
        spec_paths = valid_paths.get(condition.syscall)
        if spec_paths is None:
            try:
                spec = ctx.kernel.table.lookup(condition.syscall)
            except SpecError:
                yield ctx.finding(
                    check, block_id,
                    f"condition references unknown syscall "
                    f"{condition.syscall!r}",
                )
                continue
            spec_paths = {path for path, _ in enumerate_type_paths(spec)}
            spec_paths.update(resource_guard_paths(spec))
            valid_paths[condition.syscall] = spec_paths
        if condition.path_elements not in spec_paths:
            yield ctx.finding(
                check, block_id,
                f"condition path {condition.path_elements} is not a "
                f"steerable slot of {condition.syscall}",
            )
            continue
        token = slot_token(condition.syscall, condition.path_elements)
        if token not in block.asm:
            yield ctx.finding(
                check, block_id,
                f"slot token {token} missing from condition assembly "
                "(PMM has no signal to learn from)",
            )


@kernel_check("state-without-producer", Severity.ERROR)
def _check_state_producers(ctx: KernelLintContext) -> Iterator[Finding]:
    """StateConditions whose flag no effect block ever writes."""
    check = _REGISTRY[("kernel", "state-without-producer")]
    for block_id in sorted(ctx.kernel.blocks):
        block = ctx.kernel.blocks[block_id]
        condition = block.condition
        if not isinstance(condition, StateCondition):
            continue
        if ctx.oracle.effect_writers(condition.key):
            continue
        yield ctx.finding(
            check, block_id,
            f"state branch on flag {condition.key!r} has no producer: "
            "no effect block in the kernel writes this flag, so the "
            "taken edge depends only on the default state",
        )


@kernel_check("unsteerable-branch", Severity.WARNING)
def _check_unsteerable(ctx: KernelLintContext) -> Iterator[Finding]:
    """Feasible branch targets that no argument slot can steer."""
    check = _REGISTRY[("kernel", "unsteerable-branch")]
    dead = ctx.reach.dead_blocks()
    for block_id in sorted(ctx.kernel.blocks):
        block = ctx.kernel.blocks[block_id]
        if block.role is not BlockRole.CONDITION:
            continue
        succs = ctx.kernel.succs.get(block_id, ())
        if len(succs) != 2 or succs[0] == succs[1]:
            continue
        taken = succs[1]
        if taken in dead:
            continue  # already reported as dead
        deps = ctx.oracle.dependencies(taken)
        if deps.slots:
            continue
        if any(dep.producer_slots for dep in deps.state_deps):
            continue
        if any(not dep.default_satisfied for dep in deps.state_deps):
            yield ctx.finding(
                check, taken,
                f"taken edge of block {block_id} depends only on state "
                "flags whose producers expose no steering slots",
            )


@kernel_check("spec-table-mismatch", Severity.WARNING)
def _check_spec_table(ctx: KernelLintContext) -> Iterator[Finding]:
    """The table's flag domains and the kernel's mask constants agree."""
    yield from table_mismatch_findings(
        ctx.kernel, ctx.kernel.table, namespace=ctx.namespace
    )


def table_mismatch_findings(
    kernel: Kernel, table: SyscallTable, namespace: str = ""
) -> list[Finding]:
    """Cross-validate any :class:`SyscallTable` against the kernel CFGs.

    Works on the table the kernel was built from *and* on externally
    supplied tables (``repro specgen infer --lint``).  Two directions:

    - kernel→table (**error**): every mask branch must land on a flags
      leaf the table can address, with operand bits inside the declared
      domain — violated only by a table that genuinely disagrees with
      the kernel it claims to describe, so this gates ``--strict``.
    - table→kernel (**warning**): declared flag bits the kernel never
      branches on.  Routine for hand-written tables (the builder
      branches on a random subset of declared bits) and exactly the
      unrecoverable remainder for inferred ones.
    """
    check = _REGISTRY[("kernel", "spec-table-mismatch")]
    findings: list[Finding] = []
    leaves_cache: dict[str, dict[tuple[int, ...], FlagsType] | None] = {}

    def flag_leaves(name: str):
        if name not in leaves_cache:
            try:
                spec = table.lookup(name)
            except SpecError:
                leaves_cache[name] = None
            else:
                leaves_cache[name] = {
                    path: leaf
                    for path, leaf in enumerate_type_paths(spec)
                    if isinstance(leaf, FlagsType)
                }
        return leaves_cache[name]

    observed: dict[tuple[str, tuple[int, ...]], int] = {}
    for block_id in sorted(kernel.blocks):
        condition = kernel.blocks[block_id].condition
        if not isinstance(condition, ArgCondition):
            continue
        if condition.op not in (CondOp.MASK_SET, CondOp.MASK_CLEAR):
            continue
        name = condition.syscall
        location = f"{namespace}{name}/block/{block_id}"
        leaves = flag_leaves(name)
        if leaves is None:
            findings.append(Finding(
                check=check.name, severity=Severity.ERROR, scope="kernel",
                location=location,
                message=f"mask branch on syscall {name!r} which the "
                        "table does not describe",
            ))
            continue
        leaf = leaves.get(condition.path_elements)
        if leaf is None:
            findings.append(Finding(
                check=check.name, severity=Severity.ERROR, scope="kernel",
                location=location,
                message=f"mask branch at path {condition.path_elements} "
                        f"of {name} does not address a flags leaf of "
                        "the table",
            ))
            continue
        key = (name, condition.path_elements)
        observed[key] = observed.get(key, 0) | condition.operand
        stray = condition.operand & ~leaf.all_bits()
        if stray == 1 and any(bit == 0 for _, bit in leaf.flags):
            # The builder substitutes operand 1 when it draws a
            # zero-valued flag from a domain whose first flag is also 0
            # (mask branches on 0 are meaningless), so bit 0x1 next to a
            # declared zero flag is kernel-builder policy, not mismatch.
            stray = 0
        if stray:
            findings.append(Finding(
                check=check.name, severity=Severity.ERROR, scope="kernel",
                location=location,
                message=f"mask constant 0x{condition.operand:x} uses "
                        f"bits 0x{stray:x} absent from the declared "
                        f"flag domain at {condition.path_elements}",
            ))

    for spec in table:
        if spec.full_name not in kernel.handlers:
            continue
        for path, leaf in enumerate_type_paths(spec):
            if not isinstance(leaf, FlagsType):
                continue
            unused = leaf.all_bits() & ~observed.get(
                (spec.full_name, path), 0
            )
            if not unused:
                continue
            names = ", ".join(leaf.names_for(unused)) or f"0x{unused:x}"
            path_text = ".".join(str(element) for element in path)
            findings.append(Finding(
                check=check.name, severity=Severity.WARNING, scope="kernel",
                location=f"{namespace}{spec.full_name}/path/{path_text}",
                message=f"declared flag bits 0x{unused:x} ({names}) are "
                        "never branched on by the kernel",
            ))

    findings.sort(key=Finding.sort_key)
    return findings


# ---------------------------------------------------------------------------
# Corpus checks


@corpus_check("resource-before-produced", Severity.ERROR)
def _check_resource_order(ctx: CorpusLintContext) -> Iterator[Finding]:
    """Resource references must point backwards at a compatible producer."""
    check = _REGISTRY[("corpus", "resource-before-produced")]
    for prog_index, program in enumerate(ctx.programs):
        for call_index in range(len(program.calls)):
            for path, value in program.walk_call(call_index):
                if not isinstance(value, ResourceValue):
                    continue
                producer = value.producer
                if producer is None:
                    continue
                if producer >= call_index or producer < 0:
                    yield ctx.finding(
                        check, prog_index, call_index,
                        f"{path} references resource from call {producer}, "
                        "which has not executed yet",
                    )
                    continue
                produced = program.calls[producer].spec.produces
                if produced is None or not produced.compatible_with(
                    value.ty.resource
                ):
                    yield ctx.finding(
                        check, prog_index, call_index,
                        f"{path} references call {producer}, which does not "
                        f"produce a {value.ty.resource.name!r} resource",
                    )


@corpus_check("dangling-resource", Severity.WARNING)
def _check_dangling(ctx: CorpusLintContext) -> Iterator[Finding]:
    """NULL resource handles in guarded positions: guaranteed EBADF."""
    check = _REGISTRY[("corpus", "dangling-resource")]
    for prog_index, program in enumerate(ctx.programs):
        for call_index, call in enumerate(program.calls):
            guards = set(resource_guard_paths(call.spec))
            if not guards:
                continue
            for arg_index in sorted(index for (index,) in guards):
                value = call.args[arg_index]
                if (
                    isinstance(value, ResourceValue)
                    and value.producer is None
                ):
                    yield ctx.finding(
                        check, prog_index, call_index,
                        f"arg {arg_index} of {call.spec.full_name} is a "
                        "NULL resource behind an fd guard: the call can "
                        "only take the EBADF path",
                    )


@corpus_check("null-pointer-blocks-predicate", Severity.WARNING)
def _check_null_pointers(ctx: CorpusLintContext) -> Iterator[Finding]:
    """NULL pointer args that pin every downstream predicate to 0."""
    check = _REGISTRY[("corpus", "null-pointer-blocks-predicate")]
    blocked_cache: dict[str, dict[int, list[str]]] = {}
    for prog_index, program in enumerate(ctx.programs):
        for call_index, call in enumerate(program.calls):
            name = call.spec.full_name
            per_arg = blocked_cache.get(name)
            if per_arg is None:
                per_arg = _blocked_pointer_args(ctx.kernel, name)
                blocked_cache[name] = per_arg
            for arg_index, tokens in sorted(per_arg.items()):
                value = call.args[arg_index]
                if not isinstance(value, PtrValue) or value.pointee is not None:
                    continue
                yield ctx.finding(
                    check, prog_index, call_index,
                    f"arg {arg_index} of {name} is NULL, so the fields "
                    "behind it read as 0 and the branches on "
                    f"{', '.join(tokens)} can never take their "
                    "non-default edge",
                )


def _blocked_pointer_args(kernel: Kernel, syscall: str) -> dict[int, list[str]]:
    """For one syscall: pointer arg indices whose NULL value makes every
    downstream ArgCondition unable to take its branch (slot reads 0)."""
    cfg = kernel.handlers.get(syscall)
    if cfg is None:
        return {}
    try:
        spec = kernel.table.lookup(syscall)
    except SpecError:
        return {}
    pointer_args = {
        index
        for index, (_, arg_ty) in enumerate(spec.args)
        if isinstance(arg_ty, PtrType)
    }
    conditions: dict[int, list[ArgCondition]] = {}
    for block_id in cfg.blocks:
        condition = cfg.blocks[block_id].condition
        if (
            isinstance(condition, ArgCondition)
            and condition.syscall == syscall
            and len(condition.path_elements) > 1
            and condition.path_elements[0] in pointer_args
        ):
            conditions.setdefault(condition.path_elements[0], []).append(
                condition
            )
    blocked: dict[int, list[str]] = {}
    for arg_index, conds in conditions.items():
        tokens = []
        for condition in conds:
            refined = AbstractValue().refine(
                condition.op, condition.operand, taken=True
            )
            if refined is not None and refined.admits(0):
                tokens = []
                break
            tokens.append(
                slot_token(condition.syscall, condition.path_elements)
            )
        if tokens:
            blocked[arg_index] = sorted(set(tokens))
    return blocked


# ---------------------------------------------------------------------------
# Runners and serialization


def run_kernel_checks(
    kernel: Kernel,
    reach: ReachabilityAnalysis | None = None,
    oracle: DependencyOracle | None = None,
    observer=None,
    namespace: str = "",
) -> list[Finding]:
    """Run every kernel-scope check; canonical order."""
    ctx = KernelLintContext(
        kernel=kernel,
        reach=reach if reach is not None else ReachabilityAnalysis(kernel),
        oracle=oracle if oracle is not None else DependencyOracle(kernel),
        namespace=namespace,
    )
    return _run("kernel", ctx, observer)


def run_corpus_checks(
    kernel: Kernel,
    programs: list[Program],
    observer=None,
) -> list[Finding]:
    """Run every corpus-scope check; canonical order."""
    ctx = CorpusLintContext(
        kernel=kernel,
        programs=list(programs),
        reach=ReachabilityAnalysis(kernel),
        oracle=DependencyOracle(kernel),
    )
    return _run("corpus", ctx, observer)


def _run(scope: str, ctx, observer) -> list[Finding]:
    findings: list[Finding] = []
    for check in registered_checks(scope):
        produced = list(check.fn(ctx))
        findings.extend(produced)
        if observer is not None:
            observer.tracer.instant(
                "analyze", f"lint.{check.name}", 0.0, cat="analyze",
                scope=scope, findings=len(produced),
            )
    # Stable sort *then* dedupe: identical findings (e.g. the same
    # release linted twice under one namespace) collapse to one record,
    # so the output is a pure function of the finding set — independent
    # of check registration order or repetition.
    findings.sort(key=Finding.sort_key)
    findings = list(dict.fromkeys(findings))
    if observer is not None:
        registry = observer.registry
        for severity in SEVERITIES:
            count = sum(1 for f in findings if f.severity == severity)
            registry.gauge(f"analyze.findings_{severity}").set(count)
    return findings


def strict_failures(findings: Iterable[Finding]) -> list[Finding]:
    """The findings that fail ``--strict`` (errors only)."""
    return [f for f in findings if f.severity == Severity.ERROR]


def findings_json(findings: Iterable[Finding], **context) -> str:
    """Canonical findings.json: stable ordering, deduped, stable bytes."""
    ordered = sorted(set(findings), key=Finding.sort_key)
    payload = {
        "version": FINDINGS_VERSION,
        "context": dict(sorted(context.items())),
        "counts": {
            severity: sum(1 for f in ordered if f.severity == severity)
            for severity in SEVERITIES
        },
        "findings": [f.to_dict() for f in ordered],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_findings(text: str) -> list[Finding]:
    payload = json.loads(text)
    if payload.get("version") != FINDINGS_VERSION:
        raise AnalysisError(
            f"unsupported findings version {payload.get('version')!r}"
        )
    return [Finding.from_dict(entry) for entry in payload["findings"]]
