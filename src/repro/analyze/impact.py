"""Static release-diff analysis and patch-directed target selection.

The highest-value fuzzing targets are the blocks that *changed* between
two kernel releases — the regression surface Patch-to-PoC style systems
exploit (PAPERS.md).  This module computes that surface statically:

1. **Diff** (:func:`compute_impact`): pair the per-syscall CFGs of two
   kernel builds block-by-block and compare content signatures
   (:meth:`~repro.kernel.blocks.BasicBlock.signature`).  Handler labels
   never embed block ids and unperturbed handlers regenerate
   byte-identically across releases, so a simultaneous breadth-first
   walk from the paired entries pairs blocks positionally and the
   signature decides added/removed/modified.  The result is a canonical
   :class:`ImpactReport` — added/removed handlers and blocks, changed
   predicates, and the bug chains the change can influence.

2. **Classify** (:func:`build_target_manifest`): every changed block in
   the new kernel is classified with the PR-5 interval+bitmask domain:
   ``unreachable`` (no satisfiable entry path — sound, because the
   reachability DFS only ever over-approximates the feasible set),
   ``unsteerable`` (feasible, but guarded only by state flags whose
   producers expose no argument slots), or ``solvable``.  The classified
   surface is a :class:`TargetManifest`, the artifact `analyze impact`
   emits and `fuzz --directed` consumes.

3. **Direct** (:class:`PatchDirector`): at fuzz time the manifest plus
   a :class:`~repro.analyze.distance.DistanceField` turn into directed
   scheduling — distance-weighted target selection, pending-slot
   steering through the dependency oracle (with concrete operand hints
   from the abstract domain), and resource-aware planting of target and
   producer calls.  Progress is published as ``directed.*`` gauges.

Three impact-scope lint checks gate the manifest:
``changed-block-unreachable`` and ``changed-block-unsteerable`` warn
about changed code the fuzzer cannot (fully) exercise, and
``delta-spec-drift`` errors when the release diff and the syscall-table
deltas disagree about which handlers appeared — the cross-check between
specgen's declarative :data:`~repro.syzlang.stdlib.RELEASE_DELTAS` and
what the kernel actually grew.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.analyze.deps import BlockDependencies, DependencyOracle
from repro.analyze.distance import DistanceField
from repro.analyze.lint import _REGISTRY, Finding, Severity, _run, impact_check
from repro.analyze.reach import ReachabilityAnalysis
from repro.errors import AnalysisError
from repro.fuzzer.directed import plant_target_call
from repro.fuzzer.engine import MutationEngine, MutationOutcome
from repro.fuzzer.mutations import MutationType
from repro.kernel.blocks import BlockRole
from repro.kernel.build import Kernel
from repro.kernel.conditions import ArgCondition, StateCondition
from repro.rng import choice_weighted
from repro.syzlang.program import Program

__all__ = [
    "CLASSIFICATIONS",
    "HandlerDiff",
    "ImpactReport",
    "ImpactTarget",
    "MANIFEST_VERSION",
    "PatchDirector",
    "PredicateChange",
    "TargetManifest",
    "build_target_manifest",
    "classify_block",
    "compute_impact",
    "describe_condition",
    "run_impact_checks",
]

MANIFEST_VERSION = 1

CLASSIFICATIONS = ("solvable", "unsteerable", "unreachable")


def describe_condition(condition: object | None) -> str:
    """Stable human-readable rendering of a branch condition."""
    if condition is None:
        return "-"
    if isinstance(condition, ArgCondition):
        path = ".".join(str(element) for element in condition.path_elements)
        return (
            f"{condition.syscall}[{path}] {condition.op.name} "
            f"{condition.operand}"
        )
    if isinstance(condition, StateCondition):
        return f"flag {condition.key} == {condition.operand}"
    return repr(condition)


# ---------------------------------------------------------------------------
# The diff


@dataclass(frozen=True)
class HandlerDiff:
    """Per-syscall block delta between two builds.

    Block ids are new-kernel ids for ``added``, old-kernel ids for
    ``removed``, and ``(old_id, new_id)`` pairs for ``modified``.
    """

    syscall: str
    status: str  # "added" | "removed" | "modified"
    added: tuple[int, ...] = ()
    removed: tuple[int, ...] = ()
    modified: tuple[tuple[int, int], ...] = ()

    def to_dict(self) -> dict:
        return {
            "syscall": self.syscall,
            "status": self.status,
            "added": list(self.added),
            "removed": list(self.removed),
            "modified": [list(pair) for pair in self.modified],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "HandlerDiff":
        return cls(
            syscall=payload["syscall"],
            status=payload["status"],
            added=tuple(payload["added"]),
            removed=tuple(payload["removed"]),
            modified=tuple(
                (pair[0], pair[1]) for pair in payload["modified"]
            ),
        )


@dataclass(frozen=True)
class PredicateChange:
    """A branch predicate that differs between the releases."""

    syscall: str
    old_block_id: int | None
    new_block_id: int | None
    old: str
    new: str

    def to_dict(self) -> dict:
        return {
            "syscall": self.syscall,
            "old_block_id": self.old_block_id,
            "new_block_id": self.new_block_id,
            "old": self.old,
            "new": self.new,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PredicateChange":
        return cls(
            syscall=payload["syscall"],
            old_block_id=payload["old_block_id"],
            new_block_id=payload["new_block_id"],
            old=payload["old"],
            new=payload["new"],
        )


@dataclass(frozen=True)
class ImpactReport:
    """Canonical release diff between two kernel builds."""

    from_version: str
    to_version: str
    handlers: tuple[HandlerDiff, ...]
    added_handlers: tuple[str, ...]
    removed_handlers: tuple[str, ...]
    unchanged_handlers: int
    changed_predicates: tuple[PredicateChange, ...]
    touched_bugs: tuple[str, ...]

    def changed_blocks(self) -> tuple[int, ...]:
        """New-kernel ids of every added or modified block."""
        blocks: set[int] = set()
        for diff in self.handlers:
            blocks.update(diff.added)
            blocks.update(new_id for _, new_id in diff.modified)
        return tuple(sorted(blocks))

    def removed_blocks(self) -> tuple[int, ...]:
        """Old-kernel ids of every removed block."""
        blocks: set[int] = set()
        for diff in self.handlers:
            blocks.update(diff.removed)
        return tuple(sorted(blocks))

    def kind_of(self, block_id: int) -> str | None:
        """"added" / "modified" for a new-kernel changed block."""
        for diff in self.handlers:
            if block_id in diff.added:
                return "added"
            if any(new_id == block_id for _, new_id in diff.modified):
                return "modified"
        return None

    def to_json(self) -> str:
        payload = {
            "version": MANIFEST_VERSION,
            "from_version": self.from_version,
            "to_version": self.to_version,
            "added_handlers": list(self.added_handlers),
            "removed_handlers": list(self.removed_handlers),
            "unchanged_handlers": self.unchanged_handlers,
            "handlers": [diff.to_dict() for diff in self.handlers],
            "changed_predicates": [
                change.to_dict() for change in self.changed_predicates
            ],
            "touched_bugs": list(self.touched_bugs),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ImpactReport":
        payload = json.loads(text)
        if payload.get("version") != MANIFEST_VERSION:
            raise AnalysisError(
                f"unsupported impact version {payload.get('version')!r}"
            )
        return cls(
            from_version=payload["from_version"],
            to_version=payload["to_version"],
            handlers=tuple(
                HandlerDiff.from_dict(entry) for entry in payload["handlers"]
            ),
            added_handlers=tuple(payload["added_handlers"]),
            removed_handlers=tuple(payload["removed_handlers"]),
            unchanged_handlers=payload["unchanged_handlers"],
            changed_predicates=tuple(
                PredicateChange.from_dict(entry)
                for entry in payload["changed_predicates"]
            ),
            touched_bugs=tuple(payload["touched_bugs"]),
        )


def _pair_blocks(old_cfg, new_cfg) -> dict[int, int]:
    """Pair blocks of two handler builds by simultaneous BFS.

    Handler CFGs are built back-to-front from the same recipe, so the
    positional successor order is stable: successor k of a paired block
    plays the same structural role in both builds.  Each block pairs at
    most once; first (BFS-order) pairing wins, which is deterministic.
    """
    pairs: dict[int, int] = {}
    seen_new: set[int] = set()
    queue: deque[tuple[int, int]] = deque([(old_cfg.entry, new_cfg.entry)])
    while queue:
        old_id, new_id = queue.popleft()
        if old_id in pairs or new_id in seen_new:
            continue
        pairs[old_id] = new_id
        seen_new.add(new_id)
        old_succs = old_cfg.successors(old_id)
        new_succs = new_cfg.successors(new_id)
        for old_succ, new_succ in zip(old_succs, new_succs):
            queue.append((old_succ, new_succ))
    return pairs


def compute_impact(old_kernel: Kernel, new_kernel: Kernel) -> ImpactReport:
    """Statically diff two kernel builds into an :class:`ImpactReport`."""
    old_handlers = set(old_kernel.handlers)
    new_handlers = set(new_kernel.handlers)
    added_handlers = tuple(sorted(new_handlers - old_handlers))
    removed_handlers = tuple(sorted(old_handlers - new_handlers))

    diffs: list[HandlerDiff] = []
    predicate_changes: list[PredicateChange] = []
    unchanged = 0

    for syscall in added_handlers:
        cfg = new_kernel.handlers[syscall]
        diffs.append(HandlerDiff(
            syscall=syscall, status="added",
            added=tuple(sorted(cfg.blocks)),
        ))
        for block_id in sorted(cfg.blocks):
            block = cfg.blocks[block_id]
            if block.role is BlockRole.CONDITION:
                predicate_changes.append(PredicateChange(
                    syscall=syscall, old_block_id=None,
                    new_block_id=block_id, old="-",
                    new=describe_condition(block.condition),
                ))
    for syscall in removed_handlers:
        cfg = old_kernel.handlers[syscall]
        diffs.append(HandlerDiff(
            syscall=syscall, status="removed",
            removed=tuple(sorted(cfg.blocks)),
        ))

    for syscall in sorted(old_handlers & new_handlers):
        old_cfg = old_kernel.handlers[syscall]
        new_cfg = new_kernel.handlers[syscall]
        pairs = _pair_blocks(old_cfg, new_cfg)
        modified: list[tuple[int, int]] = []
        for old_id in sorted(pairs):
            new_id = pairs[old_id]
            old_block = old_cfg.blocks[old_id]
            new_block = new_cfg.blocks[new_id]
            if old_block.signature() == new_block.signature():
                continue
            modified.append((old_id, new_id))
            old_text = describe_condition(old_block.condition)
            new_text = describe_condition(new_block.condition)
            if old_text != new_text:
                predicate_changes.append(PredicateChange(
                    syscall=syscall, old_block_id=old_id,
                    new_block_id=new_id, old=old_text, new=new_text,
                ))
        added = tuple(sorted(set(new_cfg.blocks) - set(pairs.values())))
        removed = tuple(sorted(set(old_cfg.blocks) - set(pairs)))
        for block_id in added:
            block = new_cfg.blocks[block_id]
            if block.role is BlockRole.CONDITION:
                predicate_changes.append(PredicateChange(
                    syscall=syscall, old_block_id=None,
                    new_block_id=block_id, old="-",
                    new=describe_condition(block.condition),
                ))
        if not (added or removed or modified):
            unchanged += 1
            continue
        diffs.append(HandlerDiff(
            syscall=syscall, status="modified",
            added=added, removed=removed, modified=tuple(modified),
        ))

    diffs.sort(key=lambda diff: (diff.syscall, diff.status))
    predicate_changes.sort(
        key=lambda change: (
            change.syscall,
            change.new_block_id if change.new_block_id is not None else -1,
            change.old_block_id if change.old_block_id is not None else -1,
        )
    )

    report = ImpactReport(
        from_version=old_kernel.version,
        to_version=new_kernel.version,
        handlers=tuple(diffs),
        added_handlers=added_handlers,
        removed_handlers=removed_handlers,
        unchanged_handlers=unchanged,
        changed_predicates=tuple(predicate_changes),
        touched_bugs=(),
    )
    return ImpactReport(
        from_version=report.from_version,
        to_version=report.to_version,
        handlers=report.handlers,
        added_handlers=report.added_handlers,
        removed_handlers=report.removed_handlers,
        unchanged_handlers=report.unchanged_handlers,
        changed_predicates=report.changed_predicates,
        touched_bugs=_touched_bugs(old_kernel, new_kernel, report),
    )


def _touched_bugs(
    old_kernel: Kernel, new_kernel: Kernel, report: ImpactReport
) -> tuple[str, ...]:
    """Bug chains the release change can influence: new/removed bugs,
    plus bugs whose crash block sits downstream of any changed block."""
    old_ids = {bug.bug_id for bug in old_kernel.bugs}
    new_ids = {bug.bug_id for bug in new_kernel.bugs}
    touched: set[str] = (old_ids ^ new_ids)
    changed = set(report.changed_blocks())
    for bug in new_kernel.bugs:
        if bug.bug_id in touched:
            continue
        crash_block = new_kernel.bug_blocks.get(bug.bug_id)
        if crash_block is None:
            continue
        if crash_block in changed:
            touched.add(bug.bug_id)
            continue
        upstream = new_kernel.target_distances([crash_block])
        if any(block_id in upstream for block_id in changed):
            touched.add(bug.bug_id)
    return tuple(sorted(touched))


# ---------------------------------------------------------------------------
# Classification and the target manifest


def classify_block(
    block_id: int,
    reach: ReachabilityAnalysis,
    oracle: DependencyOracle,
) -> tuple[str, str]:
    """(classification, reason) for one block of the new kernel.

    ``unreachable`` is sound: the feasibility DFS degrades by
    over-approximating the feasible set, so a block it calls dead has
    *provably* no satisfiable entry path and no witness program exists.
    """
    if reach.is_dead(block_id):
        return (
            "unreachable",
            "no satisfiable entry path resolves the guarding predicates",
        )
    deps = oracle.dependencies(block_id)
    unsteerable = (
        not deps.slots
        and not any(dep.producer_slots for dep in deps.state_deps)
        and any(not dep.default_satisfied for dep in deps.state_deps)
    )
    if unsteerable:
        return (
            "unsteerable",
            "guarded only by state flags whose producers expose no "
            "steering slots",
        )
    detail = (
        f"{len(deps.slots)} direct slots, "
        f"{sum(len(dep.producer_slots) for dep in deps.state_deps)} "
        "producer slots"
    )
    return ("solvable", detail)


@dataclass(frozen=True)
class ImpactTarget:
    """One classified changed block of the new kernel."""

    block_id: int
    syscall: str
    kind: str  # "added" | "modified"
    classification: str
    depth: int
    label: str
    reason: str

    def to_dict(self) -> dict:
        return {
            "block_id": self.block_id,
            "syscall": self.syscall,
            "kind": self.kind,
            "classification": self.classification,
            "depth": self.depth,
            "label": self.label,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ImpactTarget":
        return cls(
            block_id=payload["block_id"],
            syscall=payload["syscall"],
            kind=payload["kind"],
            classification=payload["classification"],
            depth=payload["depth"],
            label=payload["label"],
            reason=payload["reason"],
        )


@dataclass(frozen=True)
class TargetManifest:
    """The classified changed surface `fuzz --directed` consumes."""

    from_version: str
    to_version: str
    targets: tuple[ImpactTarget, ...]

    def counts(self) -> dict[str, int]:
        out = {classification: 0 for classification in CLASSIFICATIONS}
        for target in self.targets:
            out[target.classification] += 1
        return out

    def fuzzable_blocks(self) -> tuple[int, ...]:
        """Changed blocks worth scheduling: everything not proven dead."""
        return tuple(sorted(
            target.block_id
            for target in self.targets
            if target.classification != "unreachable"
        ))

    def to_json(self) -> str:
        payload = {
            "version": MANIFEST_VERSION,
            "from_version": self.from_version,
            "to_version": self.to_version,
            "counts": self.counts(),
            "targets": [target.to_dict() for target in self.targets],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "TargetManifest":
        payload = json.loads(text)
        if payload.get("version") != MANIFEST_VERSION:
            raise AnalysisError(
                f"unsupported manifest version {payload.get('version')!r}"
            )
        return cls(
            from_version=payload["from_version"],
            to_version=payload["to_version"],
            targets=tuple(
                ImpactTarget.from_dict(entry)
                for entry in payload["targets"]
            ),
        )


def build_target_manifest(
    old_kernel: Kernel,
    new_kernel: Kernel,
    report: ImpactReport | None = None,
    reach: ReachabilityAnalysis | None = None,
    oracle: DependencyOracle | None = None,
) -> TargetManifest:
    """Classify every changed block of the new kernel into a manifest."""
    if report is None:
        report = compute_impact(old_kernel, new_kernel)
    if reach is None:
        reach = ReachabilityAnalysis(new_kernel)
    if oracle is None:
        oracle = DependencyOracle(new_kernel)
    targets: list[ImpactTarget] = []
    for block_id in report.changed_blocks():
        syscall = new_kernel.handler_of_block.get(block_id)
        if syscall is None or syscall not in new_kernel.handlers:
            continue
        cfg = new_kernel.handlers[syscall]
        classification, reason = classify_block(block_id, reach, oracle)
        targets.append(ImpactTarget(
            block_id=block_id,
            syscall=syscall,
            kind=report.kind_of(block_id) or "modified",
            classification=classification,
            depth=cfg.depth_of(block_id),
            label=new_kernel.blocks[block_id].label,
            reason=reason,
        ))
    return TargetManifest(
        from_version=report.from_version,
        to_version=report.to_version,
        targets=tuple(targets),
    )


# ---------------------------------------------------------------------------
# Impact lint checks


@dataclass
class ImpactLintContext:
    """Shared state handed to every impact-scope check."""

    report: ImpactReport
    manifest: TargetManifest
    old_kernel: Kernel
    new_kernel: Kernel

    def finding(self, check, location: str, message: str) -> Finding:
        return Finding(
            check=check.name,
            severity=check.severity,
            scope="impact",
            location=location,
            message=message,
        )


@impact_check("changed-block-unreachable", Severity.WARNING)
def _check_changed_unreachable(ctx: ImpactLintContext) -> Iterator[Finding]:
    """Changed blocks no fuzzer can ever cover: dead regression surface."""
    check = _REGISTRY[("impact", "changed-block-unreachable")]
    for target in ctx.manifest.targets:
        if target.classification != "unreachable":
            continue
        yield ctx.finding(
            check,
            f"{target.syscall}/block/{target.block_id}",
            f"{target.kind} block {target.block_id} is statically dead: "
            "the release changed code no input can execute",
        )


@impact_check("changed-block-unsteerable", Severity.WARNING)
def _check_changed_unsteerable(ctx: ImpactLintContext) -> Iterator[Finding]:
    """Changed blocks only reachable through unsteerable state flags."""
    check = _REGISTRY[("impact", "changed-block-unsteerable")]
    for target in ctx.manifest.targets:
        if target.classification != "unsteerable":
            continue
        yield ctx.finding(
            check,
            f"{target.syscall}/block/{target.block_id}",
            f"{target.kind} block {target.block_id} is feasible but "
            "unsteerable: directed mutation can only wait for the "
            "default state to flip",
        )


@impact_check("delta-spec-drift", Severity.ERROR)
def _check_delta_spec_drift(ctx: ImpactLintContext) -> Iterator[Finding]:
    """The release diff and the syscall-table delta must agree."""
    check = _REGISTRY[("impact", "delta-spec-drift")]
    old_specs = {spec.full_name for spec in ctx.old_kernel.table}
    new_specs = {spec.full_name for spec in ctx.new_kernel.table}
    spec_added = new_specs - old_specs
    spec_removed = old_specs - new_specs
    diff_added = set(ctx.report.added_handlers)
    diff_removed = set(ctx.report.removed_handlers)
    for name in sorted(spec_added - diff_added):
        yield ctx.finding(
            check, f"{name}",
            f"spec {name} appears in the {ctx.report.to_version} table "
            "but the kernel diff shows no new handler for it",
        )
    for name in sorted(diff_added - spec_added):
        yield ctx.finding(
            check, f"{name}",
            f"handler {name} was added in the release diff but the "
            "syscall-table delta declares no such spec",
        )
    for name in sorted(spec_removed - diff_removed):
        yield ctx.finding(
            check, f"{name}",
            f"spec {name} was dropped from the table but its handler "
            "is still present in the new kernel",
        )
    for name in sorted(diff_removed - spec_removed):
        yield ctx.finding(
            check, f"{name}",
            f"handler {name} disappeared from the kernel but its spec "
            "is still declared in the table",
        )


def run_impact_checks(
    report: ImpactReport,
    manifest: TargetManifest,
    old_kernel: Kernel,
    new_kernel: Kernel,
    observer=None,
) -> list[Finding]:
    """Run every impact-scope check; canonical order."""
    ctx = ImpactLintContext(
        report=report,
        manifest=manifest,
        old_kernel=old_kernel,
        new_kernel=new_kernel,
    )
    return _run("impact", ctx, observer)


# ---------------------------------------------------------------------------
# The patch director


class PatchDirector:
    """Directed scheduling and steering toward a target manifest.

    Attached to a :class:`~repro.snowplow.fuzzer.SnowplowLoop`, the
    director biases frontier-target selection toward the changed
    surface (distance-weighted via :class:`DistanceField`), proposes
    directed mutations (pending-slot steering with concrete operand
    hints, plus resource-aware planting of target and producer calls),
    and tracks time-to-target per changed block.

    With ``observe_only=True`` the director draws no randomness and
    influences nothing — it only records when targets are reached, so a
    plain run stays bit-identical to an undirected baseline while still
    yielding comparable time-to-target numbers.
    """

    # Share of the loop's mutations the director proposes
    # (``SnowplowLoop`` reads it), chance of planting the target call
    # when the base test already has it, and cap on steered paths.
    directed_share = 0.5
    insert_prob = 0.35
    max_forced_paths = 6

    def __init__(
        self,
        kernel: Kernel,
        manifest: TargetManifest,
        observer=None,
        observe_only: bool = False,
    ):
        self.kernel = kernel
        self.manifest = manifest
        self.oracle = DependencyOracle(kernel)
        self.observe_only = observe_only
        self._registry = observer.registry if observer is not None else None
        self.targets: tuple[int, ...] = manifest.fuzzable_blocks()
        self.pending: set[int] = set(self.targets)
        self.reached_at: dict[int, float] = {}
        self.last_distance: float = math.inf
        self.last_proposal_paths: int = 0
        self._depths: dict[int, int] = {
            target.block_id: target.depth for target in manifest.targets
        }
        self._field: DistanceField | None = (
            DistanceField(kernel, self.pending) if self.pending else None
        )
        if self._registry is not None:
            self._registry.gauge("directed.targets_total").set(
                len(self.targets)
            )
            if self._field is not None:
                self._registry.gauge(
                    "directed.distance_finite_fraction"
                ).set(self._field.finite_fraction())

    # ----- observation -----

    @property
    def complete(self) -> bool:
        return not self.pending

    def time_to_all(self, horizon: float) -> float:
        """Virtual time until the last target was reached; the horizon
        when some target never was."""
        if self.pending or not self.targets:
            return horizon
        return max(self.reached_at.values())

    def note_coverage(self, covered: set[int], now: float) -> None:
        """Record newly reached targets and refresh the distance field.

        Called on every new-coverage admit; does not draw randomness,
        so it is safe in observe-only mode.
        """
        hit = self.pending & covered
        if hit:
            for block_id in sorted(hit):
                self.reached_at[block_id] = now
            self.pending -= hit
            self._field = (
                DistanceField(self.kernel, self.pending)
                if self.pending else None
            )
        if self._field is not None:
            self.last_distance = self._field.program_distance(covered)
        else:
            self.last_distance = 0.0
        self.publish()

    def publish(self) -> None:
        """Refresh the ``directed.*`` convergence gauges."""
        if self._registry is None:
            return
        self._registry.gauge("directed.targets_reached").set(
            len(self.reached_at)
        )
        self._registry.gauge("directed.targets_pending").set(
            len(self.pending)
        )
        if not math.isinf(self.last_distance):
            self._registry.gauge("directed.distance_min").set(
                self.last_distance
            )
        if not self.pending and self.reached_at:
            self._registry.gauge("directed.time_to_last_target").set(
                max(self.reached_at.values())
            )

    # ----- scheduling -----

    def rank_targets(self, pool: list[int], limit: int) -> list[int]:
        """The ``limit`` pool blocks nearest the pending surface,
        pending targets themselves first (distance 0)."""
        if self._field is None:
            return []
        field = self._field
        ranked = sorted(
            pool, key=lambda block_id: (field.block_distance(block_id),
                                        block_id)
        )
        return [
            block_id for block_id in ranked[:limit]
            if not math.isinf(field.block_distance(block_id))
        ]

    # ----- steering -----

    def propose(
        self,
        program: Program,
        engine: MutationEngine,
        rng: np.random.Generator,
    ) -> MutationOutcome | None:
        """One directed mutation toward a pending target, or None when
        the director has nothing useful to do for this base."""
        self.last_proposal_paths = 0
        if not self.pending:
            return None
        target = self._choose_target(rng)
        deps = self.oracle.dependencies(target)
        syscall = self.kernel.handler_of_block.get(target, "")
        missing = self._missing_producer(deps, program, rng)
        if missing is not None:
            mutated = program.clone()
            plant_target_call(mutated, engine.generator, missing, rng)
            return MutationOutcome(
                mutated, MutationType.SYSCALL_INSERTION, []
            )
        has_call = any(
            call.spec.full_name == syscall for call in program.calls
        )
        if not has_call or rng.random() < self.insert_prob:
            mutated = program.clone()
            if not plant_target_call(mutated, engine.generator, syscall, rng):
                return None
            return MutationOutcome(
                mutated, MutationType.SYSCALL_INSERTION, []
            )
        paths = deps.pending_paths(program)
        if not paths:
            paths = deps.steering_paths(program)
        if not paths:
            return None
        paths = paths[: self.max_forced_paths]
        self.last_proposal_paths = len(paths)
        return engine.mutate_test(
            program, forced_paths=paths, hints=self._hints(deps)
        )

    def _choose_target(self, rng: np.random.Generator) -> int:
        """Weight pending targets by shallowness: depth counts the
        branch predicates guarding the block, the work left to solve."""
        pending = sorted(self.pending)
        weights = [
            1.0 / (1.0 + self._depths.get(block_id, 0))
            for block_id in pending
        ]
        return choice_weighted(rng, pending, weights)

    def _missing_producer(
        self,
        deps: BlockDependencies,
        program: Program,
        rng: np.random.Generator,
    ) -> str | None:
        """A producer syscall the target's state dependencies need that
        the program never calls, if any."""
        present = {call.spec.full_name for call in program.calls}
        for dep in deps.state_deps:
            if dep.default_satisfied or not dep.producers:
                continue
            absent = [name for name in dep.producers if name not in present]
            if absent and len(absent) == len(dep.producers):
                return absent[int(rng.integers(len(absent)))]
        return None

    def _hints(self, deps: BlockDependencies) -> frozenset[int] | None:
        """Concrete operand hints from the abstract domain: a witness
        value per mandatory slot plus the raw comparison operands."""
        values: set[int] = set()
        for abstract in deps.slot_abstracts().values():
            try:
                values.add(abstract.example())
            except AnalysisError:
                continue
        for predicate in deps.predicates:
            condition = predicate.condition
            if isinstance(condition, ArgCondition):
                values.add(condition.operand)
        return frozenset(values) if values else None
