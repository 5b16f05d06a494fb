"""Tests for synthetic kernel construction and static analysis."""

import pytest

from repro.errors import KernelBuildError
from repro.kernel import BlockRole, build_kernel
from repro.kernel.build import (
    BugPlan,
    KernelBuilder,
    KernelConfig,
    enumerate_type_paths,
)
from repro.kernel.bugs import CrashKind
from repro.kernel.cfg import HandlerCFG
from repro.kernel.blocks import BasicBlock
from repro.kernel.versions import default_bug_plans
from repro.syzlang import build_standard_table
from repro.syzlang.stdlib import ATA_16


class TestEnumerateTypePaths:
    def test_nested_paths(self, table):
        spec = table.lookup("ioctl$SCSI_IOCTL_SEND_COMMAND")
        paths = dict(enumerate_type_paths(spec))
        # cdb.opcode lives at arg 2 -> ptr deref -> field 2 -> field 0.
        assert (2, 0, 2, 0) in paths

    def test_excludes_consts_and_resources(self, table):
        spec = table.lookup("ioctl$SCSI_IOCTL_SEND_COMMAND")
        elements = [p for p, _ in enumerate_type_paths(spec)]
        assert (0,) not in elements  # fd resource
        assert (1,) not in elements  # command constant


class TestKernelStructure:
    def test_every_handler_validates(self, kernel):
        for cfg in kernel.handlers.values():
            cfg.validate()

    def test_every_spec_has_handler(self, kernel):
        for spec in kernel.table:
            assert spec.full_name in kernel.handlers

    def test_block_ids_globally_unique(self, kernel):
        seen = set()
        for cfg in kernel.handlers.values():
            for block_id in cfg.block_ids():
                # Shared ids across handlers would break coverage.
                key = (block_id,)
                assert block_id not in seen or kernel.handler_of_block[
                    block_id
                ] == cfg.syscall
                seen.add(block_id)

    def test_handler_of_block_consistent(self, kernel):
        for name, cfg in kernel.handlers.items():
            for block_id in cfg.block_ids():
                assert kernel.handler_of_block[block_id] == name

    def test_preds_invert_succs(self, kernel):
        for src, dsts in kernel.succs.items():
            for dst in dsts:
                assert src in kernel.preds[dst]

    def test_deterministic_build(self):
        a = build_kernel("6.8", seed=9, size="small")
        b = build_kernel("6.8", seed=9, size="small")
        assert a.block_count == b.block_count
        for name in a.handlers:
            assert a.handlers[name].succs == b.handlers[name].succs


class TestFrontier:
    def test_frontier_excludes_covered(self, kernel):
        cfg = next(iter(kernel.handlers.values()))
        covered = {cfg.entry}
        frontier = kernel.frontier(covered)
        assert cfg.entry not in frontier
        assert frontier == set(kernel.succs[cfg.entry])

    def test_frontier_empty_for_empty_coverage(self, kernel):
        assert kernel.frontier(set()) == set()

    def test_distance_to_target(self, kernel):
        cfg = next(iter(kernel.handlers.values()))
        exits = cfg.exits()
        distance = kernel.target_distances([exits[0]])
        assert distance[exits[0]] == 0
        assert cfg.entry in distance  # exit reachable from entry


class TestBugs:
    def test_ata_bug_planted(self, kernel):
        assert "ata-oob" in kernel.bug_blocks
        bug = next(b for b in kernel.bugs if b.bug_id == "ata-oob")
        assert bug.kind is CrashKind.OOB
        assert bug.corrupts_memory
        assert not bug.known

    def test_ata_conditions_match_paper(self, kernel):
        """Bug #1's guard chain: ATA_16 opcode first."""
        block_id = kernel.bug_blocks["ata-oob"]
        cfg = kernel.handlers["ioctl$SCSI_IOCTL_SEND_COMMAND"]
        # The immediate conditional predecessor checks outlen > 512;
        # walking predecessors reaches the opcode == ATA_16 check.
        operands = set()
        frontier = {block_id}
        seen = set()
        while frontier:
            current = frontier.pop()
            for pred in kernel.preds.get(current, ()):
                block = kernel.blocks[pred]
                if block.role is BlockRole.CONDITION and pred not in seen:
                    seen.add(pred)
                    operands.add(block.condition.operand)
                    frontier.add(pred)
        assert ATA_16 in operands
        assert 512 in operands

    def test_default_plan_depths(self, kernel):
        for bug in kernel.bugs:
            block_id = kernel.bug_blocks[bug.bug_id]
            cfg = kernel.handlers[
                kernel.handler_of_block[block_id]
            ]
            # Reaching the crash block requires at least `depth`
            # conditions along the shortest path.
            assert cfg.depth_of(block_id) >= bug.depth

    def test_known_and_unknown_bugs_present(self, kernel):
        known = [b for b in kernel.bugs if b.known]
        unknown = [b for b in kernel.bugs if not b.known]
        assert len(known) >= 5
        assert len(unknown) >= 5

    def test_unknown_syscall_in_plan_rejected(self, table):
        config = KernelConfig(
            seed=0,
            bug_plans=(
                BugPlan("x", CrashKind.GPF, "fs", "f", depth=1,
                        syscall="nonexistent"),
            ),
            plant_ata_bug=False,
        )
        with pytest.raises(KernelBuildError):
            KernelBuilder(table, config).build()


class TestVersions:
    def test_later_versions_grow(self):
        v68 = build_kernel("6.8", seed=1, size="small")
        v69 = build_kernel("6.9", seed=1, size="small")
        v610 = build_kernel("6.10", seed=1, size="small")
        assert v69.block_count > v68.block_count
        assert v610.block_count > v69.block_count

    def test_shared_handlers_mostly_identical(self):
        """Cross-version code sharing: most 6.8 handlers keep their
        structure in 6.9 (the perturbed fraction is small)."""
        v68 = build_kernel("6.8", seed=1, size="small")
        v69 = build_kernel("6.9", seed=1, size="small")
        same = 0
        total = 0
        for name, cfg in v68.handlers.items():
            other = v69.handlers.get(name)
            if other is None:
                continue
            total += 1
            asm_a = sorted(b.asm for b in cfg.blocks.values())
            asm_b = sorted(b.asm for b in other.blocks.values())
            if asm_a == asm_b:
                same += 1
        assert total > 0
        assert same / total > 0.6

    def test_new_subsystems_in_610(self):
        v610 = build_kernel("6.10", seed=1, size="small")
        assert any(name.startswith("sendmsg$rxrpc") for name in v610.handlers)

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            build_kernel("6.8", seed=1, size="gigantic")

    def test_default_bug_plans_unique_ids(self):
        plans = default_bug_plans()
        ids = [plan.bug_id for plan in plans]
        assert len(ids) == len(set(ids))


class TestHandlerCFGValidation:
    def _tiny_cfg(self):
        cfg = HandlerCFG(syscall="x", entry=0)
        cfg.blocks[0] = BasicBlock(0, "e", "s", BlockRole.ENTRY)
        cfg.blocks[1] = BasicBlock(1, "x", "s", BlockRole.EXIT_SUCCESS)
        cfg.succs[0] = (1,)
        return cfg

    def test_valid_tiny_cfg(self):
        self._tiny_cfg().validate()

    def test_unknown_successor_rejected(self):
        cfg = self._tiny_cfg()
        cfg.succs[0] = (99,)
        with pytest.raises(KernelBuildError):
            cfg.validate()

    def test_unreachable_block_rejected(self):
        cfg = self._tiny_cfg()
        cfg.blocks[2] = BasicBlock(2, "dead", "s", BlockRole.BODY)
        cfg.succs[2] = (1,)
        with pytest.raises(KernelBuildError):
            cfg.validate()

    def test_cycle_rejected(self):
        cfg = self._tiny_cfg()
        cfg.blocks[2] = BasicBlock(2, "loop", "s", BlockRole.BODY)
        cfg.succs[0] = (2,)
        cfg.succs[2] = (0,)
        with pytest.raises(KernelBuildError):
            cfg.validate()

    def test_exit_with_successor_rejected(self):
        cfg = self._tiny_cfg()
        cfg.succs[1] = (0,)
        with pytest.raises(KernelBuildError):
            cfg.validate()
