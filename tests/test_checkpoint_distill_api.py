"""Tests for checkpointing, corpus distillation, the Fig. 1 API, and CLI."""

import json
import re

import numpy as np
import pytest

from repro.errors import CampaignError, ModelError
from repro.fuzzer.api import FuzzReport, fuzz_corpus
from repro.fuzzer.distill import distill_corpus
from repro.fuzzer.mutations import ArgumentInstantiator, MutationType
from repro.graphs import AsmVocab, GraphEncoder, build_query_graph
from repro.kernel import Executor, build_kernel
from repro.pmm import PMM, PMMConfig
from repro.pmm.checkpoint import load_pmm, save_pmm
from repro.rng import make_rng
from repro.syzlang import ProgramGenerator, build_standard_table


class TestCheckpoint:
    @pytest.fixture()
    def artifacts(self, kernel, tmp_path):
        vocab = AsmVocab.build(kernel)
        encoder = GraphEncoder(vocab, kernel.table)
        model = PMM(
            len(vocab), encoder.num_syscalls,
            PMMConfig(dim=16, gnn_layers=1, asm_layers=1, asm_heads=2,
                      seed=3),
        )
        model.decision_threshold = 0.42
        path = tmp_path / "pmm.npz"
        save_pmm(path, model, vocab, kernel.table)
        return model, vocab, path

    def test_roundtrip_weights_and_threshold(self, kernel, artifacts):
        model, vocab, path = artifacts
        loaded, loaded_vocab, encoder = load_pmm(path, kernel.table)
        assert loaded.decision_threshold == pytest.approx(0.42)
        assert len(loaded_vocab) == len(vocab)
        for original, restored in zip(
            model.state_arrays(), loaded.state_arrays()
        ):
            assert np.allclose(original, restored)

    def test_roundtrip_predictions_identical(self, kernel, artifacts):
        model, vocab, path = artifacts
        loaded, _, encoder = load_pmm(path, kernel.table)
        generator = ProgramGenerator(kernel.table, make_rng(0))
        executor = Executor(kernel)
        program = generator.random_program()
        coverage = executor.run(program).coverage
        graph = build_query_graph(program, coverage, kernel)
        encoded = encoder.encode(graph)
        assert np.allclose(
            model.forward(encoded).data, loaded.forward(encoded).data
        )

    def test_load_on_newer_table_keeps_ids(self, kernel, artifacts):
        """Deploying a 6.8 checkpoint on a 6.10 table must preserve the
        training-time syscall-id assignment."""
        _, _, path = artifacts
        newer = build_standard_table("6.10")
        loaded, _, encoder = load_pmm(path, newer)
        base = GraphEncoder(AsmVocab.build(kernel), kernel.table)
        assert encoder.syscall_to_id == base.syscall_to_id

    def test_missing_syscalls_rejected(self, artifacts, tmp_path):
        _, _, path = artifacts
        from repro.syzlang.spec import SyscallTable, SyscallSpec
        from repro.syzlang.types import IntType

        tiny = SyscallTable([SyscallSpec("only", (("x", IntType()),))])
        with pytest.raises(ModelError):
            load_pmm(path, tiny)

    def test_missing_file_rejected(self, kernel, tmp_path):
        with pytest.raises(ModelError):
            load_pmm(tmp_path / "nope.npz", kernel.table)

    @pytest.mark.parametrize("damage", [
        "text-file", "truncated", "corrupted", "empty", "directory",
        "no-header", "header-not-json", "no-syscalls", "unknown-config-key",
        "non-numeric-threshold",
    ])
    def test_malformed_checkpoint_raises_model_error(
        self, kernel, artifacts, damage
    ):
        """Every way a checkpoint file can be broken surfaces as the
        loader's domain error, never as a zip/JSON/config exception."""
        _, _, path = artifacts
        raw = path.read_bytes()
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        header = json.loads(bytes(arrays["header"]).decode())
        if damage == "text-file":
            path.write_text("not a checkpoint\n")
        elif damage == "truncated":
            path.write_bytes(raw[: len(raw) // 2])
        elif damage == "corrupted":
            flipped = bytes(byte ^ 0x5A for byte in raw[200:264])
            path.write_bytes(raw[:200] + flipped + raw[264:])
        elif damage == "empty":
            path.write_bytes(b"")
        elif damage == "directory":
            path.unlink()
            path.mkdir()
        else:
            if damage == "no-header":
                del arrays["header"]
            elif damage == "header-not-json":
                arrays["header"] = np.frombuffer(b"{not json", dtype=np.uint8)
            else:
                if damage == "no-syscalls":
                    del header["syscalls"]
                elif damage == "unknown-config-key":
                    header["config"]["bogus"] = 1
                else:
                    header["decision_threshold"] = "high"
                arrays["header"] = np.frombuffer(
                    json.dumps(header).encode(), dtype=np.uint8
                )
            with path.open("wb") as handle:
                np.savez_compressed(handle, **arrays)
        with pytest.raises(ModelError, match=re.escape(str(path))):
            load_pmm(path, kernel.table)


class TestDistill:
    def test_distilled_preserves_total_coverage(self, kernel):
        generator = ProgramGenerator(kernel.table, make_rng(10))
        executor = Executor(kernel)
        corpus = generator.seed_corpus(40)
        distilled = distill_corpus(corpus, executor)
        union = set()
        for coverage in distilled.coverages:
            union |= coverage.edges
        assert len(union) == distilled.total_edges
        # Re-executing everything must not find coverage distillation lost.
        full = set()
        for program in corpus:
            result = executor.run(program)
            if not result.crashed:
                full |= result.coverage.edges
        assert union == full

    def test_distillation_reduces(self, kernel):
        generator = ProgramGenerator(kernel.table, make_rng(11))
        executor = Executor(kernel)
        corpus = generator.seed_corpus(60)
        distilled = distill_corpus(corpus, executor)
        assert len(distilled.programs) < len(corpus)
        assert distilled.reduction > 0

    def test_budget_respected(self, kernel):
        generator = ProgramGenerator(kernel.table, make_rng(12))
        executor = Executor(kernel)
        corpus = generator.seed_corpus(30)
        distilled = distill_corpus(corpus, executor, max_programs=5)
        assert len(distilled.programs) <= 5

    def test_greedy_keeps_best_first(self, kernel):
        generator = ProgramGenerator(kernel.table, make_rng(13))
        executor = Executor(kernel)
        corpus = generator.seed_corpus(20)
        one = distill_corpus(corpus, executor, max_programs=1)
        best = max(
            len(executor.run(p).coverage.edges)
            for p in corpus
            if not executor.run(p).crashed
        )
        assert one.total_edges == best


class TestFigure1Api:
    def _policies(self, kernel):
        generator = ProgramGenerator(kernel.table, make_rng(20))
        instantiator_impl = ArgumentInstantiator(generator, make_rng(21))

        def choose_test(corpus, uncovered, covered, targets, rng):
            return corpus[int(rng.integers(len(corpus)))], None

        def selector(test, target, rng):
            return MutationType.ARGUMENT_MUTATION

        def localizer(test, target, m_type, rng):
            sites = test.mutation_sites()
            return [sites[int(rng.integers(len(sites)))]] if sites else []

        def instantiator(program, target, m_type, paths, rng):
            for path in paths:
                instantiator_impl.instantiate(program, path)

        return generator, choose_test, selector, localizer, instantiator

    def test_fuzz_corpus_runs(self, kernel):
        generator, choose, selector, localizer, inst = self._policies(kernel)
        executor = Executor(kernel)
        report = fuzz_corpus(
            generator.seed_corpus(5), choose, selector, localizer, inst,
            kernel, executor, make_rng(22), max_executions=100,
        )
        assert isinstance(report, FuzzReport)
        assert report.executions == 100
        assert report.covered
        assert len(report.corpus) >= 5

    def test_directed_stops_on_target(self, kernel):
        generator, choose, selector, localizer, inst = self._policies(kernel)
        executor = Executor(kernel)
        seeds = generator.seed_corpus(5)
        baseline = executor.run(seeds[0]).coverage.blocks
        target = next(iter(baseline))
        report = fuzz_corpus(
            seeds, choose, selector, localizer, inst,
            kernel, executor, make_rng(23), targets={target},
            max_executions=500,
        )
        assert target in report.targets_reached
        assert report.executions < 500

    def test_empty_corpus_rejected(self, kernel):
        generator, choose, selector, localizer, inst = self._policies(kernel)
        with pytest.raises(CampaignError):
            fuzz_corpus(
                [], choose, selector, localizer, inst,
                kernel, Executor(kernel), make_rng(24),
            )


class TestCli:
    def test_build_kernel_command(self, capsys):
        from repro.cli import main

        assert main(["build-kernel", "--size", "small"]) == 0
        out = capsys.readouterr().out
        assert "syscall variants" in out

    def test_exec_command(self, tmp_path, capsys, kernel):
        from repro.cli import main
        from repro.syzlang import serialize_program

        generator = ProgramGenerator(kernel.table, make_rng(30))
        program = generator.random_program()
        prog_file = tmp_path / "t.syz"
        prog_file.write_text(serialize_program(program))
        code = main([
            "exec", "--size", "small", "--prog", str(prog_file),
        ])
        out = capsys.readouterr().out
        assert "blocks" in out
        assert code in (0, 1)

    def test_triage_command_on_ata(self, tmp_path, capsys, kernel):
        from repro.cli import main
        from repro.syzlang import serialize_program
        from tests.test_kernel_executor import TestAtaBug

        program = TestAtaBug()._ata_program(kernel)
        prog_file = tmp_path / "crash.syz"
        prog_file.write_text(serialize_program(program))
        code = main(["triage", "--size", "small", "--prog", str(prog_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "minimised reproducer" in out
