"""Tests for PMM checkpoint save/load and the basic CLI commands."""

import gc
import json
import re
import warnings

import numpy as np
import pytest

from repro.errors import ModelError
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

    def test_truncated_checkpoint_leaks_no_file_handle(
        self, kernel, artifacts
    ):
        """A rejected bad zip leaves no open file behind (a long-running
        service would leak one descriptor per rejected submit)."""
        _, _, path = artifacts
        path.write_bytes(path.read_bytes()[:40])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ModelError):
                load_pmm(path, kernel.table)
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]


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
