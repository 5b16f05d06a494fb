"""Smoke tests: the example scripts' building blocks stay runnable.

Full example runs take minutes; these tests exercise their helper
functions and a truncated version of each main path.
"""

from pathlib import Path

import pytest

from repro.kernel import Executor


class TestCrashHuntingExample:
    def test_ata_reproducer_builds_and_crashes(self, kernel):
        import examples.crash_hunting as example

        program = example.ata_reproducer(kernel)
        program.validate(kernel.table)
        result = Executor(kernel, seed=1).run(program)
        assert result.crashed
        assert result.crash.bug.bug_id == "ata-oob"


class TestServingExample:
    def test_pool_sweep_runs(self, capsys):
        import examples.inference_serving as example

        example.sweep_pool_sizes()
        output = capsys.readouterr().out
        assert "q/s" in output
        assert "57" in output  # the paper reference line


EXAMPLES = sorted(
    f"examples.{path.stem}"
    for path in Path(__file__).resolve().parents[1].glob("examples/*.py")
    if path.stem != "__init__"
)


class TestExamplesImportable:
    @pytest.mark.parametrize("module", EXAMPLES)
    def test_importable_with_main(self, module):
        imported = __import__(module, fromlist=["main"])
        assert callable(imported.main)
