"""Nothing in ``src/repro`` exists only for the tests.

Every public module-level ``def`` and ``class`` in ``src/repro`` must be
named by some ``ast.Name`` or ``ast.Attribute`` node in ``src/repro``,
``benchmarks``, ``bench`` or ``examples``.  Import lines and ``__all__``
strings are not such nodes, so a re-export alone is not a use.  The few
names kept for the tests on purpose sit in ``ALLOWED`` with the reason.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CALLER_DIRS = (SRC, ROOT / "benchmarks", ROOT / "bench", ROOT / "examples")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

ALLOWED = {
    "SGD": "named only by a bench/trace.py entry-point string",
    "witness_program": "the test reference that proves an oracle slice sound",
    "load_findings": "the reader tests round-trip findings.json through",
    "load_alerts": "the reader tests round-trip alerts.json through",
}


def _parse(directory: Path):
    for path in sorted(directory.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


@pytest.fixture(scope="module")
def defined() -> dict[str, list[str]]:
    """Each public module-level def/class name -> its ``path:name`` sites."""
    sites: dict[str, list[str]] = {}
    for path, tree in _parse(SRC):
        for node in tree.body:
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
                sites.setdefault(node.name, []).append(
                    f"{path.relative_to(ROOT)}:{node.name}"
                )
    return sites


@pytest.fixture(scope="module")
def named() -> set[str]:
    """Every identifier a Name or Attribute node spells outside tests."""
    names: set[str] = set()
    for directory in CALLER_DIRS:
        for _, tree in _parse(directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_public_definition_has_a_caller(defined, named):
    orphans = sorted(
        site
        for name, sites in defined.items()
        if name not in named and name not in ALLOWED
        for site in sites
    )
    assert not orphans, (
        "public in src/repro but named nowhere outside tests/: "
        + ", ".join(orphans)
    )


def test_allowed_names_are_defined_and_uncalled(defined, named):
    gone = sorted(name for name in ALLOWED if name not in defined)
    called = sorted(name for name in ALLOWED if name in named)
    assert not gone and not called, (
        f"stale ALLOWED entries: no longer defined {gone}, "
        f"now called {called}"
    )
