"""Nothing in ``src/repro`` exists only for the tests.

Every public module-level ``def`` and ``class`` in ``src/repro`` must be
named by some ``ast.Name`` or ``ast.Attribute`` node in ``src/repro``,
``benchmarks``, ``bench`` or ``examples``.  Import lines and ``__all__``
strings are not such nodes, so a re-export alone is not a use.  The few
names kept for the tests on purpose sit in ``ALLOWED`` with the reason.

Options follow the same rule: every field of every ``@dataclass`` named
``*Config`` in ``src/repro`` must be given a value by name in those
directories — a keyword in a call to the class or to
``dataclasses.replace``, an attribute assignment (other than to
``self``), or a key of a module-level dict splatted into the class's
call.  A field nothing sets is a constant.  The exceptions sit in
``ALLOWED`` as ``Class.field`` with the reason.
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
    "PMMConfig.readout_hidden": "a checkpoint header field load_pmm restores",
    "PMMConfig.positive_weight": "a checkpoint header field load_pmm restores",
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


def _name_of(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        _name_of(dec.func if isinstance(dec, ast.Call) else dec)
        == "dataclass"
        for dec in node.decorator_list
    )


def _dict_keys(node: ast.expr) -> set[str]:
    """String keys of a ``{...}`` or ``dict(...)`` literal."""
    if isinstance(node, ast.Dict):
        return {
            key.value for key in node.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
        }
    if isinstance(node, ast.Call) and _name_of(node.func) == "dict":
        return {kw.arg for kw in node.keywords if kw.arg is not None}
    return set()


def _splatted_keys(node: ast.expr, tables: dict[str, ast.expr]) -> set[str]:
    """Keys ``**node`` passes when ``node`` names a module-level dict,
    or subscripts one whose values are dicts."""
    if isinstance(node, ast.Name) and node.id in tables:
        return _dict_keys(tables[node.id])
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and isinstance(tables.get(node.value.id), ast.Dict)
    ):
        keys: set[str] = set()
        for value in tables[node.value.id].values:
            keys |= _dict_keys(value)
        return keys
    return set()


@pytest.fixture(scope="module")
def config_fields() -> dict[str, list[str]]:
    """Each ``*Config`` dataclass in src/repro -> its field names."""
    fields: dict[str, list[str]] = {}
    for _, tree in _parse(SRC):
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ClassDef)
                and node.name.endswith("Config")
                and _is_dataclass(node)
            ):
                fields[node.name] = [
                    stmt.target.id for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                ]
    return fields


@pytest.fixture(scope="module")
def fields_given(config_fields) -> set[str]:
    """``Class.field`` for every field given a value by name outside
    tests."""
    given: set[str] = set()

    def give(classes, name) -> None:
        for cls in classes:
            if name in config_fields[cls]:
                given.add(f"{cls}.{name}")

    for directory in CALLER_DIRS:
        for _, tree in _parse(directory):
            tables = {
                target.id: stmt.value
                for stmt in tree.body if isinstance(stmt, ast.Assign)
                for target in stmt.targets if isinstance(target, ast.Name)
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    callee = _name_of(node.func)
                    if callee in config_fields:
                        classes = [callee]
                    elif callee == "replace":
                        classes = list(config_fields)
                    else:
                        continue
                    for kw in node.keywords:
                        names = (
                            {kw.arg} if kw.arg is not None
                            else _splatted_keys(kw.value, tables)
                        )
                        for name in names:
                            give(classes, name)
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if isinstance(target, ast.Attribute) and not (
                            isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            give(config_fields, target.attr)
    return given


def test_every_config_field_is_set_outside_tests(config_fields, fields_given):
    unset = sorted(
        f"{cls}.{name}"
        for cls, names in config_fields.items()
        for name in names
        if f"{cls}.{name}" not in fields_given
        and f"{cls}.{name}" not in ALLOWED
    )
    assert not unset, (
        "config fields nothing outside tests/ sets (make them "
        "constants): " + ", ".join(unset)
    )


def test_allowed_names_are_defined_and_uncalled(
    defined, named, config_fields, fields_given
):
    fields = {
        f"{cls}.{name}"
        for cls, names in config_fields.items()
        for name in names
    }
    gone = sorted(
        entry for entry in ALLOWED
        if entry not in defined and entry not in fields
    )
    called = sorted(
        entry for entry in ALLOWED
        if entry in named or entry in fields_given
    )
    assert not gone and not called, (
        f"stale ALLOWED entries: no longer defined {gone}, "
        f"now called or set {called}"
    )
