"""The CLI's argument surface, pinned.

Every leaf command of ``build_parser()`` is recorded with each
argument's option strings, dest, default, type, choices, required flag,
nargs and action class (help text left out).  Options compare as a set,
positionals in order, so sharing a flag declaration between commands
cannot change what any command accepts.

Regenerate the golden only for a deliberate surface change::

    PYTHONPATH=src python tests/test_cli_surface.py > tests/golden/cli_flags.json
"""

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import build_parser

GOLDEN = Path(__file__).parent / "golden" / "cli_flags.json"


def _leaves(parser: argparse.ArgumentParser, prefix: str = ""):
    """``(command path, parser)`` for every leaf command."""
    subparsers = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    if not subparsers:
        yield prefix.strip(), parser
        return
    for name, child in subparsers[0].choices.items():
        yield from _leaves(child, f"{prefix} {name}")


def _argument(action: argparse.Action) -> dict:
    choices = action.choices
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "type": None if action.type is None else action.type.__name__,
        "choices": None if choices is None else list(choices),
        "required": action.required,
        "nargs": action.nargs,
        "action": type(action).__name__,
    }


def cli_surface() -> dict:
    surface = {}
    for command, parser in _leaves(build_parser()):
        arguments = [_argument(action) for action in parser._actions]
        surface[command] = {
            "options": sorted(
                (a for a in arguments if a["option_strings"]),
                key=lambda a: a["option_strings"],
            ),
            "positionals": [a for a in arguments if not a["option_strings"]],
        }
    return surface


GOLDEN_SURFACE = json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def surface():
    return cli_surface()


def _canonical(argument: dict) -> str:
    return json.dumps(argument, sort_keys=True)


def test_leaf_commands_match_golden(surface):
    assert sorted(surface) == sorted(GOLDEN_SURFACE)


@pytest.mark.parametrize("command", sorted(GOLDEN_SURFACE))
def test_arguments_match_golden(surface, command):
    """Options compare as a set, positionals in order."""
    recorded, golden = surface[command], GOLDEN_SURFACE[command]
    assert (
        {_canonical(a) for a in recorded["options"]}
        == {_canonical(a) for a in golden["options"]}
    )
    assert recorded["positionals"] == golden["positionals"]


if __name__ == "__main__":
    print(json.dumps(cli_surface(), indent=1, sort_keys=True))
