"""Every option that names an output file creates its parent directory.

Each case points one file-writing option at a path under a directory
that does not exist yet, with the cheapest inputs the command accepts.
"""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def export(tmp_path_factory):
    """A tiny traced campaign: spans, lineage and metrics to read."""
    directory = tmp_path_factory.mktemp("export")
    assert main([
        "fuzz", "--size", "tiny", "--oracle", "--hours", "0.05",
        "--seed-corpus", "2", "--observe-dir", str(directory),
    ]) == 0
    return directory


# (argv before the output option, output option, file the command writes
# under the option's value)
WRITERS = [
    pytest.param(
        ["observe", "render", "{export}/spans.jsonl"], "--chrome", "",
        id="observe-render-chrome",
    ),
    pytest.param(
        ["observe", "explain", "bugs", "--dir", "{export}"], "--table", "",
        id="observe-explain-table",
    ),
    pytest.param(
        ["observe", "report", "{export}"], "--out", "",
        id="observe-report-out",
    ),
    pytest.param(
        ["analyze", "oracle", "--size", "tiny", "--corpus-size", "8",
         "--mutations", "8"], "--out", "",
        id="analyze-oracle-out",
    ),
    pytest.param(
        ["analyze", "kernel", "--size", "tiny"], "--out", "",
        id="analyze-kernel-out",
    ),
    pytest.param(
        ["analyze", "impact", "6.8", "6.9", "--size", "tiny"],
        "--manifest", "",
        id="analyze-impact-manifest",
    ),
    pytest.param(
        ["specgen", "infer", "--size", "tiny"], "--out", "specs_6_8.syz",
        id="specgen-infer-out",
    ),
    pytest.param(
        ["specgen", "diff", "--size", "tiny"], "--out", "",
        id="specgen-diff-out",
    ),
    pytest.param(
        ["specgen", "campaign", "--size", "tiny", "--hours", "0.02",
         "--seed-corpus", "1"], "--out", "",
        id="specgen-campaign-out",
    ),
    pytest.param(
        ["serve", "--state-dir", "{tmp}/service", "--until", "0"],
        "--report-out", "",
        id="serve-report-out",
    ),
]


@pytest.mark.parametrize("argv,option,written", WRITERS)
def test_output_option_creates_missing_directory(
    export, tmp_path, capsys, argv, option, written
):
    target = tmp_path / "missing" / "deeper" / "output"
    argv = [
        arg.format(export=export, tmp=tmp_path) for arg in argv
    ] + [option, str(target)]
    assert main(argv) == 0
    path = target / written if written else target
    assert path.is_file() and path.stat().st_size > 0
