"""Every CLI run of tools/cli_digests.py's config set, against the digests
committed in cli_digests.txt.

The tool runs once per pytest run, in the fresh interpreter of
test_reach.reach_run, which profiles it and sets spectral.CORES = 2 (so
the kernels-split config forks on any host); neither changes an output
byte.  It prints one line per run: its exit code, output and a digest of
the files it wrote.  A change that moves any of them rewrites the file,

    python tools/cli_digests.py > tests/cli_digests.txt

and the file's diff names the runs that moved.  The digests hold the
floating-point bits of the python, numpy and scipy named in the file's first
line; under other versions the test skips and names both.

The same lines show that every records.csv simulate writes passes
check --records, thinned ones included, under any versions.
"""

import importlib.util
from pathlib import Path

import pytest
from test_reach import reach_run

TESTS = Path(__file__).resolve().parent
COMMITTED = TESTS / "cli_digests.txt"


def load_tool():
    spec = importlib.util.spec_from_file_location("cli_digests", TESTS.parent / "tools" / "cli_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_cli_outputs_match_the_committed_digests():
    tool = load_tool()
    header, *expected = COMMITTED.read_text(encoding="utf-8").splitlines()
    if header != tool.versions():
        pytest.skip(f"digests written under {header[2:]}, running under {tool.versions()[2:]}")
    _, *actual = reach_run()["digests"].splitlines()
    moved = sorted({line.split(" ", 1)[0] for line in set(expected) ^ set(actual)})
    assert not moved, f"CLI output moved for configs {moved}; see tools/cli_digests.py to rewrite {COMMITTED.name}"
    assert actual == expected


def test_every_file_simulate_writes_passes_check():
    # "<config> <command>: exit <code> files <sha256 or -> stdout ..."
    runs = {}
    for line in reach_run()["digests"].splitlines()[1:]:
        config, rest = line.split(" ", 1)
        command, result = rest.split(": ", 1)
        _, code, _, files, _ = result.split(" ", 4)
        runs[config, command] = code, files
    wrote = [config for (config, command), (_, files) in runs.items() if command == "simulate" and files != "-"]
    assert {"fixed-landing-thinned", "record_every"} <= set(wrote)  # the thinned runs
    failed = [config for config in wrote if runs[config, "check --records <dir>/out/records.csv"][0] != "0"]
    assert not failed, f"check --records rejects the records.csv simulate wrote for {failed}"
