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
