"""A small run of tools/perf_ms.py's in-process tables on the tree under test.

The tool is loaded by path, as test_cli_digests.py loads its tool, with its
sizes cut so that the four tables take about a second; its fresh-process
probes (resident, kernels and simulate peaks, check, cold start) are not
run.  At MAX_N = 120 kernels.csv has 7,260 lines, more than 2 *
cli.FORK_MIN_LINES, so with CORES = 2 the kernels pass and its split
timeline have a forked part.
"""

import importlib.util
from pathlib import Path

import pytest

from chsolver import spectral, stepper

TOOL = Path(__file__).resolve().parents[1] / "tools" / "perf_ms.py"


@pytest.fixture
def tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("perf_ms", TOOL)
    perf_ms = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perf_ms)
    sizes = {"GRIDS": ((2, 16), (3, 8)), "REPEATS": 1, "MAX_N": 120, "FORM_N": 1000, "IO_ROWS": 100}
    for name, value in sizes.items():
        monkeypatch.setattr(perf_ms, name, value)
    monkeypatch.setattr(spectral, "CORES", 2)
    return perf_ms


def test_in_process_tables_time_every_name(tool, capsys):
    timed = {name: getattr(stepper, name) for _, names in tool.PHASES for name in names}
    tool.advance_table(dict.fromkeys(tool.GRIDS, 0.0))
    tool.phase_table()
    tool.kernels_table((0.0, 0.0))
    tool.io_table()
    out = capsys.readouterr().out
    assert "n/a" not in out
    assert "(CORES = 2)" in out
    for dim, n in tool.GRIDS:
        for cores in (1, 2):
            assert f"{dim}d N={n} (CORES = {cores})" in out
    assert "rows 1..85, written by the command" in out
    assert "rows 86..120, written by a forked process" in out
    for label in ("write_snapshot", "read_snapshot", "read_record_blocks (100 rows)", "RecordCheck.feed (100 rows)"):
        assert label in out
    # every table restores what it sets or wraps
    assert spectral.CORES == 2
    assert all(getattr(stepper, name) is fn for name, fn in timed.items())


def test_a_renamed_phase_raises(tool, monkeypatch):
    monkeypatch.delattr(stepper, "_well_energy")
    with pytest.raises(AttributeError, match="_well_energy"):
        tool.phase_table()
