"""What each entry point imports and starts: scipy.fft only where something
is transformed, scipy.optimize never, no scipy import at module level, no
thread pool (concurrent.futures.thread) anywhere, no thread at all on
grids below the parallel threshold, and for kernels neither a thread nor
multiprocessing, also where it forks."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chsolver
from chsolver.cli import FORK_MIN_LINES, main

PACKAGE = Path(chsolver.__file__).resolve().parent

# Imports the package (or runs the CLI on the given arguments) in a fresh
# interpreter and prints the exit code, the scipy, concurrent and
# multiprocessing modules then loaded, and the number of threads started
# meanwhile.
PROBE = """
import json, sys, threading
started = []
start = threading.Thread.start
def counting_start(self):
    started.append(self.name)
    start(self)
threading.Thread.start = counting_start
if sys.argv[1:]:
    from chsolver.cli import main
    code = main(sys.argv[1:])
else:
    import chsolver
    code = 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "concurrent", "multiprocessing"))
print(json.dumps([code, loaded, len(started)]))
"""


def fresh(*argv):
    """(exit code, loaded scipy, concurrent and multiprocessing modules,
    threads started) of PROBE in a new interpreter."""
    # the child imports the same package as this suite, however it was put on sys.path
    path = os.pathsep.join(p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded, threads = json.loads(proc.stdout.splitlines()[-1])
    return code, set(loaded), threads


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


SIM_CFG = "scenario = equilibrium\nn = 16\n"


def test_import_loads_no_scipy_fft_or_optimize():
    code, loaded, _ = fresh()
    assert code == 0
    assert "scipy.fft" not in loaded
    assert "scipy.optimize" not in loaded
    assert "concurrent.futures" not in loaded


def test_kernels_leaves_scipy_fft_unloaded(tmp_path):
    cfg = write_cfg(tmp_path, "scenario = convergence\n[kernels]\nmax_n = 30\n")
    code, loaded, _ = fresh("kernels", cfg, "--outdir", str(tmp_path / "out"))
    assert code == 0
    assert "scipy.fft" not in loaded
    assert "scipy.optimize" not in loaded
    assert "concurrent.futures" not in loaded


def test_kernels_above_the_split_threshold_starts_no_thread(tmp_path):
    # the rows are split among forked processes on a host with more than one core
    max_n = 140
    assert max_n * (max_n + 1) // 2 >= 2 * FORK_MIN_LINES
    cfg = write_cfg(tmp_path, f"scenario = convergence\n[kernels]\nmax_n = {max_n}\n")
    code, loaded, threads = fresh("kernels", cfg, "--outdir", str(tmp_path / "out"))
    assert code == 0
    assert threads == 0
    assert not {m.split(".")[0] for m in loaded} & {"concurrent", "multiprocessing"}
    assert "scipy.fft" not in loaded


def test_check_records_leaves_scipy_fft_unloaded(tmp_path):
    cfg = write_cfg(tmp_path, SIM_CFG)
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--outdir", str(out)]) == 0
    code, loaded, _ = fresh("check", cfg, "--records", str(out / "records.csv"))
    assert code == 0
    assert "scipy.fft" not in loaded
    assert "scipy.optimize" not in loaded
    assert "concurrent.futures" not in loaded


@pytest.mark.parametrize("command", ["simulate", "check", "converge"])
def test_transforming_commands_load_scipy_fft_but_not_optimize(tmp_path, command):
    # the outdir in the file: check takes no --outdir
    text = SIM_CFG + f"[converge]\nbase_k = 4\nlevels = 1\nref_steps = 8\n[output]\noutdir = {tmp_path / 'out'}\n"
    code, loaded, _ = fresh(command, write_cfg(tmp_path, text))
    assert code == 0
    assert "scipy.fft" in loaded
    assert "scipy.optimize" not in loaded
    # scipy.fft itself loads concurrent.futures, but not its thread pool
    assert "concurrent.futures.thread" not in loaded


@pytest.mark.parametrize(
    "text",
    [
        "scenario = kissing_bubbles\nn = 128\nhorizon = 0.01\n[output]\nsnapshots = 0.0\n",
        "scenario = coarsening3d\nhorizon = 0.0005\n[output]\nsnapshots = 0.0\n",
    ],
    ids=["kissing_bubbles-2d-128", "coarsening3d-3d-48"],
)
def test_simulate_below_the_parallel_threshold_starts_no_thread(tmp_path, text):
    # 2d N=128 and 3d N=48 grids have fewer than 2^18 points, so neither slab
    # threads nor the transforms' workers are started
    code, loaded, threads = fresh("simulate", write_cfg(tmp_path, text), "--outdir", str(tmp_path / "out"))
    assert code == 0
    assert threads == 0
    assert "concurrent.futures.thread" not in loaded


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_concurrent(module):
    tree = ast.parse(module.read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.append(node.module)
    assert not [name for name in names if name.split(".")[0] == "concurrent"]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_scipy_is_imported_only_inside_functions(module):
    tree = ast.parse(module.read_text(encoding="utf-8"))
    top_level = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            top_level += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            top_level.append(node.module)
    assert not [name for name in top_level if name.split(".")[0] == "scipy"]
