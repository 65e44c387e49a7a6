"""What each entry point imports: scipy.fft only where something is
transformed, scipy.optimize never, and no scipy import at module level."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chsolver
from chsolver.cli import main

PACKAGE = Path(chsolver.__file__).resolve().parent

# Imports the package (or runs the CLI on the given arguments) in a fresh
# interpreter and prints the exit code and the scipy modules then loaded.
PROBE = """
import json, sys
if sys.argv[1:]:
    from chsolver.cli import main
    code = main(sys.argv[1:])
else:
    import chsolver
    code = 0
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def fresh(*argv):
    """(exit code, loaded scipy modules) of PROBE in a new interpreter."""
    # the child imports the same package as this suite, however it was put on sys.path
    path = os.pathsep.join(p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    return code, set(loaded)


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


SIM_CFG = "scenario = equilibrium\nn = 16\n"


def test_import_loads_no_scipy_fft_or_optimize():
    code, loaded = fresh()
    assert code == 0
    assert "scipy.fft" not in loaded
    assert "scipy.optimize" not in loaded


def test_kernels_leaves_scipy_fft_unloaded(tmp_path):
    cfg = write_cfg(tmp_path, "scenario = convergence\n[kernels]\nmax_n = 30\n")
    code, loaded = fresh("kernels", cfg, "--outdir", str(tmp_path / "out"))
    assert code == 0
    assert "scipy.fft" not in loaded
    assert "scipy.optimize" not in loaded


def test_check_records_leaves_scipy_fft_unloaded(tmp_path):
    cfg = write_cfg(tmp_path, SIM_CFG)
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--outdir", str(out)]) == 0
    code, loaded = fresh("check", cfg, "--records", str(out / "records.csv"))
    assert code == 0
    assert "scipy.fft" not in loaded
    assert "scipy.optimize" not in loaded


@pytest.mark.parametrize("command", ["simulate", "check", "converge"])
def test_transforming_commands_load_scipy_fft_but_not_optimize(tmp_path, command):
    text = SIM_CFG + "[converge]\nbase_k = 4\nlevels = 1\nref_steps = 8\n"
    code, loaded = fresh(command, write_cfg(tmp_path, text), "--outdir", str(tmp_path / "out"))
    assert code == 0
    assert "scipy.fft" in loaded
    assert "scipy.optimize" not in loaded


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
