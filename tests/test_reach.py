"""Every function defined in src/chsolver is called by a subcommand or by the
README's quick start, or UNREACHED names it together with what keeps it.

One fresh interpreter installs sys.setprofile and threading.setprofile
before chsolver is imported, so that calls made at import time count.  It
sets spectral.CORES = 2, so the kernels-split config forks on any host, and
then runs every config of tools/cli_digests.py through every command, and
the README's quick start.  Two more runs reach code that no config does:
- a 2d simulate with spectral.PARALLEL_ELEMENTS lowered below its grid, so
  its slab passes start threads (slab_map's drain);
- check --records on a records.csv with a malformed row.
It prints the file, first line and name of every code object of the
package that was called.  The functions defined come from the modules'
syntax trees: every def, nested ones included
(spectral.slab_map.<locals>.drain), and no lambda.  The profiler does not
see the forked kernels parts; every function they run is also called in
the parent.

A function that no run reaches fails the suite unless UNREACHED names it.
So does a name in UNREACHED that a run now reaches or that no longer
exists, so the list only shrinks: deleting one of these functions, or
calling it from a subcommand, removes its line.
"""

import ast
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import chsolver
from chsolver.recordio import RECORD_FIELDS
from test_benchmark_contract import tracer_targets
from test_imports import readme_quick_start

PACKAGE = Path(chsolver.__file__).resolve().parent
ROOT = PACKAGE.parents[1]
WORKLOADS = ROOT / "benchmark" / "workloads.py"

TRACED = "a target of benchmark/tracer.py (ROADMAP items 2a and 4)"
CALLED_BY_WORKLOADS = "called by benchmark/workloads.py (ROADMAP items 2a and 7)"
ITEM_16 = "check does not read snapshots yet (ROADMAP item 16)"

# module.qualname of every function no run reaches, and what keeps it
UNREACHED = {
    "recordio.Snapshot.as_field": CALLED_BY_WORKLOADS,
    "recordio._parse_header": ITEM_16,
    "recordio.read_records": TRACED,
    "recordio.read_snapshot": ITEM_16,
    "recordio.write_records": TRACED,
    "spectral.SpectralField.integral": CALLED_BY_WORKLOADS,
    "stepper.linear_solve": TRACED,
    "stepper.validate_records": TRACED,
    "timestep.dcc_kernels": TRACED,
    "timestep.doc_kernels": TRACED,
    "timestep.quadratic_form_check": TRACED,
}

PROBE = r"""
import contextlib, importlib.util, io, json, os, sys, tempfile, threading
from pathlib import Path

package, tool_path, quick_start = sys.argv[1:]
called = set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and os.path.dirname(code.co_filename) == package:
        called.add((os.path.basename(code.co_filename), code.co_firstlineno, code.co_name))

sys.setprofile(profile)
threading.setprofile(profile)

from chsolver import cli, spectral
from chsolver.recordio import RECORD_FIELDS

spectral.CORES = 2
spec = importlib.util.spec_from_file_location("cli_digests", tool_path)
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
digests, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(digests):
    tool.main(["--src", str(Path(package).parent)])
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    exec(compile(quick_start, "README.md", "exec"), {})
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp, "run.cfg")
        cfg.write_text("scenario = kissing_bubbles\nn = 16\nhorizon = 0.002\n[policy]\nkind = fixed\ntau = 0.001\n"
                       "[output]\nsnapshots = 0.0\n")
        spectral.PARALLEL_ELEMENTS = 64  # below the 16^2 grid and its 16 x 9 half spectrum
        threads = cli.main(["simulate", str(cfg), "--outdir", str(Path(tmp, "out"))])
        records = Path(tmp, "records.csv")
        records.write_text(",".join(RECORD_FIELDS) + "\n1,0.001\n")
        with contextlib.redirect_stderr(err):
            malformed = cli.main(["check", str(cfg), "--records", str(records)])
sys.setprofile(None)
threading.setprofile(None)
print(json.dumps({"called": sorted(called), "digests": digests.getvalue(), "threads": threads,
                  "malformed": [malformed, err.getvalue()]}))
"""


@functools.cache
def defined() -> tuple[dict, set]:
    """({(file name, first line, name): module.qualname} of every def in the
    package, and the (file name, first line, name) of every class), where a
    decorated def or class starts at its first decorator, as its code
    object does."""
    functions, classes = {}, set()

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                key = (path.name, min([child.lineno] + [d.lineno for d in child.decorator_list]), child.name)
                if isinstance(child, ast.ClassDef):
                    classes.add(key)
                    visit(child, path, f"{prefix}{child.name}.")
                else:
                    functions[key] = f"{path.stem}.{prefix}{child.name}"
                    visit(child, path, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return functions, classes


@functools.cache
def reach_run() -> dict:
    """PROBE's result, run once per pytest run: the called code objects, the
    output of tools/cli_digests.py (which tests/test_cli_digests.py
    compares with the committed digests), the exit code of the threaded
    simulate, and the exit code and stderr of the malformed check."""
    # the child imports the same package as this suite, however it was put on sys.path
    path = os.pathsep.join(p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(PACKAGE), str(ROOT / "tools" / "cli_digests.py"), readme_quick_start()],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    result["called"] = {tuple(c) for c in result["called"]}
    return result


def unreached(called) -> set:
    functions, _ = defined()
    return {name for key, name in functions.items() if key not in called}


def test_the_syntax_walk_names_nested_defs_and_no_lambda():
    functions, _ = defined()
    names = set(functions.values())
    assert "spectral.slab_map.<locals>.drain" in names
    assert "stepper.RecordCheck.feed" in names
    assert not [name for name in names if "<lambda>" in name]
    assert len(names) == len(functions)  # no two defs share a qualname


def test_every_called_code_object_maps_to_a_def():
    # a def's first line is read the way the interpreter reads it; lambdas,
    # comprehensions and module bodies are named <...>
    functions, classes = defined()
    unmapped = {c for c in reach_run()["called"] if not c[2].startswith("<")} - functions.keys() - classes
    assert not unmapped


def test_the_extra_runs_reach_their_code():
    assert reach_run()["threads"] == 0
    code, err = reach_run()["malformed"]
    assert (code, err) == (2, f"runtime error: ValueError: line 2: expected {len(RECORD_FIELDS)} fields\n")


def test_every_function_is_reached_or_allowlisted():
    extra = unreached(reach_run()["called"]) - UNREACHED.keys()
    assert not extra, f"no subcommand or the quick start calls {sorted(extra)}: delete them, or call them"


def test_every_allowlisted_function_is_defined_and_unreached():
    names = set(defined()[0].values())
    gone = UNREACHED.keys() - names
    reached = (UNREACHED.keys() & names) - unreached(reach_run()["called"])
    assert not gone, f"{sorted(gone)} no longer exist: remove them from UNREACHED"
    assert not reached, f"{sorted(reached)} are now reached: remove them from UNREACHED"


def test_each_pin_holds():
    targets = set(tracer_targets())
    workloads = WORKLOADS.read_text(encoding="utf-8")
    for name, pin in UNREACHED.items():
        module, qualname = name.split(".", 1)
        if pin == TRACED:
            assert (f"chsolver.{module}", qualname) in targets, name
        elif pin == CALLED_BY_WORKLOADS:
            assert f".{qualname.rsplit('.', 1)[1]}()" in workloads, name
