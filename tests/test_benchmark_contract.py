"""The surface of chsolver that the benchmark reaches must keep working.

The tracer wraps chsolver functions by name: benchmark/tracer.py is read as
text and its TARGETS tuple evaluated as a literal, and every name it lists
must exist.  The workloads also build an initial state from
scenarios.initial_field, take the integral of that field and of every
snapshot they read back, swap policies.advance, and use a few public names;
those calls are repeated here.  Nothing under benchmark/ is imported or
written, so deleting or renaming what the benchmark uses fails here, inside
the regular suite, and not only in benchmark/selftest.py.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from chsolver import config, policies, recordio, scenarios, spectral, stepper, timestep

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def tracer_targets():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{TRACER} defines no TARGETS")


@pytest.mark.parametrize("module,qualname", tracer_targets(), ids=lambda v: v)
def test_tracer_target_resolves_to_a_callable(module, qualname):
    obj = importlib.import_module(module)
    for attr in qualname.split("."):
        obj = getattr(obj, attr)
    assert callable(obj)


@pytest.mark.parametrize(
    "text",
    [
        "scenario = kissing_bubbles\nn = 16\n",
        "scenario = coarsening3d\nn = 8\nseed = 3\ndealias = true\n",
    ],
    ids=["bubbles2d", "coarsen3d"],
)
def test_initial_field_feeds_init_state_and_snapshots(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    cfg = config.parse_config(str(path))
    assert isinstance(cfg, config.SimConfig)
    scn = config.build_scenario(cfg)
    grid = spectral.Grid(scn.dim, scn.length, scn.modes)
    phi0 = scenarios.initial_field(scn, grid)
    state = stepper.init_state(phi0, scn.eps, dealias=scn.dealias)
    assert state.dealias == scn.dealias and np.isfinite(state.gamma)
    mass0 = phi0.integral()
    assert isinstance(mass0, float) and np.isfinite(mass0)
    recordio.write_snapshot(grid, phi0.physical, tmp_path / "snap.bin", 0.0)
    assert recordio.read_snapshot(tmp_path / "snap.bin").as_field().integral() == mass0


def test_policies_step_through_the_stepper():
    # the benchmark's wrong-step fault replaces policies.advance
    assert policies.advance is stepper.advance


@pytest.mark.parametrize(
    "module,name",
    [(config, "SimConfig"), (spectral, "Grid"), (timestep, "TimeMesh"), (timestep, "r_max_root")],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_public_names_exist(module, name):
    assert hasattr(module, name)
