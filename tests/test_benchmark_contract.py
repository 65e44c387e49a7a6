"""The benchmark's tracer wraps chsolver functions by name; every name it
lists must exist.

benchmark/tracer.py is read as text and its TARGETS tuple evaluated as a
literal, so nothing under benchmark/ is imported or written.  Deleting or
renaming a function the tracer wraps then fails here, inside the regular
suite, and not only in benchmark/selftest.py.
"""

import ast
import importlib
from pathlib import Path

import pytest

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
