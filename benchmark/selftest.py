"""Self-tests of the benchmark itself, on tiny inputs (about a minute).

Run from the repository root:

    python3 -m pytest -q benchmark/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import make_reference  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from chsolver import policies, stepper  # noqa: E402


def _declared(kind: str) -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def _expect(tmp_path, workload: str, seed: int = 0):
    cfg = workloads.write_config(workload, "tiny", seed, tmp_path / "run.cfg")
    return workloads.prepare(workload, cfg, seed, "tiny")


def test_metric_tables_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert _declared("end_to_end") == metrics.END_TO_END
    assert _declared("per_layer") == metrics.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert "run_record " in proc.stdout
    if trace and workload != "kernels":
        assert result["metrics"]["spectral.fft_calls_per_step"]["value"] == 2.0


def test_corrupted_gamma_fails_the_gate(tmp_path):
    exp = _expect(tmp_path, "bubbles2d")
    good = workloads.run_pass(exp, tmp_path / "out")
    assert good.problems == []
    records = list(good.records)
    k = len(records) // 2
    records[k] = replace(records[k], gamma=records[k].gamma * (1 + 1e-9))
    snaps = [workloads.recordio.read_snapshot(p) for p in sorted((tmp_path / "out").glob("snap_*.bin"))]
    bad = replace(good, problems=workloads.gate_solver(exp, records, snaps))
    assert bad.problems
    passes = run.Passes()
    passes.record(good)
    passes.record(bad)
    assert passes.fail_frac == 0.5


def test_traced_and_untraced_pass_write_identical_output(tmp_path):
    exp = _expect(tmp_path, "bubbles2d")
    plain = workloads.run_pass(exp, tmp_path / "plain")
    tracer = Tracer()
    traced = workloads.run_pass(exp, tmp_path / "traced", tracer)
    assert plain.problems == [] and traced.problems == []
    assert traced.digests == plain.digests
    assert tracer.spans and tracer.missing == []
    # every wrapper is gone again
    assert policies.advance is stepper.advance
    assert "wrapper" not in stepper.advance.__code__.co_name


def test_missing_or_uncalled_targets_read_as_zero(tmp_path):
    exp = _expect(tmp_path, "coarsen3d")
    targets = (
        ("chsolver.stepper", "advance"),
        ("chsolver.stepper", "linear_solve"),
        ("chsolver.stepper", "no_such_function"),
        ("chsolver.no_such_module", "f"),
        ("chsolver.recordio", "NoSuchClass.write"),
    )
    tracer = Tracer(targets=targets)
    res = workloads.run_pass(exp, tmp_path / "out", tracer)
    assert res.problems == []
    assert sorted(tracer.missing) == sorted(f"{m}:{q}" for m, q in targets[2:])
    tree = metrics.SpanTree(tracer.spans)
    assert tree.named("stepper.linear_solve") == []
    assert tree.total_ms({"stepper.linear_solve"}) == 0.0
    layer = metrics.pass_layer_metrics(tracer.spans, res, exp.ratio_cap)
    assert layer["policies.next_step_us"] == 0.0
    assert layer["policies.steps"] == res.ops > 0


def test_final_value_tolerance_accepts_admissible_and_rejects_wrong_step(tmp_path):
    exp = _expect(tmp_path, "coarsen3d")
    scn = make_reference.scenario_for("coarsen3d", "tiny", 0, tmp_path)
    steps = exp.reference["steps"]
    for _, alt in make_reference.alternatives(scn, steps):
        records, _ = workloads.scenarios.run_scenario(alt)
        assert workloads.check_final(exp, records[-1]) == []
    gamma, energy, _ = make_reference.wrong_step_final(scn, max(2, steps // 4))
    last = replace(records[-1], gamma=gamma, energy=energy)
    assert workloads.check_final(exp, last)
