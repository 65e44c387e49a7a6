"""Record the reference final gamma and energy of the solver workloads, with
tolerances that accept other admissible step sequences.

Usage (from the repository root; about two minutes on two cores):

    python3 benchmark/make_reference.py

For each solver workload and size, the reference is the final record of the
workload's own config.  The tolerance of each value is twice its largest
relative deviation over a set of other admissible step sequences on the same
initial field (a fixed step of half the mean size, two random admissible
meshes of the same count, the adaptive policy with extra landing
checkpoints): the scheme's own time error.  A run with one wrong step, one
step integrated over 1.5 tau while the clock advances tau, is then reported
against that tolerance; the gate must reject it.  Writes benchmark/reference.json.
"""

from __future__ import annotations

import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from chsolver import config, policies, scenarios, timestep  # noqa: E402
from workloads import COARSEN_IC_SEEDS, REFERENCE, SIZES, reference_key, write_config  # noqa: E402

WRONG_STEP_FACTOR = 1.5


def final(scn) -> tuple[float, float, int]:
    records, _ = scenarios.run_scenario(scn)
    return records[-1].gamma, records[-1].energy, len(records)


def wrong_step_final(scn, k: int):
    """Final values when step k integrates 1.5 tau but the clock moves tau."""
    orig = policies.advance
    calls = [0]

    def advance(state, tau):
        calls[0] += 1
        if calls[0] != k:
            return orig(state, tau)
        new, rec = orig(state, WRONG_STEP_FACTOR * tau)
        return replace(new, time=state.time + tau, prev_tau=tau), replace(rec, t=state.time + tau, tau=tau)

    policies.advance = advance
    try:
        return final(scn)
    finally:
        policies.advance = orig


def scenario_for(workload: str, size: str, seed: int, tmp: Path):
    cfg = config.parse_config(str(write_config(workload, size, seed, tmp / "ref.cfg")))
    return config.build_scenario(cfg)


def alternatives(scn, steps: int):
    T = scn.horizon
    yield "fixed_half", replace(scn, policy=policies.FixedStep(T / (2 * steps)), snapshot_times=())
    for s in (1, 2):
        mesh = timestep.random_mesh(T, steps, s)
        yield f"random_mesh_{s}", replace(scn, policy=policies.PrescribedMesh(mesh), snapshot_times=())
    yield "landings", replace(scn, snapshot_times=(0.3 * T, 0.55 * T, 0.7 * T))


def main() -> int:
    out = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmpdir:
        tmp = Path(tmpdir)
        for workload in ("bubbles2d", "coarsen3d"):
            for size in SIZES:
                seeds = range(COARSEN_IC_SEEDS) if workload == "coarsen3d" else (0,)
                base = scenario_for(workload, size, 0, tmp)
                g_ref, e_ref, steps = final(base)
                dev = {"gamma": 0.0, "energy": 0.0}
                for name, alt in alternatives(base, steps):
                    g, e, n = final(alt)
                    dg, de = abs(g - g_ref) / abs(g_ref), abs(e - e_ref) / abs(e_ref)
                    print(f"{workload}/{size} {name}: {n} steps, gamma dev {dg:.3e}, energy dev {de:.3e}")
                    dev["gamma"], dev["energy"] = max(dev["gamma"], dg), max(dev["energy"], de)
                rtol = {k: 2.0 * v for k, v in dev.items()}
                g, e, _ = wrong_step_final(base, max(2, steps // 4))
                wrong = {"gamma": abs(g - g_ref) / abs(g_ref), "energy": abs(e - e_ref) / abs(e_ref)}
                caught = any(wrong[k] > rtol[k] for k in rtol)
                print(f"{workload}/{size} wrong step: gamma dev {wrong['gamma']:.3e} "
                      f"(rtol {rtol['gamma']:.3e}), energy dev {wrong['energy']:.3e} "
                      f"(rtol {rtol['energy']:.3e}) -> {'rejected' if caught else 'NOT rejected'}")
                for seed in seeds:
                    scn = base if seed == 0 else scenario_for(workload, size, seed, tmp)
                    g, e, n = (g_ref, e_ref, steps) if seed == 0 else final(scn)
                    out[reference_key(workload, size, seed)] = {
                        "gamma": g, "energy": e, "steps": n,
                        "gamma_rtol": rtol["gamma"], "energy_rtol": rtol["energy"],
                        "wrong_step_dev": wrong,
                    }
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
