"""The three benchmark workloads: generated configs, one timed pass, and the
correctness gate every pass goes through.

The program is reached only through its public API and its CLI entry point
``chsolver.cli.main``; each workload gets nothing but the config file that
:func:`write_config` generates from the workload seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from chsolver import cli, config, recordio, scenarios, spectral, stepper, timestep
from tracer import Tracer

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

WORKLOADS = ("bubbles2d", "coarsen3d", "kernels")
SIZES = ("full", "tiny")

# coarsen3d draws its random initial field from one of this many seeds, each
# with a final gamma and energy recorded in reference.json
COARSEN_IC_SEEDS = 8

# identity residuals of the kernel toolbox count as rounding below this
# (the acceptance suite's bound for the same identities)
KERNEL_RESIDUAL_BOUND = 1e-11

_CONFIGS = {
    # kissing_bubbles with its default adaptive policy and six snapshots;
    # the scenario has no random input, so [run] seed changes nothing
    ("bubbles2d", "full"): "scenario = kissing_bubbles\nn = 128\nseed = {seed}\n",
    ("bubbles2d", "tiny"): (
        "scenario = kissing_bubbles\nn = 32\nhorizon = 0.1\nseed = {seed}\n"
        "[output]\nsnapshots = 0.0, 0.05, 0.1\n"
    ),
    # coarsening3d at N = 128.  tau_min = 1e-8 keeps the relaxation in its
    # asymptotic regime (xi near 1); at the default 4e-5 the first step has
    # xi = 6.3 and eta = -27, and final values then move by O(1) between
    # admissible step sequences, so no reference check could be meaningful.
    ("coarsen3d", "full"): (
        "scenario = coarsening3d\nn = 128\nhorizon = 1e-7\nseed = {ic_seed}\n"
        "[policy]\ntau_min = 1e-8\n[output]\nsnapshots = 0.0, 1e-7\n"
    ),
    ("coarsen3d", "tiny"): (
        "scenario = coarsening3d\nn = 16\nhorizon = 3e-8\nseed = {ic_seed}\n"
        "[policy]\ntau_min = 1e-8\n[output]\nsnapshots = 0.0, 3e-8\n"
    ),
    ("kernels", "full"): "scenario = convergence\nseed = {seed}\n[kernels]\nmax_n = 400\n",
    ("kernels", "tiny"): "scenario = convergence\nseed = {seed}\n[kernels]\nmax_n = 30\n",
}


def ic_seed(seed: int) -> int:
    return seed % COARSEN_IC_SEEDS


def reference_key(workload: str, size: str, seed: int) -> str:
    if workload == "coarsen3d":
        return f"{workload}/{size}/ic{ic_seed(seed)}"
    return f"{workload}/{size}"


def write_config(workload: str, size: str, seed: int, path: Path) -> Path:
    text = _CONFIGS[(workload, size)].format(seed=seed, ic_seed=ic_seed(seed))
    path.write_text(text, encoding="utf-8")
    return path


@dataclass
class Expect:
    """What a correct pass must produce, computed once per run by setup."""

    workload: str
    config_path: Path
    cfg: config.SimConfig
    gamma0: float = 0.0
    mass0: float = 0.0
    volume: float = 0.0
    ratio_cap: float | None = None
    grid: tuple[int, int, float] = (0, 0, 0.0)
    mesh: timestep.TimeMesh | None = None
    weights: np.ndarray | None = None
    reference: dict = field(default_factory=dict)
    fft_workers_passed: list = field(default_factory=list)


def prepare(workload: str, config_path: Path, seed: int, size: str) -> Expect:
    """The set-up a user pays before the first operation: config parse, and
    for the solver the initial field and init_state (whose two transforms
    plan the grid's FFTs); for kernels the mesh and the weights."""
    cfg = config.parse_config(str(config_path))
    exp = Expect(workload=workload, config_path=config_path, cfg=cfg)
    if workload == "kernels":
        exp.mesh = timestep.random_mesh(cfg.horizon, cfg.max_n, cfg.seed)
        exp.weights = np.random.default_rng(seed).standard_normal(cfg.max_n)
        return exp
    scn = config.build_scenario(cfg)
    grid = spectral.Grid(scn.dim, scn.length, scn.modes)
    phi0 = scenarios.initial_field(scn, grid)
    with Tracer(targets=()) as probe:
        state = stepper.init_state(phi0, scn.eps, dealias=scn.dealias)
    exp.fft_workers_passed = sorted(probe.workers_passed, key=repr)
    exp.gamma0 = state.gamma
    exp.mass0 = phi0.integral()
    exp.volume = grid.volume
    exp.ratio_cap = getattr(scn.policy, "ratio_cap", None)
    exp.grid = (scn.dim, scn.modes, scn.length)
    exp.reference = json.loads(REFERENCE.read_text())[reference_key(workload, size, seed)]
    return exp


@dataclass
class PassResult:
    run_s: float
    verify_s: float
    ops: int
    problems: list[str]
    digests: dict[str, str]
    records: list | None = None
    rows: int = 0
    bytes_written: int = 0
    max_residual: float = 0.0


def _cli(argv, sink: io.StringIO) -> int:
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def run_pass(exp: Expect, outdir: Path, tracer=None, between=None) -> PassResult:
    """One timed operation plus its timed verification, then the untimed gate.

    With a tracer, it is installed for the timed part only.  between, if
    given, is called untimed after the operation and before its verification."""
    between = between or (lambda: None)
    if outdir.exists():
        shutil.rmtree(outdir)
    outdir.mkdir(parents=True)
    sink = io.StringIO()
    tracing = tracer if tracer is not None else contextlib.nullcontext()
    if exp.workload == "kernels":
        with tracing:
            t0 = time.perf_counter()
            rc = _cli(["kernels", str(exp.config_path), "--outdir", str(outdir)], sink)
            t1 = time.perf_counter()
            between()
            tv = time.perf_counter()
            chain = timestep.quadratic_form_check(exp.mesh, exp.weights)
            t2 = time.perf_counter()
        problems = [] if rc == 0 else [f"chsolver kernels exited {rc}: {sink.getvalue()}"]
        res = PassResult(t1 - t0, t2 - tv, 0, problems, _digests(outdir))
        if rc == 0:
            gate_kernels(exp, outdir, chain, res)
        return res

    with tracing:
        t0 = time.perf_counter()
        rc = _cli(["simulate", str(exp.config_path), "--outdir", str(outdir)], sink)
        t1 = time.perf_counter()
        between()
        tv = time.perf_counter()
        rc_check = _cli(["check", str(exp.config_path), "--records", str(outdir / "records.csv")], sink)
        snaps = [recordio.read_snapshot(p) for p in sorted(outdir.glob("snap_*.bin"))]
        t2 = time.perf_counter()
    problems = []
    if rc != 0:
        problems.append(f"chsolver simulate exited {rc}: {sink.getvalue()}")
    if rc_check != 0:
        problems.append(f"chsolver check --records exited {rc_check}: {sink.getvalue()}")
    res = PassResult(t1 - t0, t2 - tv, 0, problems, _digests(outdir))
    if rc == 0:
        records = recordio.read_records(outdir / "records.csv")
        res.records = records
        res.ops = records[-1].n if records else 0
        res.rows = len(records)
        res.bytes_written = sum(p.stat().st_size for p in outdir.iterdir())
        res.problems += gate_solver(exp, records, snaps)
    return res


def _digests(outdir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(outdir.iterdir())}


def gate_solver(exp: Expect, records, snaps) -> list[str]:
    """The scheme's guarantees on one pass's output.

    - every record: validate_records with gamma0, mass0, volume, ratio cap;
    - every snapshot: expected header, and mass within the relaxation's own
      bound |1 - eta| |mass0| (plus the record check's 1e-10 |Omega|) of
      mass0, since a snapshot holds eta times a mass-conserving field;
    - final gamma and energy within the recorded tolerance of the reference.
    """
    problems = list(
        stepper.validate_records(
            records, gamma0=exp.gamma0, mass0=exp.mass0, volume=exp.volume, ratio_cap=exp.ratio_cap
        )
    )
    if not records:
        return problems
    dim, modes, length = exp.grid
    want_times = sorted(set(exp.cfg.snapshots))
    if len(snaps) != len(want_times):
        problems.append(f"{len(snaps)} snapshots, expected {len(want_times)}")
    eta_at = {rec.t: rec.eta for rec in records}
    for snap, t in zip(snaps, want_times):
        if (snap.dim, snap.modes, snap.length, snap.time) != (dim, modes, length, t):
            problems.append(
                f"snapshot header dim={snap.dim} N={snap.modes} L={snap.length} t={snap.time}, "
                f"expected dim={dim} N={modes} L={length} t={t}"
            )
            continue
        eta = 1.0 if t == 0.0 else eta_at.get(t)
        if eta is None:
            problems.append(f"snapshot at t={t} has no record at that time")
            continue
        mass = snap.as_field().integral()
        bound = abs(1.0 - eta) * abs(exp.mass0) + 1e-10 * exp.volume
        if abs(mass - exp.mass0) > bound:
            problems.append(f"snapshot at t={t}: mass {mass!r} vs mass0 {exp.mass0!r} (bound {bound:.3e})")
    return problems + check_final(exp, records[-1])


def check_final(exp: Expect, last) -> list[str]:
    """Final gamma and energy against the reference recorded from the seed
    code, within the tolerance make_reference.py derived from other
    admissible step sequences."""
    problems = []
    for key in ("gamma", "energy"):
        got, want, rtol = getattr(last, key), exp.reference[key], exp.reference[f"{key}_rtol"]
        if not abs(got - want) <= rtol * abs(want):
            problems.append(f"final {key} {got!r} differs from reference {want!r} by more than {rtol:.2e}")
    return problems


def gate_kernels(exp: Expect, outdir: Path, chain, res: PassResult) -> None:
    """Identity residuals at rounding level, bound margins <= 0, every row
    dumped, and the quadratic-form chain holding on the seeded weights."""
    max_n = exp.cfg.max_n
    lines = (outdir / "kernel_residuals.csv").read_text().splitlines()[1:]
    rows = [[float(v) for v in line.split(",")] for line in lines]
    res.rows = res.ops = len(rows)
    if len(rows) != max_n:
        res.problems.append(f"{len(rows)} residual rows, expected {max_n}")
    kernel_rows = len((outdir / "kernels.csv").read_text().splitlines()) - 1
    if kernel_rows != max_n * (max_n + 1) // 2:
        res.problems.append(f"{kernel_rows} kernel rows, expected {max_n * (max_n + 1) // 2}")
    for n, doc, dcc, dsum, margin, tel in rows:
        worst = max(doc, dcc, dsum, tel)
        res.max_residual = max(res.max_residual, worst)
        if not worst < KERNEL_RESIDUAL_BOUND:
            res.problems.append(f"row {int(n)}: identity residual {worst:.3e}")
        if not margin <= 0.0:
            res.problems.append(f"row {int(n)}: dcc bound margin {margin:.3e} > 0")
    if not chain.passed:
        res.problems.append(f"quadratic-form chain fails: lhs {chain.lhs!r}, rhs {chain.rhs!r}")
