"""chsolver benchmark: one workload per process, closed loop, one caller.

Usage (from the repository root):

    python3 benchmark/run.py --workload {bubbles2d,coarsen3d,kernels,all} \
        --seed N --seconds S --trace {0,1}

With --trace 0 the run repeats whole passes (one timed operation plus its
timed verification) until S seconds have gone, with set-up measured in fresh
processes between them.  Each of these times is divided by the host's
slowdown, measured with a reference computation (hostspeed.py) just before
and after it, and the end-to-end metrics are medians over the run.  With
--trace 1 it alternates untraced and traced passes, reports the per-layer
metrics (medians over the traced passes, raw wall times) and the traced/
untraced run-time ratio, and writes every span to benchmark/_traces/.
Every pass goes through the correctness gate in workloads.py.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# fresh-process set-ups per run; setup_s is their median
SETUP_PROBES = 7
# The reference computation (hostspeed.py) that resembles each workload's
# timed operation and its verification, and set-up: interpreter start and
# imports.  Every end-to-end time is divided by the host's slowdown on it.
REFERENCE = {
    "bubbles2d": (hostspeed.arrays_2d, hostspeed.python_loop),
    "coarsen3d": (hostspeed.arrays_3d, hostspeed.arrays_3d),
    "kernels": (hostspeed.python_loop, hostspeed.python_loop),
}
SETUP_REFERENCE = hostspeed.python_loop
# advance calls (1-based) run under tracemalloc in the allocation pass;
# the first step is backward Euler and is skipped
ALLOC_CALLS = range(2, 7)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs, for the self-tests")
    return p.parse_args(argv)


def _argv_for(args, workload: str) -> list[str]:
    return ["--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size]


def _git_commit(root: Path) -> str | None:
    """HEAD of root/.git read from its files (no git process), if present."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(src.rglob("*.py")):
        h.update(p.relative_to(src).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def run_record(args, exp, workers_effective) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "CHSOLVER_THREADS": os.environ.get("CHSOLVER_THREADS"),
        "git_commit": _git_commit(ROOT),
        "src_sha256": _source_digest(SRC),
        "fft_workers_passed": [repr(w) for w in exp.fft_workers_passed],
        "fft_workers_effective": workers_effective,
        "config": exp.config_path.read_text(),
    }


def _effective_workers(passed) -> int:
    """Workers a transform used: None means scipy's current default."""
    import scipy.fft

    return max((scipy.fft.get_workers() if w is None else int(w) for w in passed), default=0)


def measure_setup(args, cfg_path: Path) -> float:
    """Wall time from spawning a fresh interpreter to its set-up being done,
    normalised to the nominal host speed."""
    before = hostspeed.slowdown(SETUP_REFERENCE)
    elapsed = _spawn_setup(args, cfg_path)
    return elapsed * 2 / (before + hostspeed.slowdown(SETUP_REFERENCE))


def _spawn_setup(args, cfg_path: Path) -> float:
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(cfg_path),
         str(args.seed), args.size],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait(timeout=120) != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def fft_floor_ms(exp, reps: int) -> float:
    """Median of one rfftn plus one irfftn on the workload's grid."""
    import numpy as np
    import scipy.fft

    dim, modes, _ = exp.grid
    x = np.random.default_rng(0).standard_normal((modes,) * dim)
    workers = _effective_workers(exp.fft_workers_passed) or None
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        scipy.fft.irfftn(scipy.fft.rfftn(x, workers=workers), s=x.shape, workers=workers)
        times.append(time.perf_counter() - t0)
    return 1e3 * sorted(times)[len(times) // 2]


class Passes:
    """Outcome of every pass of a run, for the failure count."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, res) -> None:
        self.attempted += 1
        if res.problems:
            self.failed += 1
            print(f"pass {self.attempted} failed:", *res.problems[:10], sep="\n  ", file=sys.stderr)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def _safe_pass(exp, outdir, tracer=None, between=None):
    from workloads import PassResult, run_pass

    try:
        return run_pass(exp, outdir, tracer, between)
    except Exception:  # a pass that raises is a failed pass; keep measuring
        return PassResult(0.0, 0.0, 0, [traceback.format_exc()], {})


def run_untraced(args, exp, cfg_path, workdir, passes) -> dict[str, float]:
    from metrics import median

    run_ref, verify_ref = REFERENCE[exp.workload]
    # set-up probes are spread evenly over the run, between passes, so that
    # their median sees the same machine as the passes do
    setup, run_s, verify_s, ops_per_s, wall, slowdowns = [], [], [], [], [], []
    start = time.perf_counter()
    while not passes.attempted or time.perf_counter() < start + args.seconds:
        if len(setup) < SETUP_PROBES and time.perf_counter() >= start + len(setup) * args.seconds / SETUP_PROBES:
            setup.append(measure_setup(args, cfg_path))
        gc.collect()  # every pass starts from the same heap
        # the operation and the verification are each bracketed by their
        # reference, timed just before and just after them
        mid = {}
        before = hostspeed.slowdown(run_ref)
        res = _safe_pass(exp, workdir / "pass", between=lambda: mid.update(
            run=hostspeed.slowdown(run_ref), verify=hostspeed.slowdown(verify_ref)))
        after = hostspeed.slowdown(verify_ref)
        passes.record(res)
        if not res.problems and res.run_s > 0:
            slow_run, slow_verify = (before + mid["run"]) / 2, (mid["verify"] + after) / 2
            wall.append(res.run_s)
            slowdowns.append(slow_run)
            run_s.append(res.run_s / slow_run)
            verify_s.append(res.verify_s / slow_verify)
            ops_per_s.append(res.ops / run_s[-1])
    while len(setup) < SETUP_PROBES:
        setup.append(measure_setup(args, cfg_path))
    print(f"run_s wall-clock median {median(wall):.6g} s; host slowdown around passes: "
          f"median {median(slowdowns):.4g}, range {min(slowdowns, default=0):.4g}-{max(slowdowns, default=0):.4g}")
    return {
        "setup_s": median(setup),
        "run_s": median(run_s),
        "ops_per_s": median(ops_per_s),
        "verify_s": median(verify_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": 1.0 - passes.fail_frac,
    }


def run_traced(args, exp, workdir, passes, trace_file: Path, record: dict) -> dict[str, float]:
    from metrics import advance_durations, median, pass_layer_metrics, percentile
    from tracer import AllocProbe, Tracer
    from chsolver import timestep

    cap = exp.ratio_cap or timestep.r_max_root()
    plain, traced, per_pass, advance_ms, all_spans = [], [], [], [], []
    workers, missing = set(), set()
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        base = _safe_pass(exp, workdir / "plain")
        tracer = Tracer()
        res = _safe_pass(exp, workdir / "traced", tracer)
        if not base.problems and not res.problems and res.digests != base.digests:
            res.problems.append("traced pass wrote different output than the untraced pass")
        passes.record(base)
        passes.record(res)
        plain.append(base)
        traced.append(res)
        if not res.problems:
            per_pass.append(pass_layer_metrics(tracer.spans, res, cap))
            advance_ms += advance_durations(tracer.spans)
        all_spans.append(tracer.spans)
        workers |= tracer.workers_passed
        missing |= set(tracer.missing)

    alloc_mb = 0.0
    floor = 0.0
    if exp.workload != "kernels":
        with AllocProbe(ALLOC_CALLS) as probe:
            passes.record(_safe_pass(exp, workdir / "alloc"))
        alloc_mb = median(probe.peaks) / 2**20
        floor = fft_floor_ms(exp, reps=21 if exp.grid[0] == 3 else 201)

    out = {name: median([m[name] for m in per_pass]) for name in per_pass[0]} if per_pass else {}
    p50 = percentile(advance_ms, 50)
    out.update({
        "spectral.fft_workers": float(_effective_workers(workers)),
        "spectral.fft_floor_ms": floor,
        "stepper.advance_ms_p50": p50,
        "stepper.advance_ms_p90": percentile(advance_ms, 90),
        "stepper.advance_over_floor": p50 / floor if floor else 0.0,
        "stepper.alloc_peak_mb_per_step": alloc_mb,
    })
    if median([r.run_s for r in plain]) > 0:
        out["trace.overhead_ratio"] = median([r.run_s for r in traced]) / median([r.run_s for r in plain])
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({"run_record": record, "missing_targets": sorted(missing),
                   "advance_samples": len(advance_ms), "passes": all_spans}, fh)
    print(f"wrote {len(all_spans)} traced passes to {trace_file.relative_to(ROOT)}; "
          f"{len(advance_ms)} advance samples; targets not found: {sorted(missing) or 'none'}")
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "chsolver" / "__init__.py").is_file():
        print(f"error: no chsolver sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import chsolver
    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS, prepare, write_config

    if Path(chsolver.__file__).resolve().parent != SRC / "chsolver":
        print(f"error: imported chsolver from {chsolver.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":  # each workload in its own fresh process, one after another
        codes = [subprocess.run([sys.executable, __file__, *_argv_for(args, w)], cwd=ROOT).returncode
                 for w in WORKLOADS]
        return max(codes)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, pick one of {WORKLOADS} or all", file=sys.stderr)
        return 2

    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        cfg_path = write_config(args.workload, args.size, args.seed, workdir / "run.cfg")
        exp = prepare(args.workload, cfg_path, args.seed, args.size)
        record = run_record(args, exp, _effective_workers(exp.fft_workers_passed))
        print("run_record " + json.dumps(record, sort_keys=True))
        passes = Passes()
        if args.trace:
            trace_file = HERE / "_traces" / f"{args.workload}-{args.size}-seed{args.seed}.json"
            values, units = run_traced(args, exp, workdir, passes, trace_file, record), PER_LAYER
        else:
            values, units = run_untraced(args, exp, cfg_path, workdir, passes), END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left only when no other run uses it
            workdir.parent.rmdir()

    for name, unit in units.items():
        print(f"{name} = {values.get(name, 0.0):.6g} {unit}")
    print(f"fail_frac = {passes.fail_frac:.6g} 1 ({passes.failed} of {passes.attempted} passes)")
    result = {
        "correct": passes.failed == 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
