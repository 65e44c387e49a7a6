"""Benchmark two commits against each other and write the result as BENCH_<label>.json.

Usage:

    python tools/bench_json.py BASE CHANGE --label LABEL [--workdir DIR]
        [--workload NAME ...] [--pairs P] [--seconds S] [--seed N]

BASE and CHANGE are commits of this repository.  Each is unpacked with
``git archive`` into its own directory under DIR (default: a new temporary
directory), so both run from their committed files, the way a fresh
checkout would.  For every workload the script runs ``benchmark/run.py
--trace 0`` of the two checkouts in P alternating pairs (BASE first in odd
pairs, CHANGE first in even ones), one run at a time, each for S seconds with
the same seed.  The file written at the repository root holds, per workload
and side, every run's end-to-end metrics, its ``run_record`` line and raw
``run_s`` wall time, and the medians over the runs; per metric it gives the
relative change of the medians, both sides' first and third quartiles,
and how many pairs the change won.  The header gives both commits, nproc, the CPU
affinity and the Python, numpy and scipy versions.  An existing file is
never overwritten.
"""

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("bubbles2d", "coarsen3d", "kernels")
WALL = re.compile(r"run_s wall-clock median ([0-9.eE+-]+) s")


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def unpack(commit: str, dest: Path) -> None:
    """The committed tree of commit, written to dest."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """One untraced benchmark run: its result line, run record and raw run_s."""
    argv = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    record = next(json.loads(line[len("run_record "):]) for line in lines if line.startswith("run_record "))
    wall = next((float(m.group(1)) for m in map(WALL.search, lines) if m), None)
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "run_s_wall": wall,
        "run_record": record,
    }


def summarize(base_runs: list, change_runs: list, better: dict) -> dict:
    out = {}
    for name, direction in better.items():
        base = [r["metrics"][name] for r in base_runs]
        change = [r["metrics"][name] for r in change_runs]
        b, c = statistics.median(base), statistics.median(change)
        entry = {"base_median": b, "change_median": c, "better": direction,
                 "base_quartiles": statistics.quantiles(base, n=4)[::2],
                 "change_quartiles": statistics.quantiles(change, n=4)[::2]}
        if b:
            entry["relative_change"] = c / b - 1.0
        wins = [(y < x) if direction == "lower" else (y > x) for x, y in zip(base, change)]
        entry["pairs_change_better"] = f"{sum(wins)} of {len(wins)}"
        out[name] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--label", required=True)
    ap.add_argument("--workdir", type=Path)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    target = ROOT / f"BENCH_{args.label}.json"
    if target.exists():
        print(f"error: {target.name} exists; pick another label", file=sys.stderr)
        return 2
    commits = {"base": git("rev-parse", args.base), "change": git("rev-parse", args.change)}
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench_json-"))
    checkouts = {side: workdir / commit[:12] for side, commit in commits.items()}
    for side, path in checkouts.items():
        if path.exists():
            shutil.rmtree(path)
        unpack(commits[side], path)
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    import numpy
    import scipy

    report = {
        "label": args.label,
        "commits": commits,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "method": (f"benchmark/run.py --trace 0 --seed {args.seed} --seconds {args.seconds:g}, "
                   f"{args.pairs} alternating pairs per workload, one run at a time; "
                   "medians over the runs of each side"),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    for workload in args.workload or WORKLOADS:
        runs = {"base": [], "change": []}
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                run = run_once(checkouts[side], workload, args.seconds, args.seed)
                runs[side].append(run)
                print(f"{workload} pair {pair + 1} {side}: run_s {run['metrics']['run_s']:.4g} "
                      f"peak_rss_mb {run['metrics']['peak_rss_mb']:.4g}", flush=True)
        report["workloads"][workload] = {
            "summary": summarize(runs["base"], runs["change"], better),
            "runs": runs,
        }
    report["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    target.write_text(json.dumps(report, indent=1, sort_keys=False) + "\n", encoding="utf-8")
    print(f"wrote {target.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
