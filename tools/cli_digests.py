"""One line per CLI run over a fixed set of configs: exit code, output and a digest of every file written.

Usage:

    python tools/cli_digests.py [--src PATH] > digests.txt

PATH is the ``src`` directory of the checkout to run (default: the one next
to this script), so the same script runs any commit, and ``diff`` of two
commits' outputs shows every change of behaviour the configs reach.  The
output at this checkout is committed as ``tests/cli_digests.txt``, which
``tests/test_cli_digests.py`` compares with a fresh run; a change that
moves any output rewrites it with

    python tools/cli_digests.py > tests/cli_digests.txt

The configs are: every scenario preset at a small n (horizons cut where a
preset would take thousands of steps), coarsening2d at its default n,
coarsening3d at n = 48, whose pointwise passes run over two slabs, one
whose ``kernels`` pass is split among processes wherever more than one core
is free, each policy kind, the ``delta``, ``eps2``, ``dealias`` and
``record_every`` keys, a fixed step that must land on an interior snapshot
and the same run thinned to every fourth row, a step so long that gamma
underflows to 0, the landing edge cases (snapshots within the landing
tolerance, 1e-12 * horizon, of each other, of 0, of the horizon and of a
random mesh's node; random-mesh snapshots off its nodes, one just beyond the
tolerance and two out of order), one config for each parse and validation
error message (a fixed step within the landing tolerance and a horizon
whose landing tolerance overflows the BDF2 weights among them), and
snapshot times that are NaN, infinite or negative, which every command must
reject.  Each config runs
through ``simulate``, ``converge``, ``kernels`` and ``check`` in process,
each in a new temporary directory that holds only the config file and is
the working directory, so the default ``outdir`` lands inside it.  After
``simulate``, ``check --records`` reads ``out/records.csv``, also where
``simulate`` wrote none, so a config that ``simulate`` rejects shows what
``check --records`` makes of it.  The first line names the python, numpy
and scipy versions, whose floating-point bits the digests hold.  Then every
run prints

    <config> <command>: exit <code> files <sha256> stdout <text> stderr <text>

with stdout and stderr as JSON strings, the directory masked as ``<dir>``,
each warning raised appended to stderr as ``<category>: <message>``,
and the sha256 over the relative path of every directory and the relative
path and bytes of every file written, in path order ("-" when nothing was
written).
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
import warnings
from pathlib import Path

# small converge and kernels sizes, appended to every runnable config and to
# the error configs that converge or kernels accept
_CONVERGE = "[converge]\nbase_k = 4\nlevels = 2\nref_steps = 16\n"
_SMALL = _CONVERGE + "[kernels]\nmax_n = 12\n"

RUNS = {
    "convergence": "scenario = convergence\nn = 8\n[policy]\ncount = 20\n",
    "kissing_bubbles": "scenario = kissing_bubbles\nn = 16\nhorizon = 0.2\n[output]\nsnapshots = 0.0, 0.1, 0.2\n",
    "coarsening2d": "scenario = coarsening2d\nn = 16\nhorizon = 0.002\n[output]\nsnapshots = 0.0, 0.001, 0.002\n",
    # the default n = 128, where the paper's scalar collapses the written field (ROADMAP item 17)
    "coarsening2d-default-n": "scenario = coarsening2d\nhorizon = 0.001\n[output]\nsnapshots = 0.0, 0.001\n",
    "coarsening3d": "scenario = coarsening3d\nn = 8\nhorizon = 0.001\n[output]\nsnapshots = 0.0, 0.0005, 0.001\n",
    # n = 48: the half spectrum, 48 x 48 x 25, is cut into two slabs along axis 0 (spectral.SLAB_ELEMENTS)
    "coarsening3d-slabs": "scenario = coarsening3d\nn = 48\nhorizon = 3e-4\n[policy]\nkind = fixed\ntau = 1e-4\n"
    "[output]\nsnapshots = 0.0, 3e-4\n",
    "equilibrium": "scenario = equilibrium\nn = 8\n",
    "fixed": "scenario = coarsening2d\nn = 8\nhorizon = 0.01\n[policy]\nkind = fixed\ntau = 0.003\n"
    "[output]\nsnapshots = 0.0, 0.005\n",
    "fixed-landing": "scenario = coarsening2d\nn = 16\nhorizon = 0.05\n[policy]\nkind = fixed\ntau = 0.01\n"
    "[output]\nsnapshots = 0.0, 0.0301\n",
    # every fourth row of fixed-landing: no row follows its step 4, so the cap holds none
    "fixed-landing-thinned": "scenario = coarsening2d\nn = 16\nhorizon = 0.05\n[policy]\nkind = fixed\ntau = 0.01\n"
    "[output]\nsnapshots = 0.0, 0.0301\nrecord_every = 4\n",
    "random": "scenario = coarsening2d\nn = 8\nhorizon = 0.01\n[policy]\nkind = random\ncount = 12\n"
    "[output]\nsnapshots = 0.0, 0.01\n",
    # tol = 1e-14: pairs 5e-15 to 1e-14 apart around 0, an interior time and the horizon
    "fixed-near-snapshots": "scenario = coarsening2d\nn = 8\nhorizon = 0.01\n[policy]\nkind = fixed\ntau = 0.003\n"
    "[output]\nsnapshots = 0.0, 5e-15, 0.005, 0.005000000000005, 0.009999999999995, 0.01, 0.010000000000005\n",
    # 4e-15 either side of node 5 of the 12-step mesh, 0.003257731040766149, and past the horizon
    "random-near-node": "scenario = coarsening2d\nn = 8\nhorizon = 0.01\n[policy]\nkind = random\ncount = 12\n"
    "[output]\nsnapshots = 0.0, 0.003257731040770149, 0.003257731040762149, 0.010000000000005\n",
    "adaptive-delta": "scenario = coarsening2d\nn = 8\nhorizon = 0.05\n[policy]\ntau_min = 1e-4\ntau_max = 1e-2\n"
    "alpha = 0\ndelta = 0.5\n[output]\nsnapshots = 0.0, 0.05\n",
    "eps2": "scenario = kissing_bubbles\nn = 16\neps2 = 0.05\nhorizon = 0.1\n[output]\nsnapshots = 0.0, 0.05, 0.1\n",
    "dealias": "scenario = coarsening2d\nn = 16\ndealias = true\nhorizon = 0.002\n[output]\nsnapshots = 0.0\n",
    "record_every": "scenario = kissing_bubbles\nn = 16\nhorizon = 0.2\n[output]\nsnapshots = 0.0, 0.1, 0.2\n"
    "record_every = 7\n",
    "dim3-kissing": "scenario = kissing_bubbles\nn = 8\ndim = 3\nhorizon = 0.01\n[output]\nsnapshots = 0.0\n",
    "dim3-convergence": "scenario = convergence\nn = 8\ndim = 3\n",
    # gamma underflows: 1.6e-264 after step 1, and 0 with xi and eta from step 2 on
    "underflow": "scenario = convergence\nn = 8\nhorizon = 1e300\n[policy]\nkind = fixed\ntau = 1e299\n",
}

# runnable configs with their own sizes: max_n = 160 gives kernels.csv 12,880
# lines, so kernels splits it among processes wherever more than one core
# is free (cli.FORK_MIN_LINES)
SIZED = {
    "kernels-split": "scenario = convergence\nn = 8\n[policy]\ncount = 20\n" + _CONVERGE + "[kernels]\nmax_n = 160\n",
}

ERRORS = {
    "unterminated-section": "[policy\n",
    "unknown-section": "[extras]\nx = 1\n",
    "no-equals": "scenario equilibrium\n",
    "unknown-key": "scenario = equilibrium\nfoo = 1\n",
    "duplicate-key": "scenario = equilibrium\nn = 8\nn = 16\n",
    "bad-int": "scenario = equilibrium\nn = many\n",
    "bad-bool": "scenario = equilibrium\ndealias = maybe\n",
    "bad-floats": "scenario = equilibrium\n[output]\nsnapshots = 0, x\n",
    "no-scenario": "n = 16\n" + _SMALL,
    "unknown-scenario": "scenario = melting\n",
    "eps-and-eps2": "scenario = equilibrium\neps = 0.1\neps2 = 0.01\n",
    "eps2-nonpositive": "scenario = equilibrium\neps2 = 0\n",
    "unknown-kind": "scenario = equilibrium\n[policy]\nkind = magic\n",
    "nonfinite": "scenario = equilibrium\nhorizon = nan\n",
    "dim": "scenario = equilibrium\ndim = 4\n",
    "odd-n": "scenario = equilibrium\nn = 15\n",
    "length": "scenario = equilibrium\nlength = 0\n",
    "eps": "scenario = equilibrium\neps = -1\n",
    # eps**2 overflows: the cubic's weight 1/eps^2 is 0 and the double-well's not a float
    "eps-range": "scenario = equilibrium\neps = 1e200\n",
    "horizon": "scenario = equilibrium\nhorizon = 0\n",
    # landing_tol = 1e-322: the BDF2 weights of a step that short overflow
    "tiny-horizon": "scenario = convergence\nn = 8\nhorizon = 1e-310\n" + _SMALL,
    "record_every": "scenario = equilibrium\n[output]\nrecord_every = 0\n",
    "snapshot-beyond-horizon": "scenario = equilibrium\n[output]\nsnapshots = 0.0, 5.0\n" + _SMALL,
    "snapshot-nan": "scenario = equilibrium\n[output]\nsnapshots = 0.0, nan\n" + _SMALL,
    "snapshot-inf": "scenario = equilibrium\n[output]\nsnapshots = 0.0, inf\n" + _SMALL,
    "snapshot-negative": "scenario = equilibrium\n[output]\nsnapshots = 0.0, -1.0\n" + _SMALL,
    "tau": "scenario = equilibrium\n[policy]\ntau = -1\n",
    "tau_min": "scenario = coarsening2d\n[policy]\ntau_min = 0\n",
    "tau_max": "scenario = coarsening2d\n[policy]\ntau_max = -1\n",
    "count": "scenario = convergence\n[policy]\ncount = 1\n",
    "alpha": "scenario = coarsening2d\n[policy]\nalpha = -0.5\n",
    "delta": "scenario = coarsening2d\n[policy]\ndelta = 4\n",
    "fixed-needs-tau": "scenario = convergence\n[policy]\nkind = fixed\n",
    "random-needs-count": "scenario = kissing_bubbles\n[policy]\nkind = random\n",
    "adaptive-needs-keys": "scenario = equilibrium\n[policy]\nkind = adaptive\n",
    "tau-order": "scenario = coarsening2d\n[policy]\ntau_min = 1e-3\ntau_max = 1e-4\n",
    # landing_tol(1e-3) = 1e-15: a run of 10^13 steps
    "step-floor": "scenario = convergence\nn = 8\nhorizon = 1e-3\n[policy]\nkind = fixed\ntau = 1e-16\n" + _SMALL,
    "converge-keys": "scenario = equilibrium\n[converge]\nlevels = 0\n",
    "max_n": "scenario = convergence\n[kernels]\nmax_n = 1\n",
    "off-node-snapshot": "scenario = coarsening2d\nn = 8\nhorizon = 0.01\n[policy]\nkind = random\ncount = 12\n"
    "[output]\nsnapshots = 0.0, 0.00123\n" + _SMALL,
    # node 5 times (1 + 5e-12), 1.6e-14 from it
    "off-node-beyond-tol": "scenario = coarsening2d\nn = 8\nhorizon = 0.01\n[policy]\nkind = random\ncount = 12\n"
    "[output]\nsnapshots = 0.0, 0.0032577310407824376\n" + _SMALL,
    "off-node-unsorted": "scenario = coarsening2d\nn = 8\nhorizon = 0.01\n[policy]\nkind = random\ncount = 12\n"
    "[output]\nsnapshots = 0.0, 0.008, 0.00123\n" + _SMALL,
}

COMMANDS = ("simulate", "converge", "kernels", "check")


def configs():
    """(name, text) of every config, the runnable ones first."""
    yield from ((name, text + _SMALL) for name, text in RUNS.items())
    yield from SIZED.items()
    yield from ((f"error-{name}", text) for name, text in ERRORS.items())


def versions() -> str:
    """The header line: the versions the digests were computed with."""
    import numpy
    import scipy

    return f"# python {platform.python_version()} numpy {numpy.__version__} scipy {scipy.__version__}"


def digest(root: Path, skip: Path) -> str:
    paths = sorted(p for p in root.rglob("*") if p != skip)
    if not paths:
        return "-"
    h = hashlib.sha256()
    for p in paths:
        name = p.relative_to(root).as_posix().encode()
        h.update(name + b"/\0" if p.is_dir() else name + b"\0" + p.read_bytes())
    return h.hexdigest()


def run(main, name: str, argv: list[str], root: Path, config: Path) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    # each warning the run raised, after its stderr, without its source
    # line: the same whatever the checkout's path, the warnings earlier runs
    # raised or a test runner's capture of them
    stderr = err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)

    def masked(text):
        return text.replace(str(root), "<dir>")

    label = masked(" ".join(argv[:1] + argv[2:]))
    print(f"{name} {label}: exit {rc} files {digest(root, config)} "
          f"stdout {json.dumps(masked(out.getvalue()))} stderr {json.dumps(masked(stderr))}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    args = ap.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from chsolver import cli

    if Path(cli.__file__).resolve().parent != src / "chsolver":
        sys.exit(f"imported chsolver from {cli.__file__}, not from {src}")

    print(versions())
    here = os.getcwd()
    try:
        for name, text in configs():
            for command in COMMANDS:
                with tempfile.TemporaryDirectory() as tmp:
                    root = Path(tmp).resolve()
                    config = root / "run.cfg"
                    config.write_text(text, encoding="utf-8")
                    os.chdir(root)
                    run(cli.main, name, [command, str(config)], root, config)
                    if command == "simulate":
                        records = str(root / "out" / "records.csv")
                        run(cli.main, name, ["check", str(config), "--records", records], root, config)
                    os.chdir(here)  # before the directory is removed
    finally:
        os.chdir(here)


if __name__ == "__main__":
    main()
