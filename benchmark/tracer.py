"""Span tracing around chsolver's public functions, from outside the package.

A :class:`Tracer` replaces each target function with a wrapper at every name
where chsolver code looks it up (the defining module, every chsolver module
that imported it by name, and the class for methods), plus the scipy.fft and
numpy.fft transform entry points.  Each call becomes a span
``[name, start_ns, end_ns, parent_index, extra]`` kept in memory; nothing is
written until the caller asks for it.  Uninstalling restores every original.

A target that no longer exists is skipped and listed in ``missing``; one that
is never called simply produces no spans.  Both read back as a count of 0 and
a time of 0, so later refactors of the package cannot crash the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc

# (module, qualified name) of every wrapped public function, grouped by layer.
TARGETS = (
    ("chsolver.cli", "main"),
    ("chsolver.config", "parse_config"),
    ("chsolver.config", "build_scenario"),
    ("chsolver.config", "build_policy"),
    ("chsolver.scenarios", "run_scenario"),
    ("chsolver.scenarios", "initial_field"),
    ("chsolver.policies", "run_with_policy"),
    ("chsolver.policies", "FixedStep.next_step"),
    ("chsolver.policies", "PrescribedMesh.next_step"),
    ("chsolver.policies", "AdaptiveStep.next_step"),
    ("chsolver.stepper", "init_state"),
    ("chsolver.stepper", "advance"),
    ("chsolver.stepper", "energy"),
    ("chsolver.stepper", "linear_solve"),
    ("chsolver.stepper", "gamma_update"),
    ("chsolver.stepper", "relax"),
    ("chsolver.stepper", "validate_records"),
    ("chsolver.recordio", "RecordWriter.__init__"),
    ("chsolver.recordio", "RecordWriter.write"),
    ("chsolver.recordio", "RecordWriter.close"),
    ("chsolver.recordio", "write_records"),
    ("chsolver.recordio", "read_records"),
    ("chsolver.recordio", "write_snapshot"),
    ("chsolver.recordio", "read_snapshot"),
    ("chsolver.timestep", "random_mesh"),
    ("chsolver.timestep", "doc_kernels"),
    ("chsolver.timestep", "dcc_kernels"),
    ("chsolver.timestep", "kernel_residuals"),
    ("chsolver.timestep", "quadratic_form_check"),
)

FFT_MODULES = ("scipy.fft", "numpy.fft")
FFT_NAMES = (
    "fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
    "fftn", "ifftn", "rfftn", "irfftn", "hfft", "ihfft",
)
FFT_SPAN = "fft"


def span_name(module: str, qualname: str) -> str:
    """'chsolver.stepper', 'advance' -> 'stepper.advance'; every policy's
    next_step shares the span 'policies.next_step'."""
    layer = module.rsplit(".", 1)[-1]
    if qualname.endswith(".next_step"):
        return f"{layer}.next_step"
    return f"{layer}.{qualname}"


class Tracer:
    """Collects spans while installed; use as a context manager.  The FFT
    entry points are always wrapped; ``targets=()`` wraps only them."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.workers_passed: set = set()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self) -> None:
        for module, qualname in self.targets:
            self._install_target(module, qualname)
        for module in FFT_MODULES:
            mod = importlib.import_module(module)
            for name in FFT_NAMES:
                orig = getattr(mod, name, None)
                if orig is not None:
                    _replace_everywhere(self._undo, mod, name, orig, self._wrap_fft(orig))

    def uninstall(self) -> None:
        _restore(self._undo)
        self._stack.clear()

    def _install_target(self, module: str, qualname: str) -> None:
        name = span_name(module, qualname)
        try:
            owner = importlib.import_module(module)
        except ImportError:
            self.missing.append(f"{module}:{qualname}")
            return
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                self.missing.append(f"{module}:{qualname}")
                return
        orig = inspect.getattr_static(owner, attr, None)
        if orig is None or not callable(orig):
            self.missing.append(f"{module}:{qualname}")
            return
        if path:  # a method: patch the class attribute only
            if attr not in vars(owner):  # inherited: wrapped where it is defined, if listed
                return
            _set(self._undo, owner, attr, self._wrap(orig, name))
            return
        _replace_everywhere(self._undo, owner, attr, orig, self._wrap(orig, name))

    # -- wrappers ------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter_ns()

    def _wrap(self, fn, name: str):
        tracer = self
        extra = _EXTRA.get(name)

        if name == "cli.main":
            @functools.wraps(fn)
            def wrapper(argv=None, *args, **kwargs):
                sub = argv[0] if argv else "none"
                idx = tracer._open(f"cli.{sub}")
                try:
                    return fn(argv, *args, **kwargs)
                finally:
                    tracer._close(idx)
            return wrapper

        if name == "policies.run_with_policy":
            sig = inspect.signature(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                hook = bound.arguments.get("on_step")
                if hook is not None:
                    bound.arguments["on_step"] = tracer._wrap(hook, "policies.on_step")
                idx = tracer._open(name)
                try:
                    return fn(*bound.args, **bound.kwargs)
                finally:
                    tracer._close(idx)
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if extra is not None:
                tracer.spans[idx][4] = extra(args, kwargs, out)
            return out
        return wrapper

    def _wrap_fft(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(x, *args, **kwargs):
            idx = tracer._open(FFT_SPAN)
            try:
                out = fn(x, *args, **kwargs)
            finally:
                tracer._close(idx)
            tracer.workers_passed.add(kwargs.get("workers"))
            # computed, not measured: bytes of the input plus the output array
            tracer.spans[idx][4] = getattr(x, "nbytes", 0) + getattr(out, "nbytes", 0)
            return out
        return wrapper


def _advance_tau(args, kwargs, out):
    tau = kwargs["tau_n"] if "tau_n" in kwargs else args[1] if len(args) > 1 else float("nan")
    return float(tau)


def _proposal(args, kwargs, out):
    return float(out)


# per-span extra value kept with the span: the step size of each advance and
# the proposal of each next_step, from which landed steps are counted
_EXTRA = {"stepper.advance": _advance_tau, "policies.next_step": _proposal}


class AllocProbe:
    """Context manager wrapping stepper.advance so that the listed calls
    (1-based) each run with tracemalloc on; ``peaks`` holds the peak bytes
    allocated inside each of them."""

    def __init__(self, calls):
        self.calls = set(calls)
        self.peaks: list[int] = []
        self._count = 0
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        stepper = importlib.import_module("chsolver.stepper")
        orig = getattr(stepper, "advance", None)
        if orig is None:
            return self
        probe = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            probe._count += 1
            if probe._count not in probe.calls:
                return orig(*args, **kwargs)
            tracemalloc.start()
            try:
                return orig(*args, **kwargs)
            finally:
                probe.peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        _replace_everywhere(self._undo, stepper, "advance", orig, wrapper)
        return self

    def __exit__(self, *exc):
        _restore(self._undo)


def _set(undo, owner, attr, value) -> None:
    undo.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, value)


def _replace_everywhere(undo, owner, attr, orig, wrapper) -> None:
    """Point owner.attr and every chsolver module name bound to orig at wrapper."""
    _set(undo, owner, attr, wrapper)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or mod is owner or not mod_name.startswith("chsolver"):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                _set(undo, mod, key, wrapper)


def _restore(undo) -> None:
    while undo:
        owner, attr, orig = undo.pop()
        setattr(owner, attr, orig)
