"""Plain-text run configuration.

Format: one ``key = value`` per line, grouped under ``[section]`` headers,
``#`` starts a comment.  Keys before the first header belong to [run].
Unknown sections or keys are errors; a missing key takes the selected
scenario's preset value, or else the default of its SimConfig field.

Sections and keys:

  [run]      scenario, dim, n, length, eps, eps2, horizon, seed, dealias
  [policy]   kind (fixed|random|adaptive), tau, count,
             tau_min, tau_max, alpha, delta
  [output]   outdir, snapshots (comma-separated times), record_every
  [converge] base_k, levels, ref_steps
  [kernels]  max_n (>= 2)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .policies import AdaptiveStep, FixedStep, PrescribedMesh, StepPolicy
from .scenarios import Scenario
from .timestep import DELTA, a1_cap, bdf_weights, landing_tol, r_max_root, random_mesh

TWO_PI = 2.0 * math.pi


class ConfigParseError(ValueError):
    """Malformed config text; message carries the line number."""


class ConfigValidationError(ValueError):
    """Well-formed config with an invalid or inconsistent value."""


# Per-scenario presets, by config key; a key not listed takes its SimConfig field's default.
_SCENARIO_DEFAULTS = {
    "convergence": {
        "eps": 0.2,
        "horizon": 0.1,
        "kind": "random",
        "count": 400,
    },
    "kissing_bubbles": {
        "eps": math.sqrt(0.1),
        "horizon": 1.0,
        "kind": "adaptive",
        "tau_min": 1e-4,
        "tau_max": 7e-3,
        "alpha": 0.01,
        "snapshots": (0.0, 0.1, 0.2, 0.5, 0.8, 1.0),
    },
    "coarsening2d": {
        "eps": 0.3,
        "horizon": 3.0,
        "kind": "adaptive",
        "tau_min": 1e-5,
        "tau_max": 1e-4,
        "alpha": 0.01,
        "snapshots": (0.0, 0.1, 0.2, 1.0, 2.0, 3.0),
    },
    "coarsening3d": {
        "dim": 3,
        "n": 48,
        "eps": TWO_PI / 48.0,
        "horizon": 1.8,
        "kind": "adaptive",
        "tau_min": 4e-5,
        "tau_max": 1e-4,
        "alpha": 1.0,
        "snapshots": (0.0, 0.2, 0.4, 0.8, 1.0, 1.8),
    },
    "equilibrium": {
        "eps": 1.0,
        "horizon": 0.1,
        "kind": "fixed",
        "tau": 0.01,
    },
}
SCENARIO_NAMES = tuple(_SCENARIO_DEFAULTS)
# presets whose initial data is 2d
_PLANAR = ("convergence", "kissing_bubbles")

# The config keys of each section and the type each value parses as.  A key
# sets the SimConfig field of its name, or of its _FIELD_NAMES entry; eps2
# sets eps to its square root.
_SECTIONS = {
    "run": {
        "scenario": str, "dim": int, "n": int, "length": float, "eps": float, "eps2": float,
        "horizon": float, "seed": int, "dealias": bool,
    },
    "policy": {
        "kind": str, "tau": float, "count": int, "tau_min": float, "tau_max": float, "alpha": float,
        "delta": float,
    },
    "output": {"outdir": str, "snapshots": "floats", "record_every": int},
    "converge": {"base_k": int, "levels": int, "ref_steps": int},
    "kernels": {"max_n": int},
}
_FIELD_NAMES = {"n": "modes", "kind": "policy_kind"}


@dataclass(frozen=True, kw_only=True)
class SimConfig:
    """A run's settings.  A field's default applies where neither the config
    file nor the scenario's preset sets it; every preset sets eps, horizon
    and policy_kind."""

    scenario: str
    dim: int = 2
    modes: int = 128
    length: float = TWO_PI
    eps: float
    horizon: float
    seed: int = 0
    dealias: bool = False
    policy_kind: str
    tau: float | None = None
    count: int | None = None
    tau_min: float | None = None
    tau_max: float | None = None
    alpha: float | None = None
    delta: float = DELTA
    outdir: str = "out"
    snapshots: tuple[float, ...] = ()
    record_every: int = 1
    base_k: int = 400
    levels: int = 4
    ref_steps: int = 12800
    max_n: int = 50


def _convert(raw: str, kind, lineno: int, key: str):
    raw = raw.strip()
    try:
        if kind is bool:
            low = raw.lower()
            if low in ("true", "yes", "on", "1"):
                return True
            if low in ("false", "no", "off", "0"):
                return False
            raise ValueError(raw)
        if kind == "floats":
            if raw == "":
                return ()
            return tuple(float(p) for p in raw.split(","))
        return kind(raw)
    except ValueError:
        raise ConfigParseError(f"line {lineno}: cannot parse value {raw!r} for key {key!r}") from None


def _read_pairs(path: str) -> dict[tuple[str, str], object]:
    pairs: dict[tuple[str, str], object] = {}
    section = "run"
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if text.startswith("["):
                if not text.endswith("]"):
                    raise ConfigParseError(f"line {lineno}: unterminated section header {text!r}")
                section = text[1:-1].strip()
                if section not in _SECTIONS:
                    raise ConfigParseError(f"line {lineno}: unknown section {section!r}")
                continue
            if "=" not in text:
                raise ConfigParseError(f"line {lineno}: expected 'key = value', got {text!r}")
            key, raw = text.split("=", 1)
            key = key.strip().lower()
            kind = _SECTIONS[section].get(key)
            if kind is None:
                raise ConfigParseError(f"line {lineno}: unknown key {key!r} in section [{section}]")
            if (section, key) in pairs:
                raise ConfigParseError(f"line {lineno}: duplicate key {key!r} in section [{section}]")
            pairs[(section, key)] = _convert(raw, kind, lineno, key)
    return pairs


def parse_config(
    path: str, scenario: str | None = None, default_scenario: str | None = None, check_snapshots: bool = True
) -> SimConfig:
    """Parse a config file; an explicit scenario argument overrides the file,
    and default_scenario applies when neither names one.  With
    check_snapshots=False (for subcommands that write none) the snapshot
    times must still be finite and nonnegative but may lie beyond the horizon."""
    pairs = _read_pairs(path)

    name = scenario if scenario is not None else pairs.get(("run", "scenario"), default_scenario)
    if name is None:
        raise ConfigValidationError("no scenario selected (config key or command-line flag)")
    if name not in SCENARIO_NAMES:
        raise ConfigValidationError(f"unknown scenario {name!r}, pick one of {SCENARIO_NAMES}")

    merged = dict(_SCENARIO_DEFAULTS[name])
    if ("run", "eps") in pairs and ("run", "eps2") in pairs:
        raise ConfigValidationError("give eps or eps2, not both")
    for (_, key), value in pairs.items():
        if key == "eps2":
            if value <= 0:
                raise ConfigValidationError(f"eps2 must be positive, got {value}")
            key, value = "eps", math.sqrt(value)
        merged[key] = value
    merged.pop("scenario", None)
    if merged["kind"] not in ("fixed", "random", "adaptive"):
        raise ConfigValidationError(f"unknown policy kind {merged['kind']!r}")

    cfg = SimConfig(scenario=name, **{_FIELD_NAMES.get(k, k): v for k, v in merged.items()})
    _validate(cfg, check_snapshots)
    return cfg


def _validate(cfg: SimConfig, check_snapshots: bool) -> None:
    def bad(msg):
        raise ConfigValidationError(msg)

    for key in ("length", "eps", "horizon", "tau", "tau_min", "tau_max", "alpha", "delta"):
        value = getattr(cfg, key)
        if value is not None and not math.isfinite(value):
            bad(f"{key} must be finite, got {value}")
    if cfg.dim not in (2, 3):
        bad(f"dim must be 2 or 3, got {cfg.dim}")
    if cfg.dim != 2 and cfg.scenario in _PLANAR:
        bad(f"scenario {cfg.scenario} has 2d initial data, got dim {cfg.dim}")
    if cfg.modes < 4 or cfg.modes % 2:
        bad(f"n must be even and >= 4, got {cfg.modes}")
    for key in ("length", "eps", "horizon"):
        if getattr(cfg, key) <= 0:
            bad(f"{key} must be positive, got {getattr(cfg, key)}")
    # the cubic's weight 1/eps^2 and the double-well's 1/(4 eps^2), as the
    # stepper computes them: beyond the float range eps**2 overflows, or a
    # weight is zero or infinite and the first step's field is not finite
    try:
        weights = (1.0 / cfg.eps**2, 1.0 / (4.0 * cfg.eps**2))
    except (OverflowError, ZeroDivisionError):
        weights = (math.inf,)
    if not all(0 < w < math.inf for w in weights):
        bad(f"eps = {cfg.eps!r} is out of range: 1/eps^2 and 1/(4 eps^2) must be positive finite floats")
    # the BDF2 weights grow as the step shrinks and its ratio grows: where
    # those of a step of the landing tolerance at ratio r_max overflow, a
    # step's field or a kernel row may not be finite
    tol = landing_tol(cfg.horizon)
    if not (tol > 0 and all(map(math.isfinite, bdf_weights(tol, r_max_root())))):
        bad(
            f"horizon = {cfg.horizon!r} is out of range: the BDF2 weights of a step of the landing "
            f"tolerance {tol!r} at ratio r_max must be finite floats"
        )
    if cfg.record_every < 1:
        bad(f"record_every must be >= 1, got {cfg.record_every}")
    if cfg.seed < 0:
        bad(f"seed must be >= 0, got {cfg.seed}")
    top = cfg.horizon + landing_tol(cfg.horizon) if check_snapshots else math.inf
    if not all(0 <= t <= top and math.isfinite(t) for t in cfg.snapshots):
        bad("snapshot times must lie in [0, horizon]")
    # range-check every policy key that is set, whether or not the kind uses it
    for key in ("tau", "tau_min", "tau_max"):
        value = getattr(cfg, key)
        if value is not None and value <= 0:
            bad(f"{key} must be positive, got {value}")
    # a step within the landing tolerance would land before it is taken, and
    # the run would need horizon / tau of them
    for key in ("tau", "tau_min"):
        value = getattr(cfg, key)
        if value is not None and value <= tol:
            bad(f"{key} = {value!r} is not longer than the landing tolerance {tol!r}")
    if cfg.count is not None and cfg.count < 2:
        bad(f"count must be >= 2, got {cfg.count}")
    if cfg.alpha is not None and cfg.alpha < 0:
        bad(f"alpha must be nonnegative, got {cfg.alpha}")
    try:
        a1_cap(cfg.delta)
    except ValueError as exc:
        bad(str(exc))
    if cfg.policy_kind == "fixed":
        if cfg.tau is None:
            bad("fixed policy needs tau > 0")
    elif cfg.policy_kind == "random":
        if cfg.count is None:
            bad("random-mesh policy needs count >= 2")
    else:
        if cfg.tau_min is None or cfg.tau_max is None or cfg.alpha is None:
            bad("adaptive policy needs tau_min, tau_max, alpha")
        if not cfg.tau_min <= cfg.tau_max:
            bad(f"need 0 < tau_min <= tau_max, got {cfg.tau_min}, {cfg.tau_max}")
    if cfg.base_k < 2 or cfg.levels < 1 or cfg.ref_steps < 1:
        bad("converge needs base_k >= 2, levels >= 1, ref_steps >= 1")
    if cfg.max_n < 2:
        bad(f"max_n must be >= 2, got {cfg.max_n}")


def build_policy(cfg: SimConfig) -> StepPolicy:
    if cfg.policy_kind == "fixed":
        return FixedStep(cfg.tau)
    if cfg.policy_kind == "random":
        return PrescribedMesh(random_mesh(cfg.horizon, cfg.count, cfg.seed))
    return AdaptiveStep(tau_min=cfg.tau_min, tau_max=cfg.tau_max, alpha=cfg.alpha, ratio_cap=a1_cap(cfg.delta))


def build_scenario(cfg: SimConfig) -> Scenario:
    return Scenario(
        name=cfg.scenario,
        dim=cfg.dim,
        modes=cfg.modes,
        length=cfg.length,
        eps=cfg.eps,
        horizon=cfg.horizon,
        policy=build_policy(cfg),
        seed=cfg.seed,
        snapshot_times=cfg.snapshots,
        dealias=cfg.dealias,
    )
