"""Plain-text run configuration.

Format: one ``key = value`` per line, grouped under ``[section]`` headers,
``#`` starts a comment.  Keys before the first header belong to [run].
Unknown sections or keys are errors; missing keys take the selected
scenario's defaults.

Sections and keys:

  [run]      scenario, dim, n, length, eps, eps2, horizon, seed, dealias
  [policy]   kind (fixed|random|adaptive), tau, count,
             tau_min, tau_max, alpha, delta
  [output]   outdir, snapshots (comma-separated times), record_every
  [converge] base_k, levels, ref_steps
  [kernels]  max_n
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .policies import AdaptiveStep, FixedStep, PrescribedMesh, StepPolicy
from .scenarios import Scenario
from .timestep import r_max_root, random_mesh

TWO_PI = 2.0 * math.pi


class ConfigParseError(ValueError):
    """Malformed config text; message carries the line number."""


class ConfigValidationError(ValueError):
    """Well-formed config with an invalid or inconsistent value."""


SCENARIO_NAMES = ("convergence", "kissing_bubbles", "coarsening2d", "coarsening3d", "equilibrium")

# Per-scenario defaults; anything not listed falls back to _BASE.
_BASE = {
    "dim": 2,
    "n": 128,
    "length": TWO_PI,
    "seed": 0,
    "dealias": False,
    "outdir": "out",
    "record_every": 1,
    "snapshots": (),
    "base_k": 400,
    "levels": 4,
    "ref_steps": 12800,
    "max_n": 50,
}

_SCENARIO_DEFAULTS = {
    "convergence": {
        "eps": 0.2,
        "horizon": 0.1,
        "policy_kind": "random",
        "count": 400,
    },
    "kissing_bubbles": {
        "eps": math.sqrt(0.1),
        "horizon": 1.0,
        "policy_kind": "adaptive",
        "tau_min": 1e-4,
        "tau_max": 7e-3,
        "alpha": 0.01,
        "snapshots": (0.0, 0.1, 0.2, 0.5, 0.8, 1.0),
    },
    "coarsening2d": {
        "eps": 0.3,
        "horizon": 3.0,
        "policy_kind": "adaptive",
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
        "policy_kind": "adaptive",
        "tau_min": 4e-5,
        "tau_max": 1e-4,
        "alpha": 1.0,
        "snapshots": (0.0, 0.2, 0.4, 0.8, 1.0, 1.8),
    },
    "equilibrium": {
        "eps": 1.0,
        "horizon": 0.1,
        "policy_kind": "fixed",
        "tau": 0.01,
    },
}

_KEY_TYPES = {
    ("run", "scenario"): str,
    ("run", "dim"): int,
    ("run", "n"): int,
    ("run", "length"): float,
    ("run", "eps"): float,
    ("run", "eps2"): float,
    ("run", "horizon"): float,
    ("run", "seed"): int,
    ("run", "dealias"): bool,
    ("policy", "kind"): str,
    ("policy", "tau"): float,
    ("policy", "count"): int,
    ("policy", "tau_min"): float,
    ("policy", "tau_max"): float,
    ("policy", "alpha"): float,
    ("policy", "delta"): float,
    ("output", "outdir"): str,
    ("output", "snapshots"): "floats",
    ("output", "record_every"): int,
    ("converge", "base_k"): int,
    ("converge", "levels"): int,
    ("converge", "ref_steps"): int,
    ("kernels", "max_n"): int,
}


@dataclass(frozen=True)
class SimConfig:
    scenario: str
    dim: int
    modes: int
    length: float
    eps: float
    horizon: float
    seed: int
    dealias: bool
    policy_kind: str
    tau: float | None
    count: int | None
    tau_min: float | None
    tau_max: float | None
    alpha: float | None
    delta: float | None
    outdir: str
    snapshots: tuple[float, ...]
    record_every: int
    base_k: int
    levels: int
    ref_steps: int
    max_n: int


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
                if section not in ("run", "policy", "output", "converge", "kernels"):
                    raise ConfigParseError(f"line {lineno}: unknown section {section!r}")
                continue
            if "=" not in text:
                raise ConfigParseError(f"line {lineno}: expected 'key = value', got {text!r}")
            key, raw = text.split("=", 1)
            key = key.strip().lower()
            if (section, key) not in _KEY_TYPES:
                raise ConfigParseError(f"line {lineno}: unknown key {key!r} in section [{section}]")
            if (section, key) in pairs:
                raise ConfigParseError(f"line {lineno}: duplicate key {key!r} in section [{section}]")
            pairs[(section, key)] = _convert(raw, _KEY_TYPES[(section, key)], lineno, key)
    return pairs


def parse_config(path: str, scenario: str | None = None) -> SimConfig:
    """Parse a config file; an explicit scenario argument overrides the file."""
    pairs = _read_pairs(path)

    name = scenario if scenario is not None else pairs.get(("run", "scenario"))
    if name is None:
        raise ConfigValidationError("no scenario selected (config key or command-line flag)")
    if name not in SCENARIO_NAMES:
        raise ConfigValidationError(f"unknown scenario {name!r}, pick one of {SCENARIO_NAMES}")

    merged = dict(_BASE)
    merged.update(_SCENARIO_DEFAULTS[name])

    if ("run", "eps") in pairs and ("run", "eps2") in pairs:
        raise ConfigValidationError("give eps or eps2, not both")
    for (section, key), value in pairs.items():
        if key == "scenario":
            continue
        if key == "eps2":
            if value <= 0:
                raise ConfigValidationError(f"eps2 must be positive, got {value}")
            merged["eps"] = math.sqrt(value)
        elif key == "kind":
            merged["policy_kind"] = value
        else:
            merged[key] = value

    kind = merged["policy_kind"]
    if kind not in ("fixed", "random", "adaptive"):
        raise ConfigValidationError(f"unknown policy kind {kind!r}")

    cfg = SimConfig(
        scenario=name,
        dim=merged["dim"],
        modes=merged["n"],
        length=merged["length"],
        eps=merged["eps"],
        horizon=merged["horizon"],
        seed=merged["seed"],
        dealias=merged["dealias"],
        policy_kind=kind,
        tau=merged.get("tau"),
        count=merged.get("count"),
        tau_min=merged.get("tau_min"),
        tau_max=merged.get("tau_max"),
        alpha=merged.get("alpha"),
        delta=merged.get("delta"),
        outdir=merged["outdir"],
        snapshots=tuple(merged["snapshots"]),
        record_every=merged["record_every"],
        base_k=merged["base_k"],
        levels=merged["levels"],
        ref_steps=merged["ref_steps"],
        max_n=merged["max_n"],
    )
    _validate(cfg)
    return cfg


def _validate(cfg: SimConfig) -> None:
    def bad(msg):
        raise ConfigValidationError(msg)

    for key in ("length", "eps", "horizon", "tau", "tau_min", "tau_max", "alpha", "delta"):
        value = getattr(cfg, key)
        if value is not None and not math.isfinite(value):
            bad(f"{key} must be finite, got {value}")
    if cfg.dim not in (2, 3):
        bad(f"dim must be 2 or 3, got {cfg.dim}")
    if cfg.modes < 4 or cfg.modes % 2:
        bad(f"n must be even and >= 4, got {cfg.modes}")
    if cfg.length <= 0:
        bad(f"length must be positive, got {cfg.length}")
    if cfg.eps <= 0:
        bad(f"eps must be positive, got {cfg.eps}")
    if cfg.horizon <= 0:
        bad(f"horizon must be positive, got {cfg.horizon}")
    if cfg.record_every < 1:
        bad(f"record_every must be >= 1, got {cfg.record_every}")
    if not all(0 <= t <= cfg.horizon * (1 + 1e-12) for t in cfg.snapshots):
        bad("snapshot times must lie in [0, horizon]")
    if cfg.policy_kind == "fixed":
        if cfg.tau is None or cfg.tau <= 0:
            bad("fixed policy needs tau > 0")
    elif cfg.policy_kind == "random":
        if cfg.count is None or cfg.count < 2:
            bad("random-mesh policy needs count >= 2")
    else:
        if cfg.tau_min is None or cfg.tau_max is None or cfg.alpha is None:
            bad("adaptive policy needs tau_min, tau_max, alpha")
        if not 0 < cfg.tau_min <= cfg.tau_max:
            bad(f"need 0 < tau_min <= tau_max, got {cfg.tau_min}, {cfg.tau_max}")
        if cfg.alpha < 0:
            bad(f"alpha must be nonnegative, got {cfg.alpha}")
        if cfg.delta is not None and not 0 < cfg.delta < r_max_root() - 1.0:
            bad(f"delta must lie in (0, r_max - 1), got {cfg.delta}")
    if cfg.base_k < 2 or cfg.levels < 1 or cfg.ref_steps < 1:
        bad("converge needs base_k >= 2, levels >= 1, ref_steps >= 1")
    if cfg.max_n < 1:
        bad(f"max_n must be >= 1, got {cfg.max_n}")


def build_policy(cfg: SimConfig) -> StepPolicy:
    if cfg.policy_kind == "fixed":
        return FixedStep(cfg.tau)
    if cfg.policy_kind == "random":
        return PrescribedMesh(random_mesh(cfg.horizon, cfg.count, cfg.seed))
    cap = None if cfg.delta is None else r_max_root() - cfg.delta
    return AdaptiveStep(tau_min=cfg.tau_min, tau_max=cfg.tau_max, alpha=cfg.alpha, ratio_cap=cap)


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
