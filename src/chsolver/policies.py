"""Step-size policies and the driver loop.

A policy proposes the next step size from (step index, last step, last two
gamma values); the driver may shorten a proposal to land exactly on a
checkpoint or on the horizon.  Shortening only lowers the next ratio, so
an admissible proposal stream stays admissible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .stepper import GsavState, StepRecord, advance
from .timestep import TimeMesh, r_max_root


class MeshExhaustedError(IndexError):
    """A prescribed mesh ran out of steps before the horizon."""


class StepPolicy:
    def next_step(self, n: int, prev_tau: float, prev_gamma: float, curr_gamma: float) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class FixedStep(StepPolicy):
    tau: float

    def __post_init__(self):
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")

    def next_step(self, n, prev_tau, prev_gamma, curr_gamma):
        return self.tau


@dataclass(frozen=True)
class PrescribedMesh(StepPolicy):
    mesh: TimeMesh

    def next_step(self, n, prev_tau, prev_gamma, curr_gamma):
        if n > self.mesh.count:
            raise MeshExhaustedError(f"mesh has {self.mesh.count} steps, step {n} requested")
        return self.mesh.tau(n)


@dataclass(frozen=True)
class AdaptiveStep(StepPolicy):
    """Energy-rate controller.

    Proposes tau = tau_max / sqrt(1 + alpha * |dE|^2) with
    dE = (gamma_n - gamma_{n-1}) / tau_n, then clamps into
    [tau_min, min(tau_max, ratio_cap * prev_tau)].  The first step is
    tau_min.  ratio_cap defaults to r_max - 0.01.
    """

    tau_min: float
    tau_max: float
    alpha: float
    ratio_cap: float | None = None

    def __post_init__(self):
        if not 0 < self.tau_min <= self.tau_max < math.inf:
            raise ValueError(f"need 0 < tau_min <= tau_max < inf, got {self.tau_min}, {self.tau_max}")
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be nonnegative and finite, got {self.alpha}")
        cap = self.ratio_cap
        if cap is None:
            cap = r_max_root() - 0.01
            object.__setattr__(self, "ratio_cap", cap)
        if not 1.0 < cap < r_max_root():
            raise ValueError(f"ratio_cap must lie in (1, r_max), got {cap}")

    def next_step(self, n, prev_tau, prev_gamma, curr_gamma):
        if n == 1:
            return self.tau_min
        rate = (curr_gamma - prev_gamma) / prev_tau
        proposal = self.tau_max / math.sqrt(1.0 + self.alpha * rate**2)
        return min(max(proposal, self.tau_min), self.tau_max, self.ratio_cap * prev_tau)


def run_with_policy(
    state: GsavState,
    policy: StepPolicy,
    horizon: float,
    checkpoints=(),
    on_step=None,
) -> tuple[GsavState, list[StepRecord]]:
    """Advance until time reaches the horizon, landing exactly on each
    checkpoint time and on the horizon.  Returns (final state, records)."""
    if not state.time < horizon < math.inf:
        raise ValueError(f"horizon {horizon} must be finite and beyond current time {state.time}")
    tol = 1e-12 * horizon
    targets = sorted({float(c) for c in checkpoints if state.time + tol < c < horizon - tol})
    targets.append(float(horizon))
    records: list[StepRecord] = []
    prev_gamma = state.gamma
    idx = 0
    while state.time < horizon - tol:
        while targets[idx] <= state.time + tol:
            idx += 1
        target = targets[idx]
        tau = policy.next_step(state.step_index + 1, state.prev_tau, prev_gamma, state.gamma)
        remaining = target - state.time
        landed = tau >= remaining - tol
        if landed:
            tau = remaining
        gamma_before = state.gamma
        state, rec = advance(state, tau)
        if landed:
            # pin the node exactly so checkpoint comparisons are bitwise
            state = replace(state, time=target)
            rec = replace(rec, t=target)
        records.append(rec)
        prev_gamma = gamma_before
        if on_step is not None:
            on_step(state, rec)
    return state, records
