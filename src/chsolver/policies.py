"""Step-size policies and the driver loop.

A policy proposes the next step size from (step index, last step, last two
gamma values).  The driver alone applies the step rules.  It clamps each
proposal after the first to ratio_cap times the last step, so every ratio
obeys A1 whatever the policy, and then shortens a proposal that overshoots
the next checkpoint or the horizon, keeps one within landing_tol(horizon)
and sets the clock to the target.  A shortened step lowers the next cap.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .stepper import GsavState, advance
from .timestep import TimeMesh, a1_cap, landing_tol, r_max_root


class MeshExhaustedError(IndexError):
    """A prescribed mesh ran out of steps before the horizon."""


class LandingError(ValueError):
    """A checkpoint or horizon that a prescribed mesh has no node at."""


class StepPolicy:
    """Proposes step sizes; ratio_cap is the largest step ratio the driver
    lets a run take under the policy."""

    ratio_cap: float = a1_cap()

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

    @property
    def ratio_cap(self) -> float:
        return a1_cap(self.mesh.delta)

    def next_step(self, n, prev_tau, prev_gamma, curr_gamma):
        if n > self.mesh.count:
            raise MeshExhaustedError(f"mesh has {self.mesh.count} steps, step {n} requested")
        return self.mesh.tau(n)


@dataclass(frozen=True)
class AdaptiveStep(StepPolicy):
    """Energy-rate controller.

    Proposes tau = tau_max / sqrt(1 + alpha * |dE|^2) with
    dE = (gamma_n - gamma_{n-1}) / tau_n, clamped into [tau_min, tau_max];
    the first step is tau_min.  The driver applies ratio_cap (a1_cap()).
    """

    tau_min: float
    tau_max: float
    alpha: float
    ratio_cap: float = a1_cap()

    def __post_init__(self):
        if not 0 < self.tau_min <= self.tau_max < math.inf:
            raise ValueError(f"need 0 < tau_min <= tau_max < inf, got {self.tau_min}, {self.tau_max}")
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be nonnegative and finite, got {self.alpha}")
        if not 1.0 < self.ratio_cap < r_max_root():
            raise ValueError(f"ratio_cap must lie in (1, r_max), got {self.ratio_cap}")

    def next_step(self, n, prev_tau, prev_gamma, curr_gamma):
        if n == 1:
            return self.tau_min
        rate = (curr_gamma - prev_gamma) / prev_tau
        proposal = self.tau_max / math.sqrt(1.0 + self.alpha * rate**2)
        return min(max(proposal, self.tau_min), self.tau_max)


def landing_targets(policy: StepPolicy, start: float, horizon: float, checkpoints) -> list[float]:
    """The times a run from start lands on: the checkpoints inside (start +
    tol, horizon - tol), sorted, then the horizon; tol = landing_tol(horizon).
    Under a PrescribedMesh, A1ViolationError rejects a mesh the driver would
    clamp, and LandingError names its first step no longer than tol (the
    driver would land at its end a step early), the first of them (in the
    given order) that is no node, or a horizon beyond the last node, both
    within tol: landing off a node shifts every later one."""
    if not start < horizon < math.inf:
        raise ValueError(f"horizon {horizon} must be finite and beyond current time {start}")
    tol = landing_tol(horizon)
    inner = [float(c) for c in checkpoints if start + tol < c < horizon - tol]
    if isinstance(policy, PrescribedMesh):
        policy.mesh.require_a1()
        if (policy.mesh.steps <= tol).any():
            k = int(np.argmax(policy.mesh.steps <= tol)) + 1
            raise LandingError(f"mesh step {k} ({policy.mesh.tau(k)!r}) is not longer than the landing tolerance {tol!r}")
        for c in inner:
            if np.abs(policy.mesh.times - c).min() > tol:
                raise LandingError(f"checkpoint {c!r} is not a node of the prescribed mesh")
        if horizon - policy.mesh.horizon > tol:
            raise LandingError(f"horizon {horizon!r} lies beyond the last mesh node {policy.mesh.horizon!r}")
    return [*sorted(set(inner)), float(horizon)]


def run_with_policy(state: GsavState, policy: StepPolicy, horizon: float, checkpoints=(), on_step=None) -> GsavState:
    """Advance until time reaches the horizon, landing exactly on each of
    landing_targets, which raises before any step.  Returns the final state
    and keeps no record; a run continued from it takes the steps of one run
    with this horizon as a checkpoint.  After each step, on_step(state, rec,
    reached) gets the step's record and the checkpoints in [start - tol,
    horizon + tol] that the step reached, each once, as (time, grid values)
    pairs in time order; step 1 leads with those at the start time and its
    older level.  The given state is left without its history arrays, and
    the values are the state's own (see GsavState)."""
    start = state.time
    targets = landing_targets(policy, start, horizon, checkpoints)
    tol = landing_tol(horizon)
    marks = sorted({float(c) for c in checkpoints if start - tol <= c <= horizon + tol})
    done = bisect_right(marks, start + tol)
    at_start = marks[:done]  # after step 1, phi2 holds the start values
    while state.time < horizon - tol:
        target = targets[bisect_right(targets, state.time + tol)]
        tau = policy.next_step(state.step_index + 1, state.prev_tau, state.prev_gamma, state.gamma)
        if state.step_index:  # A1: the one clamp of a step ratio
            tau = min(tau, policy.ratio_cap * state.prev_tau)
        remaining = target - state.time
        landed = tau >= remaining - tol
        if tau > remaining + tol:  # a landing proposal keeps its bits: a mesh replays exactly
            tau = remaining
        state, rec = advance(state, tau)
        if landed:  # pin the node exactly so checkpoint comparisons are bitwise
            state.time = target
            rec = replace(rec, t=target)
        now = bisect_right(marks, state.time + tol)
        if on_step is not None:
            on_step(state, rec, [(t, state.phi2) for t in at_start] + [(t, state.phi1) for t in marks[done:now]])
        done, at_start = now, []
    return state
