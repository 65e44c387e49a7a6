"""Per-row reference for the record reader and validator.

``read_records`` parses a records CSV line by line into ``StepRecord``s,
and ``validate_records`` checks the guarantees one record at a time
against the previous finite record, all rows in one call.  The library
parses the file in blocks of whole lines (``read_record_blocks``) and
checks the rows with ``RecordCheck``, a fold that may be fed them in
blocks; the tests require the same values, bit for bit, the same errors
with the same line numbers, and the same messages in the same order,
however the file and the rows are split.
"""

import math
from dataclasses import astuple

from chsolver.recordio import RECORD_FIELDS
from chsolver.stepper import StepRecord
from chsolver.timestep import LANDING_RTOL


def read_records(path) -> list[StepRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header.split(",") != list(RECORD_FIELDS):
            raise ValueError(f"unexpected record header {header!r}")
        out = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(RECORD_FIELDS):
                raise ValueError(f"line {lineno}: expected {len(RECORD_FIELDS)} fields")
            try:
                out.append(StepRecord(int(parts[0]), *map(float, parts[1:])))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    return out


def _finite(rec) -> bool:
    return all(map(math.isfinite, astuple(rec)[1:]))


def validate_records(records, gamma0=None, mass0=None, volume=None, ratio_cap=None) -> list[str]:
    problems: list[str] = []
    if not records:
        return ["no records"]
    # anchors not given come from the first finite record: a nan there
    # would fail every later comparison against it
    first = next((rec for rec in records if _finite(rec)), records[0])
    g_scale = gamma0 if gamma0 is not None else first.gamma
    m_anchor = mass0 if mass0 is not None else first.mass
    m_scale = volume if volume is not None else max(abs(m_anchor), 1.0)
    tol = LANDING_RTOL * max([0.0] + [rec.t for rec in records if _finite(rec)])
    prev_gamma = gamma0
    prev_tau = None
    # the clock starts at 0 before step 1; held: the previous row's clock was not reported
    prev_t, prev_n, held = 0.0, 0, True
    for rec in records:
        if not _finite(rec):
            problems.append(f"step {rec.n}: nonfinite record values")
            continue
        clock_ok = True
        if rec.t <= prev_t:
            if prev_tau is None:
                problems.append(f"step {rec.n}: t = {rec.t!r} not positive")
            else:
                problems.append(f"step {rec.n}: t = {rec.t!r} does not exceed the previous t = {prev_t!r}")
            clock_ok = False
        elif held and rec.tau > 0 and rec.n == prev_n + 1 and abs(rec.t - prev_t - rec.tau) > tol:
            problems.append(f"step {rec.n}: t advanced by {rec.t - prev_t!r} != tau = {rec.tau!r}")
            clock_ok = False
        if rec.tau <= 0:
            problems.append(f"step {rec.n}: tau = {rec.tau} not positive")
        if rec.gamma <= 0:
            problems.append(f"step {rec.n}: gamma = {rec.gamma} not positive")
        if rec.xi <= 0:
            problems.append(f"step {rec.n}: xi = {rec.xi} not positive")
        if rec.eta <= 0:
            problems.append(f"step {rec.n}: eta = {rec.eta} not positive")
        if prev_gamma is not None:
            if rec.gamma > prev_gamma + 1e-13 * g_scale:
                problems.append(
                    f"step {rec.n}: gamma increased from {prev_gamma!r} to {rec.gamma!r}"
                )
            drop = prev_gamma - rec.gamma
            if abs(drop - rec.dissipation) > 1e-12 * prev_gamma:
                problems.append(
                    f"step {rec.n}: gamma drop {drop!r} != dissipation {rec.dissipation!r}"
                )
        if abs(rec.mass - m_anchor) > 1e-10 * m_scale:
            problems.append(f"step {rec.n}: mass drifted from {m_anchor!r} to {rec.mass!r}")
        # the ratio to a non-positive step is not defined; that step is reported.
        # A row after a gap has no step before it in the file
        if ratio_cap is not None and prev_tau is not None and prev_tau > 0 and rec.n == prev_n + 1:
            if rec.tau > ratio_cap * prev_tau * (1.0 + 1e-12):
                problems.append(
                    f"step {rec.n}: ratio {rec.tau / prev_tau:.4f} exceeds cap {ratio_cap:.4f}"
                )
        prev_t, prev_n, held, prev_gamma, prev_tau = rec.t, rec.n, clock_ok, rec.gamma, rec.tau
    return problems


def eta_problems(records) -> list[str]:
    """The eta rule's messages alone: the rows whose eta = xi (2 - xi) is not
    positive, steps at which the scalar lagged the energy so far (xi >= 2)
    that the written field is the auxiliary one times a non-positive factor.
    Steps as long as some tests take on rough fields do this; every other
    guarantee holds on them."""
    return [f"step {rec.n}: eta = {rec.eta} not positive" for rec in records if rec.eta <= 0]

