"""Metric names and units, and the per-layer figures derived from one traced pass.

BENCHMARK.json lists the same names and units; selftest.py checks that they agree.
"""

from __future__ import annotations

import math
import statistics

from tracer import FFT_SPAN as FFT

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "ops_per_s": "1/s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "1",
}

PER_LAYER = {
    "spectral.fft_calls_per_step": "count",
    "spectral.fft_ms_per_step": "ms",
    "spectral.fft_bytes_per_step": "B_computed",
    "spectral.fft_workers": "count",
    "spectral.fft_floor_ms": "ms",
    "stepper.advance_ms_p50": "ms",
    "stepper.advance_ms_p90": "ms",
    "stepper.advance_self_ms": "ms",
    "stepper.advance_over_floor": "ratio",
    "stepper.energy_calls_per_step": "count",
    "stepper.energy_ms_per_step": "ms",
    "stepper.alloc_peak_mb_per_step": "MB",
    "stepper.init_state_ms": "ms",
    "stepper.validate_ms": "ms",
    "policies.steps": "count",
    "policies.landed_steps": "count",
    "policies.next_step_us": "us",
    "policies.driver_self_ms_per_step": "ms",
    "policies.max_ratio_over_cap": "ratio",
    "scenarios.initial_field_ms": "ms",
    "config.parse_ms": "ms",
    "recordio.rows_written": "count",
    "recordio.bytes_written": "B",
    "recordio.write_ms": "ms",
    "recordio.snapshot_write_ms": "ms",
    "recordio.read_ms": "ms",
    "recordio.snapshot_read_ms": "ms",
    "timestep.rows": "count",
    "timestep.doc_kernels_calls": "count",
    "timestep.doc_kernels_ms": "ms",
    "timestep.dcc_kernels_ms": "ms",
    "timestep.kernel_residuals_ms": "ms",
    "timestep.quadratic_form_ms": "ms",
    "timestep.max_residual": "1",
    "cli.kernels_self_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

RECORD_WRITE = (
    "recordio.RecordWriter.__init__",
    "recordio.RecordWriter.write",
    "recordio.RecordWriter.close",
    "recordio.write_records",
)


class SpanTree:
    """Parent/child view of a tracer's spans ``[name, start, end, parent, extra]``."""

    def __init__(self, spans):
        self.spans = spans
        self.children: list[list[int]] = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self.children[s[3]].append(i)

    def ms(self, i: int) -> float:
        s = self.spans[i]
        return (s[2] - s[1]) / 1e6

    def named(self, *names) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] in names]

    def within(self, i: int, names) -> list[int]:
        """Outermost descendants of span i whose name is in names."""
        out, todo = [], list(self.children[i])
        while todo:
            j = todo.pop()
            if self.spans[j][0] in names:
                out.append(j)
            else:
                todo.extend(self.children[j])
        return out

    def self_ms(self, i: int, names=None) -> float:
        """Duration of span i minus its direct children, or, given names,
        minus its outermost descendants with those names."""
        parts = self.children[i] if names is None else self.within(i, names)
        return self.ms(i) - sum(self.ms(j) for j in parts)

    def total_ms(self, names) -> float:
        """Time covered by spans with these names, nested ones counted once."""
        total = 0.0
        for i in self.named(*names):
            p = self.spans[i][3]
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][3]
            if p < 0:
                total += self.ms(i)
        return total

    def mean_ms(self, name) -> float:
        idx = self.named(name)
        return sum(self.ms(i) for i in idx) / len(idx) if idx else 0.0


def _per(x: float, n: int) -> float:
    return x / n if n else 0.0


def pass_layer_metrics(spans, res, ratio_cap: float) -> dict[str, float]:
    """Per-layer figures of one traced pass (the run-wide ones are added by
    the caller): counts and times per step inside the stepping loop, and
    per-call or per-pass times at every other boundary."""
    t = SpanTree(spans)
    steps = res.ops if res.records is not None else 0
    loops = t.named("policies.run_with_policy")
    ffts = [j for i in loops for j in t.within(i, {FFT})]
    energies = [j for i in loops for j in t.within(i, {"stepper.energy"})]
    landed = 0
    for i in loops:
        proposal = None
        for j in sorted(t.children[i]):
            name, extra = t.spans[j][0], t.spans[j][4]
            if name == "policies.next_step":
                proposal = extra
            elif name == "stepper.advance" and proposal is not None and extra is not None:
                landed += extra < proposal
                proposal = None
    taus = [r.tau for r in res.records] if res.records else []
    max_ratio = max((b / a for a, b in zip(taus, taus[1:])), default=0.0)
    next_steps = t.named("policies.next_step")
    advances = t.named("stepper.advance")
    return {
        "spectral.fft_calls_per_step": _per(len(ffts), steps),
        "spectral.fft_ms_per_step": _per(sum(t.ms(j) for j in ffts), steps),
        "spectral.fft_bytes_per_step": _per(sum(t.spans[j][4] for j in ffts), steps),
        "stepper.advance_self_ms": _per(
            sum(t.self_ms(i, {FFT, "stepper.energy"}) for i in advances), len(advances)
        ),
        "stepper.energy_calls_per_step": _per(len(energies), steps),
        "stepper.energy_ms_per_step": _per(sum(t.ms(j) for j in energies), steps),
        "stepper.init_state_ms": t.mean_ms("stepper.init_state"),
        "stepper.validate_ms": t.total_ms({"stepper.validate_records"}),
        "policies.steps": float(steps),
        "policies.landed_steps": float(landed),
        "policies.next_step_us": 1e3 * t.mean_ms("policies.next_step") if next_steps else 0.0,
        "policies.driver_self_ms_per_step": _per(sum(t.self_ms(i) for i in loops), steps),
        "policies.max_ratio_over_cap": max_ratio / ratio_cap,
        "scenarios.initial_field_ms": t.mean_ms("scenarios.initial_field"),
        "config.parse_ms": t.mean_ms("config.parse_config"),
        "recordio.rows_written": float(res.rows if res.records is not None else 0),
        "recordio.bytes_written": float(res.bytes_written),
        "recordio.write_ms": t.total_ms(set(RECORD_WRITE)),
        "recordio.snapshot_write_ms": t.total_ms({"recordio.write_snapshot"}),
        "recordio.read_ms": t.total_ms({"recordio.read_records"}),
        "recordio.snapshot_read_ms": t.total_ms({"recordio.read_snapshot"}),
        "timestep.rows": float(res.rows if res.records is None else 0),
        "timestep.doc_kernels_calls": float(len(t.named("timestep.doc_kernels"))),
        "timestep.doc_kernels_ms": t.total_ms({"timestep.doc_kernels"}),
        "timestep.dcc_kernels_ms": t.total_ms({"timestep.dcc_kernels"}),
        "timestep.kernel_residuals_ms": sum(t.self_ms(i) for i in t.named("timestep.kernel_residuals")),
        "timestep.quadratic_form_ms": sum(t.self_ms(i) for i in t.named("timestep.quadratic_form_check")),
        "timestep.max_residual": res.max_residual,
        "cli.kernels_self_ms": sum(t.self_ms(i) for i in t.named("cli.kernels")),
    }


def advance_durations(spans) -> list[float]:
    t = SpanTree(spans)
    return [t.ms(i) for i in t.named("stepper.advance")]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    v = sorted(values)
    return v[max(0, math.ceil(q / 100.0 * len(v)) - 1)]


def median(values) -> float:
    return statistics.median(values) if values else 0.0
