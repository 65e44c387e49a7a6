"""On-disk formats: step-record CSV and raw field snapshots.

Records: header ``n,t,tau,gamma,energy,xi,eta,mass,dissipation``, one row
per step, floats printed with 17 significant digits so parsing them back
is bit-exact.

Snapshots: one ASCII header line

    CHSNAP v1 dim=<d> N=<modes> L=<length> t=<time>\\n

followed by exactly N^dim little-endian IEEE-754 float64 values in
row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Grid, SpectralField
from .stepper import StepRecord

RECORD_FIELDS = ("n", "t", "tau", "gamma", "energy", "xi", "eta", "mass", "dissipation")
SNAPSHOT_MAGIC = "CHSNAP"
SNAPSHOT_VERSION = "v1"


class SnapshotFormatError(ValueError):
    """Snapshot bytes do not match the declared header."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def format_record(record: StepRecord) -> str:
    vals = [str(record.n)] + [_fmt(getattr(record, f)) for f in RECORD_FIELDS[1:]]
    return ",".join(vals)


class RecordWriter:
    """Streams records to a CSV file, one appended row per step."""

    def __init__(self, path):
        self._fh = open(path, "w", encoding="utf-8")
        self._fh.write(",".join(RECORD_FIELDS) + "\n")
        self._fh.flush()

    def write(self, record: StepRecord) -> None:
        self._fh.write(format_record(record) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def write_records(records, path) -> None:
    with RecordWriter(path) as w:
        for rec in records:
            w.write(rec)


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
                out.append(StepRecord(int(parts[0]), *(float(p) for p in parts[1:])))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    return out


@dataclass(frozen=True)
class Snapshot:
    dim: int
    modes: int
    length: float
    time: float
    values: np.ndarray

    def as_field(self) -> SpectralField:
        return SpectralField(Grid(self.dim, self.length, self.modes), physical=self.values)


def write_snapshot(field: SpectralField, path, time: float) -> None:
    g = field.grid
    header = (
        f"{SNAPSHOT_MAGIC} {SNAPSHOT_VERSION} dim={g.dim} N={g.modes} "
        f"L={_fmt(g.length)} t={_fmt(time)}\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(field.physical, dtype="<f8").data)


def read_snapshot(path) -> Snapshot:
    with open(path, "rb") as fh:
        header = fh.readline()
        payload = fh.read()
    try:
        text = header.decode("ascii").strip()
    except UnicodeDecodeError:
        raise SnapshotFormatError("header is not ASCII") from None
    parts = text.split()
    if len(parts) != 6 or parts[0] != SNAPSHOT_MAGIC or parts[1] != SNAPSHOT_VERSION:
        raise SnapshotFormatError(f"bad magic line {text!r}")
    fields = {}
    for part in parts[2:]:
        if "=" not in part:
            raise SnapshotFormatError(f"bad header token {part!r}")
        key, val = part.split("=", 1)
        fields[key] = val
    try:
        dim = int(fields["dim"])
        modes = int(fields["N"])
        length = float(fields["L"])
        time = float(fields["t"])
    except (KeyError, ValueError):
        raise SnapshotFormatError(f"bad header fields in {text!r}") from None
    expected = modes**dim * 8
    if len(payload) != expected:
        raise SnapshotFormatError(f"payload is {len(payload)} bytes, expected {expected}")
    values = np.frombuffer(payload, dtype="<f8").reshape((modes,) * dim)
    return Snapshot(dim=dim, modes=modes, length=length, time=time, values=values.copy())
