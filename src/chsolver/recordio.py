"""On-disk formats: step-record CSV and raw field snapshots.

Records: header ``n,t,tau,gamma,energy,xi,eta,mass,dissipation``, one row
per step, appended a block at a time by ``RecordWriter.write``, with
floats printed to 17 significant digits so parsing them back is
bit-exact.  ``read_record_blocks`` parses them without numpy, block by
block, into the rows ``stepper.RecordCheck`` folds over.

Snapshots: one ASCII header line

    CHSNAP v1 dim=<d> N=<modes> L=<length> t=<time>\\n

followed by exactly N^dim little-endian IEEE-754 float64 values in
row-major order.

``read_snapshot`` works in three stages, so a bad file fails before any
payload memory is taken: it parses the header and checks that a ``Grid``
can hold it (dim 2 or 3, N even and >= 4, L positive and finite) and that
t is finite; it compares the payload size from ``os.fstat`` with
N^dim * 8; then it reads the payload once, straight into the array it
returns.
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass
from itertools import chain, repeat
from operator import attrgetter

import numpy as np

from .spectral import Grid, SpectralField
from .stepper import RECORD_COLUMNS, StepRecord

RECORD_FIELDS = ("n", *RECORD_COLUMNS)
# one row as a % template ('%.17g' % x is format(x, '.17g')) and the values it takes
RECORD_ROW = "%d" + ",%.17g" * (len(RECORD_FIELDS) - 1) + "\n"
_record_values = attrgetter(*RECORD_FIELDS)
# read_record_blocks parses records.csv this many characters at a time (and
# the rest of the last line), about 6,000 rows of a run's records, so
# check --records holds one block of the file at once
RECORD_BLOCK_CHARS = 1 << 20
SNAPSHOT_MAGIC = "CHSNAP"
SNAPSHOT_VERSION = "v1"


class SnapshotFormatError(ValueError):
    """Snapshot bytes do not match the declared header."""


class RecordWriter:
    """Streams records to a CSV file; each write appends one block of rows and flushes."""

    def __init__(self, path):
        self._fh = open(path, "w", encoding="utf-8")
        self._fh.write(",".join(RECORD_FIELDS) + "\n")
        self._fh.flush()

    def write(self, records) -> None:
        values = tuple(chain.from_iterable(map(_record_values, records)))
        self._fh.write(RECORD_ROW * (len(values) // len(RECORD_FIELDS)) % values)
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def write_records(records, path) -> None:
    writer = RecordWriter(path)
    try:
        writer.write(records)
    finally:
        writer.close()


def read_record_blocks(path):
    """The rows of the records CSV at path, as (n list, rows) per block of
    about RECORD_BLOCK_CHARS characters of whole lines: n by ``int``, rows
    an iterator of tuples of the RECORD_COLUMNS values, each by ``float``,
    as the StepRecord fields would be, with blank lines skipped.  A
    malformed row raises ValueError ("line N: ...", N counted over the
    whole file) for the first such line of the file, when its block is
    read."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header.split(",") != list(RECORD_FIELDS):
            raise ValueError(f"unexpected record header {header!r}")
        lineno = 2
        while text := fh.read(RECORD_BLOCK_CHARS):
            lines = (text + fh.readline()).split("\n")  # whole lines: the rest of the last one
            n, values = _parse_block(lines, lineno)
            yield n, zip(*[iter(values)] * len(RECORD_COLUMNS))
            lineno += len(lines) - 1


def _parse_block(lines, lineno) -> tuple[list[int], array]:
    """The n of the rows among lines, the file's lines from line lineno on,
    and their other values, row after row."""
    width = len(RECORD_FIELDS)
    rows = [line for line in map(str.strip, lines) if line]
    if set(map(str.count, rows, repeat(","))) <= {width - 1}:  # every row has width fields
        fields = ",".join(rows).split(",") if rows else []
        try:
            n = list(map(int, fields[::width]))
            del fields[::width]
            return n, array("d", list(map(float, fields)))
        except ValueError:
            pass
    raise _row_error(lines, lineno)


def _row_error(lines, lineno) -> ValueError:
    """The error of the first malformed row of lines, the file's lines from
    line lineno on."""
    width = len(RECORD_FIELDS)
    for lineno, line in enumerate(lines, start=lineno):
        parts = line.strip().split(",")
        if parts == [""]:
            continue
        if len(parts) != width:
            return ValueError(f"line {lineno}: expected {width} fields")
        try:
            int(parts[0])
            list(map(float, parts[1:]))
        except ValueError as exc:
            return ValueError(f"line {lineno}: {exc}")
    raise AssertionError("no malformed row")


def read_records(path) -> list[StepRecord]:
    return [StepRecord(n, *row) for steps, rows in read_record_blocks(path) for n, row in zip(steps, rows)]


@dataclass(frozen=True)
class Snapshot:
    dim: int
    modes: int
    length: float
    time: float
    values: np.ndarray

    def as_field(self) -> SpectralField:
        return SpectralField(Grid(self.dim, self.length, self.modes), physical=self.values)


def write_snapshot(grid: Grid, values: np.ndarray, path, time: float) -> None:
    """Write the grid values of a field on grid, at time, to path."""
    if values.shape != grid.shape:
        raise ValueError(f"values of shape {values.shape} do not match grid {grid.shape}")
    header = (
        f"{SNAPSHOT_MAGIC} {SNAPSHOT_VERSION} dim={grid.dim} N={grid.modes} "
        f"L={float(grid.length):.17g} t={float(time):.17g}\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(values, dtype="<f8").data)


def _parse_header(line: bytes) -> tuple[int, int, float, float]:
    if not line.endswith(b"\n"):
        raise SnapshotFormatError(f"header line not terminated within {len(line)} bytes")
    try:
        text = line.decode("ascii").strip()
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
    try:
        Grid(dim, length, modes)
    except ValueError as exc:
        raise SnapshotFormatError(f"header {text!r}: {exc}") from None
    if not math.isfinite(time):
        raise SnapshotFormatError(f"header {text!r}: t must be finite")
    return dim, modes, length, time


def read_snapshot(path) -> Snapshot:
    with open(path, "rb") as fh:
        # a valid header is under 100 bytes; the cap keeps a file with no
        # newline from being read whole
        dim, modes, length, time = _parse_header(fh.readline(256))
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        expected = modes**dim * 8
        if size != expected:
            raise SnapshotFormatError(f"payload is {size} bytes, expected {expected}")
        values = np.empty((modes,) * dim, dtype="<f8")
        got = fh.readinto(memoryview(values).cast("B"))
    if got != expected:
        raise SnapshotFormatError(f"payload read {got} bytes, expected {expected}")
    return Snapshot(dim=dim, modes=modes, length=length, time=time, values=values)
