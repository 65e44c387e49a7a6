"""Tests for the record CSV and snapshot formats: bit-exact round trips and
rejection of malformed inputs."""

import contextlib
import io
import math
import struct
from dataclasses import astuple
from itertools import chain, pairwise, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import record_reference
from chsolver import (
    RECORD_FIELDS,
    Grid,
    RecordCheck,
    RecordWriter,
    Snapshot,
    SnapshotFormatError,
    StepRecord,
    read_record_blocks,
    read_records,
    read_snapshot,
    validate_records,
    write_records,
    write_snapshot,
)
from chsolver import recordio
from chsolver.cli import CONVERGENCE_ROW, RESIDUAL_ROW, kernel_rows, main
from chsolver.recordio import RECORD_ROW
from chsolver.stepper import record_values
from chsolver.timestep import LANDING_RTOL, a1_cap


def sample_records(count=12, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    t = 0.0
    for n in range(1, count + 1):
        tau = float(rng.uniform(1e-30, 1.0))
        t += tau
        out.append(
            StepRecord(
                n=n,
                t=t,
                tau=tau,
                gamma=float(rng.uniform(0.5, 1e20)),
                energy=float(rng.normal()),
                xi=float(rng.uniform()),
                eta=float(rng.uniform()),
                mass=float(rng.normal() * 1e-12),
                dissipation=float(rng.uniform()),
            )
        )
    return out


class TestRecords:
    def test_round_trip_is_bit_exact(self, tmp_path):
        records = sample_records()
        path = tmp_path / "records.csv"
        write_records(records, path)
        back = read_records(path)
        assert back == records

    def test_header_line(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records(sample_records(1), path)
        assert path.read_text().splitlines()[0] == "n,t,tau,gamma,energy,xi,eta,mass,dissipation"

    def test_writer_streams_incrementally(self, tmp_path):
        path = tmp_path / "records.csv"
        records = sample_records(3)
        with RecordWriter(path) as w:
            w.write(records[0])
            partial = path.read_text().splitlines()
            assert len(partial) == 2
            w.write(records[1])
            w.write(records[2])
        assert read_records(path) == records

    def test_format_uses_17_digits(self, tmp_path):
        rec = sample_records(1)[0]
        path = tmp_path / "records.csv"
        write_records([rec], path)
        line = path.read_text().splitlines()[1]
        assert line.split(",")[3] == format(rec.gamma, ".17g")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("n,t,gamma\n1,0.1,2.0\n")
        with pytest.raises(ValueError, match="header"):
            read_records(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records(sample_records(2), path)
        with open(path, "a") as fh:
            fh.write("3,0.5,0.1\n")
        with pytest.raises(ValueError, match="line 4"):
            read_records(path)

    @pytest.mark.parametrize("bad", ["abc", "2.5"])
    def test_unparseable_value_names_its_line(self, tmp_path, bad):
        path = tmp_path / "records.csv"
        write_records(sample_records(3), path)
        lines = path.read_text().splitlines()
        row = lines[2].split(",")
        row[0 if bad == "2.5" else 4] = bad  # a float step index, or a word for the energy
        lines[2] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^line 3: .*'{bad}'"):
            read_records(path)


# any float64: nan, +-inf, -0.0 and subnormals included
any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
record_rows = st.lists(st.lists(any_float, min_size=8, max_size=8), min_size=1, max_size=20)


def as_records(rows):
    return [StepRecord(n, *vals) for n, vals in enumerate(rows, start=1)]


def same_bits(a: float, b: float) -> bool:
    """Equal bit for bit; a nan only has to read back as a nan (its sign and
    payload are not printed)."""
    if math.isnan(a):
        return math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


class TestRecordProperties:
    @settings(max_examples=60, deadline=None)
    @given(rows=record_rows)
    def test_round_trip_on_any_float64(self, tmp_path_factory, rows):
        records = as_records(rows)
        path = tmp_path_factory.mktemp("records") / "records.csv"
        write_records(records, path)
        back = read_records(path)
        assert [r.n for r in back] == [r.n for r in records]
        for rec, got in zip(records, back):
            assert record_text([got]) == record_text([rec])
            for name in ("t", "tau", "gamma", "energy", "xi", "eta", "mass", "dissipation"):
                assert same_bits(getattr(rec, name), getattr(got, name))

    @settings(max_examples=60, deadline=None)
    @given(rows=record_rows)
    def test_nonfinite_verdict_names_exactly_the_nonfinite_rows(self, rows):
        records = as_records(rows)
        flagged = {
            int(p.split(":")[0].removeprefix("step "))
            for p in validate_records(records)
            if p.endswith(": nonfinite record values")
        }
        assert flagged == {n for n, vals in enumerate(rows, start=1) if not all(map(math.isfinite, vals))}


CAP = 4.8645  # the kissing_bubbles ratio cap, just above r_max


def outcome(fn, *args, **kwargs):
    """fn's result, or the type and text of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def bits(records):
    """The float fields of records, in RECORD_COLUMNS order, as raw bits."""
    return np.array([astuple(r)[1:] for r in records], dtype=np.float64).reshape(-1, 8).view(np.uint64)


@st.composite
def faulty_streams(draw):
    """(gamma0, mass0, records): a stream that keeps every guarantee (gamma
    falls by exactly its dissipation from gamma0, the mass is mass0, step
    ratios stay below CAP), with faults of every kind injected at drawn
    rows, the first one included: among them steps at or below zero, after
    which the next step is not held to the cap, clocks that stand still or
    go back, a first clock at or below 0, clocks moved ahead by 1 or by a
    few landing tolerances, and rows dropped, which leave a gap in n."""
    gamma0 = gamma = draw(st.floats(0.5, 10.0))
    mass0 = draw(st.floats(-1.0, 1.0))
    count = draw(st.integers(1, 12))
    rows, t, tau = [], 0.0, draw(st.floats(1e-6, 1e-2))
    for _ in range(count):
        tau *= draw(st.floats(0.2, 4.0))
        t += tau
        xi = draw(st.floats(0.5, 1.0))
        prev, gamma = gamma, gamma * draw(st.floats(0.5, 1.0))
        rows.append([t, tau, gamma, gamma - 1.0, xi, xi * (2.0 - xi), mass0, prev - gamma])
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, count - 1))
        row = rows[i]
        kinds = ["nonfinite", "tau", "gamma", "xi", "eta", "clock", "shift", "increase", "identity", "mass", "ratio", "any"]
        kind = draw(st.sampled_from(kinds))
        if kind == "nonfinite":
            row[draw(st.integers(0, 7))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        elif kind in ("tau", "gamma", "xi", "eta"):
            column = {"tau": 1, "gamma": 2, "xi": 4, "eta": 5}[kind]
            row[column] = draw(st.sampled_from([0.0, -0.0]) | st.floats(max_value=0.0))
        elif kind == "clock":
            # at or before the previous row's t, or just after it
            back = draw(st.sampled_from([0.0, 1.0]) | st.floats(-1.0, 2.0))
            row[0] = rows[max(i - 1, 0)][0] - back * row[1]
            if i == 0:
                row[0] = draw(st.sampled_from([0.0, -1.0, row[0]]))
        elif kind == "shift":
            row[0] += draw(st.just(1.0) | st.floats(-4.0, 4.0).map(lambda k: k * LANDING_RTOL * t))
        elif kind == "increase":
            row[2] *= draw(st.floats(1.0, 4.0))
        elif kind == "identity":
            row[7] *= draw(st.floats(0.0, 2.0))
        elif kind == "mass":
            row[6] += draw(st.floats(-1e-8, 1e-8))
        elif kind == "ratio":
            row[1] *= draw(st.floats(CAP / 4.0, 4.0 * CAP))
        else:
            row[draw(st.integers(0, 7))] = draw(any_float)
    records = as_records(rows)
    for _ in range(draw(st.integers(0, 2))):
        if len(records) > 1:
            del records[draw(st.integers(0, len(records) - 1))]
    return gamma0, mass0, records


@st.composite
def record_texts(draw):
    """A records CSV as text: rows of any float64, written as write_records
    writes them, then blank and padded lines, CRLF line ends, a missing final
    newline, a bad header, and rows with a foreign token, a field too many
    or too few."""
    lines = record_text(as_records(draw(record_rows))).splitlines()
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["blank", "pad", "token", "short", "long"]))
        if kind == "blank":
            lines.insert(i, draw(st.sampled_from(["", "  ", "\t"])))
        elif kind == "pad":
            lines[i] = f" {lines[i]} \t"
        elif kind == "token":
            parts = lines[i].split(",")
            token = draw(st.sampled_from(["abc", "1.5", "", " ", "1e999", "-nan", "1_0", "0x10", "Infinity"]))
            parts[draw(st.integers(0, len(parts) - 1))] = token
            lines[i] = ",".join(parts)
        elif kind == "short":
            lines[i] = lines[i].rsplit(",", 1)[0]
        else:
            lines[i] += ",1"
    header = draw(st.sampled_from([",".join(RECORD_FIELDS)] * 4 + ["n,t,gamma", ""]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join([header, *lines]) + draw(st.sampled_from([newline, ""]))


class TestRowFold:
    """The block parse and the row fold against the per-row reference in
    record_reference.py."""

    @pytest.mark.parametrize("anchors", list(product((False, True), repeat=4)), ids=str)
    @settings(max_examples=40, deadline=None)
    @given(stream=faulty_streams(), data=st.data())
    def test_validator_matches_the_reference(self, anchors, stream, data):
        gamma0, mass0, records = stream
        true = {"gamma0": gamma0, "mass0": mass0, "volume": 4.0 * math.pi**2, "ratio_cap": CAP}
        kwargs = {
            name: data.draw(st.just(value) | any_float, label=name)
            for (name, value), given_ in zip(true.items(), anchors)
            if given_
        }
        want = outcome(record_reference.validate_records, records, **kwargs)
        assert outcome(validate_records, records, **kwargs) == want

    @settings(max_examples=100, deadline=None)
    @given(stream=faulty_streams(), cuts=st.lists(st.integers(0, 12), max_size=4), data=st.data())
    def test_fold_in_any_blocks_matches_one_call(self, stream, cuts, data):
        # the anchors given or left to the first finite row, as check --records leaves them
        gamma0, mass0, records = stream
        kwargs = {"ratio_cap": CAP}
        if data.draw(st.booleans(), label="anchored"):
            kwargs.update(gamma0=gamma0, mass0=mass0, volume=4.0 * math.pi**2)
        want = record_reference.validate_records(records, **kwargs)
        assert validate_records(records, **kwargs) == want
        steps = [rec.n for rec in records]
        rows = list(map(record_values, records))
        finite_t = [row[0] for row in rows if all(map(math.isfinite, row))]

        def fed(bounds):
            check = RecordCheck(LANDING_RTOL * max([0.0] + finite_t), **kwargs)
            for a, b in pairwise(bounds):
                check.feed(steps[a:b], rows[a:b])
            assert check.rows == len(records)
            return check.result()

        assert fed([0, *sorted(c for c in cuts if c < len(records)), len(records)]) == want
        assert fed(range(len(records) + 1)) == want  # one row a block

    @settings(max_examples=40, deadline=None)
    @given(stream=faulty_streams(), size=st.integers(1, 2000))
    def test_check_records_matches_the_reference(self, tmp_path_factory, stream, size):
        # check --records holds the clock to landing_tol of the config's
        # horizon, here the stream's largest finite t, and the fixed step's cap;
        # the step is the horizon, which no horizon puts within landing_tol
        _, _, records = stream
        last = max([0.0] + [r.t for r in records if all(map(math.isfinite, astuple(r)[1:]))])
        assume(last > 0.0)
        tmp = tmp_path_factory.mktemp("check")
        path, cfg = tmp / "records.csv", tmp / "check.cfg"
        write_records(records, path)
        cfg.write_text(f"scenario = equilibrium\nn = 8\nhorizon = {last!r}\n[policy]\ntau = {last!r}\n")
        want = record_reference.validate_records(records, ratio_cap=a1_cap())
        assert validate_records(records, ratio_cap=a1_cap()) == want
        err = io.StringIO()
        with mock.patch.object(recordio, "RECORD_BLOCK_CHARS", size), contextlib.redirect_stderr(err):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["check", str(cfg), "--records", str(path)])
        assert code == (1 if want else 0)
        summary = [f"check failed: {len(want)} violation(s) over {len(records)} steps"] if want else []
        assert err.getvalue().splitlines() == want + summary

    def test_anchors_skip_a_nonfinite_first_row(self):
        # t, tau, gamma, energy, xi, eta, mass, dissipation: tests/test_cli.py's
        # check --records case, on validate_records and the reference
        rows = [
            [0.01, 0.01, math.nan, 1.0, 1.0, 1.0, 0.25, 0.0],
            [0.02, 0.01, 2.0, 1.0, 1.0, 1.0, 0.5, 0.0],
            [0.03, 0.01, 9.0, 1.0, 1.0, 1.0, 0.5, -7.0],
        ]
        want = ["step 1: nonfinite record values", "step 3: gamma increased from 2.0 to 9.0"]
        assert record_reference.validate_records(as_records(rows), ratio_cap=CAP) == want
        assert validate_records(as_records(rows), ratio_cap=CAP) == want

    @settings(max_examples=150, deadline=None)
    @given(text=record_texts(), data=st.data())
    def test_parse_matches_the_reference(self, tmp_path_factory, text, data):
        # blocks of one line up to the whole file, parsed and fed to the fold as check --records feeds it
        path = tmp_path_factory.mktemp("records") / "records.csv"
        path.write_bytes(text.encode("utf-8"))
        want = outcome(record_reference.read_records, path)
        finite_t = [r.t for r in want if all(map(math.isfinite, astuple(r)[1:]))] if isinstance(want, list) else []
        check = RecordCheck(LANDING_RTOL * max([0.0] + finite_t), ratio_cap=CAP)

        def parse():
            blocks = []
            for steps, rows in read_record_blocks(path):
                blocks.append((steps, list(rows)))
                check.feed(*blocks[-1])
            return blocks

        with mock.patch.object(recordio, "RECORD_BLOCK_CHARS", data.draw(st.integers(1, len(text) + 1))):
            blocks = outcome(parse)
            read = outcome(read_records, path)
        if not isinstance(want, list):
            assert blocks == read == want
            return
        assert [n for steps, _ in blocks for n in steps] == [r.n for r in read] == [r.n for r in want]
        values = [value for _, rows in blocks for row in rows for value in row]
        assert np.array_equal(np.array(values, dtype=np.float64).view(np.uint64).reshape(-1, 8), bits(want))
        assert np.array_equal(bits(read), bits(want))
        assert record_text(read) == record_text(want)
        assert check.result() == record_reference.validate_records(want, ratio_cap=CAP)


HEADER = ",".join(RECORD_FIELDS) + "\n"


def row(n, n_text=None, energy="0.5"):
    return f"{n_text or n},0.1,0.01,2,{energy},1,1,0,0\n"


class TestRowErrors:
    """Each malformed stream raises the per-row reader's exact error, with
    the line number counted over every line, blank ones included."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n,t,gamma\n1,0.1,2.0\n", "unexpected record header 'n,t,gamma'"),
            (HEADER + row(1) + "2,0.5,0.1\n" + row(3), "line 3: expected 9 fields"),
            (HEADER + row(1) + row(2, n_text="1.5"), "line 3: invalid literal for int() with base 10: '1.5'"),
            (HEADER + row(1, energy="abc"), "line 2: could not convert string to float: 'abc'"),
            (
                HEADER + "\n" + row(1) + "  \n\n" + row(2, energy="abc"),
                "line 6: could not convert string to float: 'abc'",
            ),
            (HEADER + row(1) + row(2)[:-1] + ",7", "line 3: expected 9 fields"),
        ],
        ids=["header", "field-count", "float-n", "word", "blank-lines", "no-final-newline"],
    )
    def test_error_names_the_line(self, tmp_path, text, message):
        path = tmp_path / "records.csv"
        path.write_text(text)
        assert outcome(record_reference.read_records, path) == (ValueError, message)
        for size in (1, 40, len(text)):  # one line a block, and the whole file in one
            with mock.patch.object(recordio, "RECORD_BLOCK_CHARS", size):
                assert outcome(list, read_record_blocks(path)) == (ValueError, message)
                assert outcome(read_records, path) == (ValueError, message)

    @pytest.mark.parametrize(
        "text",
        [HEADER + "\n" + row(1) + "  \n\n" + row(2) + "\n", HEADER + row(1) + row(2)[:-1]],
        ids=["blank-lines", "no-final-newline"],
    )
    def test_blank_lines_and_last_line_parse(self, tmp_path, text):
        path = tmp_path / "records.csv"
        path.write_text(text)
        assert read_records(path) == record_reference.read_records(path)
        assert [n for steps, _ in read_record_blocks(path) for n in steps] == [1, 2]


def per_value_rows(rows, ints):
    """The rows as text, the first ints values of each by str and every
    other by format(x, ".17g")."""
    lines = (",".join([str(v) for v in row[:ints]] + [format(v, ".17g") for v in row[ints:]]) for row in rows)
    return "".join(line + "\n" for line in lines)


def by_template(template, rows):
    return template * len(rows) % tuple(chain.from_iterable(rows))


def record_text(records):
    """The records' rows as write_records writes them, without the header."""
    return by_template(RECORD_ROW, [astuple(r) for r in records])


class TestRowTemplates:
    """A block of rows formatted by one % template, or by kernels.csv's
    row-block writer, is byte for byte the per-value .17g text, for every
    float64."""

    @settings(max_examples=60, deadline=None)
    @given(rows=record_rows)
    def test_record_rows(self, tmp_path_factory, rows):
        records = as_records(rows)
        want = per_value_rows([[r.n, *vals] for r, vals in zip(records, rows)], ints=1)
        assert record_text(records) == want
        path = tmp_path_factory.mktemp("records") / "records.csv"
        with RecordWriter(path) as w:
            w.write(records[0])
            w.write_block(records[1:])
        assert path.read_text() == ",".join(RECORD_FIELDS) + "\n" + want

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(st.tuples(any_float, any_float), min_size=1, max_size=40),
        spare=st.integers(0, 10),
    )
    def test_kernel_rows(self, pairs, spare):
        # kernels.csv's writer on row n of matrices with more rows than n:
        # line m of row n holds column n - 1 - m
        n = len(pairs)
        theta, p = np.zeros((2, n + spare, n + spare))
        theta[n - 1, n - 1 :: -1], p[n - 1, n - 1 :: -1] = np.array(pairs).T
        text = []
        kernel_rows(theta, p)(range(n, n + 1), text.append)
        rows = [(n, m, a, b) for m, (a, b) in enumerate(pairs)]
        assert "".join(text) == per_value_rows(rows, ints=2)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.lists(any_float, min_size=5, max_size=5), min_size=1, max_size=20))
    def test_residual_rows(self, rows):
        rows = [(n, *vals) for n, vals in enumerate(rows, start=1)]
        assert by_template(RESIDUAL_ROW, rows) == per_value_rows(rows, ints=1)

    @settings(max_examples=30, deadline=None)
    @given(rows=st.lists(st.lists(any_float, min_size=7, max_size=7), min_size=1, max_size=8))
    def test_convergence_rows(self, rows):
        rows = [(2**k, *vals) for k, vals in enumerate(rows, start=4)]
        assert by_template(CONVERGENCE_ROW, rows) == per_value_rows(rows, ints=1)


class TestSnapshots:
    def test_round_trip_is_bit_exact(self, tmp_path):
        grid = Grid(2, 2.0 * np.pi, 16)
        rng = np.random.default_rng(1)
        values = rng.normal(size=grid.shape)
        path = tmp_path / "snap.bin"
        write_snapshot(grid, values, path, time=0.625)
        snap = read_snapshot(path)
        assert isinstance(snap, Snapshot)
        assert (snap.dim, snap.modes, snap.time) == (2, 16, 0.625)
        assert snap.length == grid.length
        assert np.array_equal(snap.values, values)
        assert np.array_equal(snap.as_field().physical, values)

    def test_3d_round_trip(self, tmp_path):
        grid = Grid(3, 1.0, 4)
        rng = np.random.default_rng(2)
        values = rng.normal(size=grid.shape)
        path = tmp_path / "snap.bin"
        write_snapshot(grid, values, path, time=0.0)
        assert np.array_equal(read_snapshot(path).values, values)

    def test_values_of_another_shape_rejected(self, tmp_path):
        path = tmp_path / "snap.bin"
        with pytest.raises(ValueError, match="do not match grid"):
            write_snapshot(Grid(2, 1.0, 8), np.ones((8, 4)), path, time=0.0)
        assert not path.exists()

    def test_header_is_single_ascii_line(self, tmp_path):
        grid = Grid(2, 2.0 * np.pi, 8)
        path = tmp_path / "snap.bin"
        write_snapshot(grid, np.ones(grid.shape), path, time=2.0)
        header = path.read_bytes().split(b"\n", 1)[0].decode("ascii")
        assert header.startswith("CHSNAP v1 dim=2 N=8 ")
        assert "t=2" in header

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "snap.bin"
        path.write_bytes(b"NOTSNAP v1 dim=2 N=4 L=1 t=0\n" + b"\0" * 128)
        with pytest.raises(SnapshotFormatError, match="magic"):
            read_snapshot(path)

    def test_truncated_payload(self, tmp_path):
        grid = Grid(2, 2.0 * np.pi, 8)
        path = tmp_path / "snap.bin"
        write_snapshot(grid, np.ones(grid.shape), path, time=0.0)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(SnapshotFormatError, match="expected"):
            read_snapshot(path)

    def test_trailing_garbage(self, tmp_path):
        grid = Grid(2, 2.0 * np.pi, 8)
        path = tmp_path / "snap.bin"
        write_snapshot(grid, np.ones(grid.shape), path, time=0.0)
        with open(path, "ab") as fh:
            fh.write(b"extra")
        with pytest.raises(SnapshotFormatError, match="expected"):
            read_snapshot(path)

    def test_mangled_header_fields(self, tmp_path):
        path = tmp_path / "snap.bin"
        path.write_bytes(b"CHSNAP v1 dim=two N=4 L=1 t=0\n" + b"\0" * 128)
        with pytest.raises(SnapshotFormatError, match="header"):
            read_snapshot(path)

    def test_non_ascii_header(self, tmp_path):
        path = tmp_path / "snap.bin"
        path.write_bytes(b"\xff\xfe junk\n" + b"\0" * 16)
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    @pytest.mark.parametrize(
        "header, payload_bytes",
        [
            ("dim=2 N=0 L=1 t=0", 0),
            ("dim=1 N=4 L=1 t=0", 32),
            ("dim=2 N=4 L=nan t=inf", 128),
            ("dim=2 N=5 L=-1 t=0", 200),
        ],
        ids=["empty-grid", "dim-1", "nonfinite-L-t", "odd-N-negative-L"],
    )
    def test_header_no_grid_can_hold(self, tmp_path, header, payload_bytes):
        path = tmp_path / "snap.bin"
        path.write_bytes(f"CHSNAP v1 {header}\n".encode("ascii") + b"\0" * payload_bytes)
        with pytest.raises(SnapshotFormatError, match="header"):
            read_snapshot(path)

    def test_header_without_newline(self, tmp_path):
        path = tmp_path / "snap.bin"
        path.write_bytes(b"CHSNAP v1 dim=2 N=4 L=1 t=0" + b"0" * 4096)
        with pytest.raises(SnapshotFormatError, match="header"):
            read_snapshot(path)

    def test_huge_header_fails_before_allocating(self, tmp_path):
        # 2^60 values would be 8 EiB: the size check must come first
        path = tmp_path / "snap.bin"
        path.write_bytes(b"CHSNAP v1 dim=3 N=1048576 L=1 t=0\n" + b"\0" * 128)
        with pytest.raises(SnapshotFormatError, match="expected"):
            read_snapshot(path)

    def test_values_own_a_writeable_contiguous_array(self, tmp_path):
        grid = Grid(3, 1.0, 8)
        path = tmp_path / "snap.bin"
        write_snapshot(grid, np.full(grid.shape, 0.5), path, time=0.0)
        values = read_snapshot(path).values
        assert values.flags.c_contiguous and values.flags.writeable
        assert values.dtype == np.dtype("<f8")
        assert values.base is None
        assert values.shape == grid.shape
