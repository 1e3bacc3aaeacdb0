"""The two CSV readers behind `load_pack_csv`: the bulk column reader must
give exactly the per-cell reader's months and values or refuse the file, and
every error `load_pack_csv` raises is the per-cell reader's, with its line."""

import csv
import os
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from packpredict import DatasetSpec, load_pack_csv
from packpredict import harness

NUMERIC = ("price", "m1", "m2", "ord")

# Cells float() reads as written; cells both readers take (padding, quotes,
# odd spellings); cells only float() takes (underscores, non-ASCII digits, a
# quoted newline); cells the per-cell reader rejects.
CLEAN = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
)
TIDY = st.sampled_from([
    " 0.5", "0.5 ", "\t0.5\t", '"0.5"', '" 0.5 "', '"0.5" ', '"-2"', "3.",
    ".75", "+4", "-0", "1E+2", "\xa00.5", "\x850.5", "0.5\x0b",
])
FLOAT_ONLY = st.sampled_from(["1_000", "0_9", "١٢", "１２", '"0.5\n"',
                              '"1\r\n"'])
BAD = st.sampled_from([
    "", " ", '""', "nan", "NaN", "-inf", "Infinity", "1e500", "-1e500",
    "0x1p3", "0x10", "1d5", "0.5\x1c", "\x1f0.5", "0.5x", '"0.5"x', '0."5"',
    '0.5"', "0.5\x00", '"1,5"', "1.5j", "١٢x", '"',
])
# The bulk reader keeps a stamp's first 16 characters as bytes and strips
# only ASCII whitespace: a longer stamp, a prefix padded past 16, Unicode
# padding and a non-ASCII tail each test where that differs from
# `str.strip()`.
GOOD_STAMPS = [
    "2006-01", "2006-02-15", " 2006-03 ", '"2006-01"', "2006-12T00:00",
    "\t2006-04", "1999-11", "2006-05\x00", "\x1c2006-06",
    "2006-01-05T00:00:00+00:00", " " * 12 + "2006-07", "\u20032006-08",
    "\xa02006-09", "2006-10-é",
]
BAD_STAMPS = [
    '"2006-02\n"', "2006-00", "2006-13", "2006-1", "January", "",
    "# 2006-01", "٢٠٠٦-01", "2006/01", "2006-1-05",
]
GOOD_MONTHS = st.sampled_from(GOOD_STAMPS)
BAD_MONTHS = st.sampled_from(BAD_STAMPS)
STRAY_LINES = st.sampled_from([" ", "\t", "# note", '""', ",,,,"])


@st.composite
def csv_files(draw):
    """CSV text: a shuffled header (maybe with a duplicate name, whose last
    column counts), rows of cells, blank lines and one line ending.  Half
    of the files are tidy throughout; the other half also get cells,
    months, stray lines and short rows that the bulk reader refuses."""
    names = draw(st.permutations(["month", "price", "m1", "m2", "ord"]))
    if draw(st.booleans()):
        names = [*names, draw(st.sampled_from(NUMERIC))]
    flawed = draw(st.booleans())
    months = st.one_of(GOOD_MONTHS, BAD_MONTHS) if flawed else GOOD_MONTHS
    cells = st.integers(0, 9).flatmap(
        lambda k: (CLEAN, CLEAN, CLEAN, CLEAN, TIDY, TIDY,
                   FLOAT_ONLY if flawed else CLEAN,
                   BAD if flawed else TIDY, CLEAN, CLEAN)[k])
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 7))
        if kind == 0:
            lines.append(draw(STRAY_LINES) if flawed else "")
            continue
        row = [draw(months) if name == "month" else draw(cells)
               for name in names]
        if kind == 1:
            row += ["x"] * draw(st.integers(1, 2))  # a long row
        elif kind == 2 and flawed:
            row = row[:-draw(st.integers(1, 2))]  # a short row
        lines.append(",".join(row))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def _spec(path, order: bool):
    return DatasetSpec(path=str(path), timestamp_col="month",
                       target_col="price", expert_cols=("m1", "m2"),
                       order_col="ord" if order else None,
                       clip_lower=-1.0, clip_upper=1.0)


def _columns(spec):
    extra = [spec.order_col] if spec.order_col is not None else []
    return [spec.timestamp_col, spec.target_col, *spec.expert_cols, *extra]


def _read(path, columns, bulk: bool):
    """Run one reader as `load_pack_csv` does: after the header."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), [])
        if bulk:
            return harness._read_columns(fh, header, columns)
        fh.seek(0)
        return harness._read_cells(fh, columns)


def _outcome(read, *catch):
    try:
        return read()
    except catch as e:
        return e


@settings(derandomize=True, deadline=None, max_examples=400,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_files(), order=st.booleans())
def test_bulk_reader_matches_cell_reader(tmp_path, text, order):
    path = tmp_path / "data.csv"
    path.write_text(text, newline="")
    spec = _spec(path, order)
    columns = _columns(spec)
    cells = _outcome(lambda: _read(path, columns, bulk=False), Exception)
    bulk = _outcome(lambda: _read(path, columns, bulk=True), ValueError,
                    Warning)
    if not isinstance(bulk, Exception):
        event("bulk reader accepted the file")
        assert not isinstance(cells, Exception), cells
        np.testing.assert_array_equal(bulk[0], cells[0])
        assert bulk[1].shape == cells[1].shape
        assert bulk[1].tobytes() == cells[1].tobytes()
    if isinstance(cells, Exception):
        with pytest.raises(type(cells)) as raised:
            load_pack_csv(spec)
        assert str(raised.value) == str(cells)


@pytest.mark.parametrize("stamp", GOOD_STAMPS + BAD_STAMPS)
def test_each_stamp_alone(tmp_path, stamp):
    # The stamp is the file's one oddity, so only the month decoders decide
    # whether the bulk reader takes it.
    path = tmp_path / "data.csv"
    path.write_text(f"month,price,m1\n2006-05,0.5,0.25\n{stamp},0.75,0.5\n",
                    newline="")
    columns = ["month", "price", "m1"]
    cells = _outcome(lambda: _read(path, columns, bulk=False), Exception)
    bulk = _outcome(lambda: _read(path, columns, bulk=True), ValueError,
                    Warning)
    if isinstance(bulk, Exception):
        return
    assert not isinstance(cells, Exception), cells
    assert bulk[0].tolist() == cells[0].tolist()
    assert bulk[1].tobytes() == cells[1].tobytes()


def _write(path, header, rows, newline="\n"):
    path.write_text(newline.join([header, *rows]) + newline, newline="")


class TestBulkReader:
    def test_reads_quoted_padded_crlf_and_blank_lines(self, tmp_path):
        path = tmp_path / "data.csv"
        _write(path, "month,price,m1,m2",
               ['"2006-02-03", 0.5 ,"0.25",\t-0\t', "", "2006-01,1e-3,.5,+4,x",
                ' 2006-01 ,"0.5" ,3.,0'], newline="\r\n")
        month, values = _read(path, ["month", "price", "m1", "m2"], bulk=True)
        assert month.tolist() == [1, 0, 0]
        assert values.tolist() == [[0.5, 0.25, -0.0], [1e-3, 0.5, 4.0],
                                   [0.5, 3.0, 0.0]]

    def test_duplicate_header_takes_last_column(self, tmp_path):
        path = tmp_path / "data.csv"
        _write(path, "month,price,m1,price", ["2006-01,0.1,0.2,0.3"])
        for bulk in (True, False):
            _, values = _read(path, ["month", "price", "m1"], bulk=bulk)
            assert values.tolist() == [[0.3, 0.2]]

    @pytest.mark.parametrize("cell", ["1_000", "١٢", '"0.5\n"'])
    def test_leaves_float_only_cells_to_the_cell_reader(self, tmp_path, cell):
        path = tmp_path / "data.csv"
        _write(path, "month,price,m1", [f"2006-01,{cell},0.5"])
        with pytest.raises(ValueError):
            _read(path, ["month", "price", "m1"], bulk=True)
        stream, _ = load_pack_csv(DatasetSpec(
            path=str(path), timestamp_col="month", target_col="price",
            expert_cols=("m1",), clip_lower=-1e4, clip_upper=1e4))
        assert stream[0].outcomes.tolist() == [float(cell.strip('"'))]

    def test_refuses_a_field_the_csv_module_would_refuse(self, tmp_path):
        path = tmp_path / "data.csv"
        pad = " " * (csv.field_size_limit() + 1)
        _write(path, "month,price,m1", [f"2006-01,0.5{pad},0.5"])
        with pytest.raises(ValueError, match="too long"):
            _read(path, ["month", "price", "m1"], bulk=True)
        with pytest.raises(csv.Error, match="field limit"):
            load_pack_csv(DatasetSpec(
                path=str(path), timestamp_col="month", target_col="price",
                expert_cols=("m1",), clip_lower=0.0, clip_upper=1.0))


class TestLineNumbers:
    SPEC = dict(timestamp_col="month", target_col="price", expert_cols=("m1",),
                clip_lower=0.0, clip_upper=1.0)

    def test_bad_cell_after_the_first_bulk_chunk(self, tmp_path):
        rows = [f"2006-{i % 12 + 1:02d},0.5,0.25" for i in range(60_000)]
        rows[-1] = "2006-01,0.5,oops"
        path = tmp_path / "big.csv"
        _write(path, "month,price,m1", rows)
        with pytest.raises(ValueError, match="line 60001: .*'m1'"):
            load_pack_csv(DatasetSpec(path=str(path), **self.SPEC))

    def test_counts_the_lines_of_a_quoted_newline(self, tmp_path):
        path = tmp_path / "data.csv"
        _write(path, "month,price,m1",
               ['2006-01,"0.5\n\n",0.25', "2006-01,0.5,nan"])
        with pytest.raises(ValueError, match="line 5: .*'m1'"):
            load_pack_csv(DatasetSpec(path=str(path), **self.SPEC))


class TestBlocks:
    """Files of several `_blocks` blocks, with the fault only after the
    first block."""

    COLUMNS = ["month", "price", "m1"]
    SPEC = dict(timestamp_col="month", target_col="price", expert_cols=("m1",),
                clip_lower=0.0, clip_upper=1.0)
    # 17 characters a line, so block 1 ends at the same line in every file.
    ROW = "2006-{:02d},0.5,0.25"
    HEADER = "month,price,m1"

    def _rows(self):
        return [self.ROW.format(i % 12 + 1) for i in range(10_000)]

    def _first_block(self, path):
        """The lines of block 1."""
        with open(path, newline="") as fh:
            next(csv.reader(fh))
            return next(harness._blocks(fh, [0]))

    def _refused_as_the_cell_reader_refuses(self, path, line):
        with pytest.raises((ValueError, Warning)):
            _read(path, self.COLUMNS, bulk=True)
        with pytest.raises(Exception) as cells:
            _read(path, self.COLUMNS, bulk=False)
        with pytest.raises(type(cells.value)) as raised:
            load_pack_csv(DatasetSpec(path=str(path), **self.SPEC))
        assert str(raised.value) == str(cells.value)
        if line is not None:
            assert str(raised.value).startswith(f"line {line}: ")

    @pytest.mark.parametrize("row, line", [
        ("2006-03,0.5\x1c,0.25", 8002),  # U+001C in a numeric cell
        ("2006-13,0.5,0.25", 8002),  # a bad month
        ("2006-03,0.5,0.25" + " " * csv.field_size_limit(), None),
    ], ids=["separator", "bad-month", "long-line"])
    def test_fault_after_the_first_block(self, tmp_path, row, line):
        rows = self._rows()
        rows[8000] = row
        path = tmp_path / "data.csv"
        _write(path, self.HEADER, rows)
        assert len(self._first_block(path)) < 8000
        self._refused_as_the_cell_reader_refuses(path, line)

    def test_quoted_newline_across_a_block_boundary(self, tmp_path):
        rows = self._rows()
        last = harness._BLOCK_CHARS // len(self.ROW.format(1) + "\n")
        # The record opens on the last line of block 1 and closes in block 2.
        rows[last] = '2006-03,"0.50000\n",0.25'
        rows[9000] = "2006-03,0.5,nan"
        path = tmp_path / "data.csv"
        _write(path, self.HEADER, rows)
        assert self._first_block(path)[-1] == '2006-03,"0.50000\n'
        self._refused_as_the_cell_reader_refuses(path, 9003)
        rows[9000] = self.ROW.format(3)
        _write(path, self.HEADER, rows)
        with pytest.raises(ValueError, match="spans lines"):
            _read(path, self.COLUMNS, bulk=True)
        stream, _ = load_pack_csv(DatasetSpec(path=str(path), **self.SPEC))
        assert stream.outcomes.sum() == 0.5 * len(rows)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_clean_file_of_several_blocks(self, tmp_path, newline):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(6000, 3)) * 10.0 ** rng.integers(
            -5, 6, size=(6000, 3))
        months = rng.integers(0, 400, size=6000)
        rows = [f"{1990 + m // 12}-{m % 12 + 1:02d}-15,"
                + ",".join(map(repr, v.tolist()))
                for m, v in zip(months, values)]
        path = tmp_path / "data.csv"
        _write(path, "month,price,m1,ord", rows, newline=newline)
        assert len(self._first_block(path)) < len(rows)
        columns = ["month", "price", "m1", "ord"]
        bulk = _read(path, columns, bulk=True)
        cells = _read(path, columns, bulk=False)
        np.testing.assert_array_equal(bulk[0], cells[0])
        assert bulk[0].tolist() == np.unique(months, return_inverse=True)[
            1].tolist()
        assert bulk[1].shape == cells[1].shape == (6000, 3)
        assert bulk[1].tobytes() == cells[1].tobytes() == values.tobytes()

    def test_one_loadtxt_call_for_a_file_it_accepts(self, tmp_path,
                                                    monkeypatch):
        path = tmp_path / "data.csv"
        _write(path, self.HEADER, self._rows())
        calls = []
        loadtxt = np.loadtxt

        def spy(*args, **kwargs):
            calls.append(kwargs.get("usecols"))
            return loadtxt(*args, **kwargs)

        def no_fallback(*args):
            raise AssertionError("the per-cell reader ran")

        monkeypatch.setattr(np, "loadtxt", spy)
        monkeypatch.setattr(harness, "_read_cells", no_fallback)
        stream, _ = load_pack_csv(DatasetSpec(path=str(path), **self.SPEC))
        assert calls == [[0, 1, 2]]
        assert len(stream) == 12 and stream.outcomes.size == 10_000

    def test_parse_buffer_dies_with_the_loader(self, tmp_path, monkeypatch):
        # The stream is gathered out of the records `np.loadtxt` returns,
        # which are freed once the loader returns.
        path = tmp_path / "data.csv"
        _write(path, self.HEADER, self._rows())
        buffers = []
        loadtxt = np.loadtxt

        def spy(*args, **kwargs):
            table = loadtxt(*args, **kwargs)
            buffers.append(weakref.ref(table))
            return table

        monkeypatch.setattr(np, "loadtxt", spy)
        stream, _ = load_pack_csv(DatasetSpec(path=str(path), **self.SPEC))
        assert len(buffers) == 1 and buffers[0]() is None
        assert stream.expert_preds.flags.c_contiguous


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_reads_a_pipe(tmp_path):
    fifo = tmp_path / "data.csv"
    os.mkfifo(fifo)
    text = "month,price,m1\n2006-02,0.5,0.25\n2006-01,0.75,0.5\n"
    writer = threading.Thread(target=fifo.write_text, args=(text,),
                              daemon=True)
    writer.start()
    stream, _ = load_pack_csv(DatasetSpec(
        path=str(fifo), timestamp_col="month", target_col="price",
        expert_cols=("m1",), clip_lower=0.0, clip_upper=1.0))
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert [p.outcomes.tolist() for p in stream] == [[0.75], [0.5]]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_pipe_costs_its_bytes_once(tmp_path):
    # A pipe is read whole, as bytes, then decoded as the readers go: under
    # tracemalloc its peak stays below twice the same file's, where text
    # held as `str` (up to 4 bytes a character) would not.  20000 rows of
    # dollar-scale prices in cents, 1.2 MB.
    rng = np.random.default_rng(5)
    months = np.sort(rng.integers(0, 120, 20_000)).tolist()
    prices = rng.lognormal(12, 0.3, (20_000, 5)).tolist()
    data = "".join(
        [f"month,price,{','.join(f'e{n}' for n in range(1, 5))}\n"]
        + [f"{2000 + m // 12}-{m % 12 + 1:02d},"
           + ",".join(f"{p:.2f}" for p in row) + "\n"
           for m, row in zip(months, prices)]).encode()
    path, fifo = tmp_path / "data.csv", tmp_path / "pipe.csv"
    path.write_bytes(data)
    os.mkfifo(fifo)

    def peak(source):
        spec = DatasetSpec(path=str(source), timestamp_col="month",
                           target_col="price",
                           expert_cols=("e1", "e2", "e3", "e4"),
                           clip_lower=0.0, clip_upper=1e7)
        tracemalloc.start()
        try:
            stream, _ = load_pack_csv(spec)
            return stream, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    from_file, file_peak = peak(path)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,),
                              daemon=True)
    writer.start()
    from_pipe, pipe_peak = peak(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert from_pipe == from_file
    assert pipe_peak < 2 * file_peak, (pipe_peak, file_peak)
