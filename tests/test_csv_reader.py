"""The two CSV readers behind `load_pack_csv`: the bulk column reader must
give exactly the per-cell reader's months and values or refuse the file, and
every error `load_pack_csv` raises is the per-cell reader's, with its line."""

import csv
import os
import threading

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
GOOD_MONTHS = st.sampled_from([
    "2006-01", "2006-02-15", " 2006-03 ", '"2006-01"', "2006-12T00:00",
    "\t2006-04", "1999-11", "2006-05\x00", "\x1c2006-06",
])
BAD_MONTHS = st.sampled_from([
    '"2006-02\n"', "2006-00", "2006-13", "2006-1", "January", "",
    "# 2006-01", "٢٠٠٦-01",
])
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
