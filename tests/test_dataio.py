import csv
import datetime
import io
import os
import re
import tempfile
import tracemalloc
import warnings
from itertools import repeat
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctda import dataio
from ctda.dataio import (
    ALIGN_POLICIES,
    FileFormatError,
    ImageDataset,
    TimeSeries,
    align,
    apply_channel_to_dataset,
    gen_fir_series,
    gen_two_class_images,
    load_csv,
    load_images_csv,
    save_csv,
    save_images_csv,
    split,
)
from ctda.scoring import CurvePoint, ScoredItem, save_curve_csv, save_scores_csv
from ctda.stats import (
    Channel,
    DiscreteDistribution,
    binary_symmetric_channel,
    empirical_distribution,
    identity_channel,
    parametric_channel,
    uniform_distribution,
)

from oracles import (
    align_loop,
    channel_whole_array,
    load_csv_loop,
    load_images_csv_loop,
    naive_fir,
    two_class_images_choice,
)
from pipe_feeder import fed_pipe


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestTimeSeries:
    def test_valid(self):
        s = TimeSeries("s", [1, 2, 5], [1.0, 2.0, 3.0])
        assert len(s) == 3

    def test_not_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TimeSeries("s", [1, 2, 2], [1.0, 2.0, 3.0])

    def test_non_finite_value(self):
        with pytest.raises(ValueError, match="non-finite"):
            TimeSeries("s", [1, 2], [1.0, np.inf])

    def test_int64_extremes_are_increasing(self):
        s = TimeSeries("s", [-(2**63), 2**63 - 1], [1.0, 2.0])
        assert s.timestamps.tolist() == [-(2**63), 2**63 - 1]

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            TimeSeries("s", [], [])


class TestLoadCsv:
    def test_integer_timestamps(self, tmp_path):
        p = write(tmp_path, "a.csv", "date,value\n1,10.5\n2,11\n4,12\n")
        s = load_csv(p)
        assert s.name == "a"
        assert not s.iso_dates
        np.testing.assert_array_equal(s.timestamps, [1, 2, 4])
        np.testing.assert_allclose(s.values, [10.5, 11.0, 12.0])

    def test_iso_dates_keep_gaps(self, tmp_path):
        p = write(
            tmp_path,
            "fx.csv",
            "date,value\n2013-12-30,1.0\n2013-12-31,2.0\n2014-01-02,3.0\n",
        )
        s = load_csv(p)
        assert s.iso_dates
        # calendar gap (skipped Jan 1) survives as an ordinal gap
        assert s.timestamps[2] - s.timestamps[1] == 2
        assert s.timestamps[0] == datetime.date(2013, 12, 30).toordinal()

    def test_duplicate_timestamp(self, tmp_path):
        p = write(tmp_path, "a.csv", "date,value\n2014-01-02,1\n2014-01-02,2\n")
        with pytest.raises(FileFormatError, match=r"line 3.*2014-01-02"):
            load_csv(p)

    def test_out_of_order(self, tmp_path):
        p = write(tmp_path, "a.csv", "date,value\n5,1\n3,2\n")
        with pytest.raises(FileFormatError, match="increasing"):
            load_csv(p)

    def test_out_of_order_after_blank_lines_names_file_line(self, tmp_path):
        p = write(tmp_path, "a.csv", "date,value\n1,1.0\n\n\n5,2.0\n3,3.0\n")
        with pytest.raises(FileFormatError, match="line 6: timestamps not strictly"):
            load_csv(p)

    def test_bad_value(self, tmp_path):
        p = write(tmp_path, "a.csv", "date,value\n1,oops\n")
        with pytest.raises(FileFormatError, match="line 2"):
            load_csv(p)

    def test_non_finite_value_rejected(self, tmp_path):
        p = write(tmp_path, "a.csv", "date,value\n1,nan\n")
        with pytest.raises(FileFormatError, match="non-finite"):
            load_csv(p)

    def test_missing_column(self, tmp_path):
        p = write(tmp_path, "a.csv", "time,value\n1,2\n")
        with pytest.raises(FileFormatError, match="header"):
            load_csv(p)

    def test_custom_columns(self, tmp_path):
        p = write(tmp_path, "a.csv", "day,close\n1,2\n2,3\n")
        s = load_csv(p, time_column="day", value_column="close")
        np.testing.assert_allclose(s.values, [2.0, 3.0])

    def test_mixed_timestamp_kinds(self, tmp_path):
        p = write(tmp_path, "a.csv", "date,value\n1,2\n2014-01-02,3\n")
        with pytest.raises(FileFormatError, match="mixed"):
            load_csv(p)

    def test_empty_file(self, tmp_path):
        p = write(tmp_path, "a.csv", "")
        with pytest.raises(FileFormatError, match="empty"):
            load_csv(p)

    def test_no_rows(self, tmp_path):
        p = write(tmp_path, "a.csv", "date,value\n")
        with pytest.raises(FileFormatError, match="no data"):
            load_csv(p)

    def test_unparseable_date(self, tmp_path):
        p = write(tmp_path, "a.csv", "date,value\nwhenever,3\n")
        with pytest.raises(FileFormatError, match="line 2"):
            load_csv(p)

    @pytest.mark.parametrize(
        "cell", ["99999999999999999999", "-9223372036854775809", "9223372036854775808"]
    )
    def test_timestamp_beyond_int64_rejected(self, tmp_path, cell):
        p = write(tmp_path, "a.csv", f"date,value\n1,1.0\n{cell},2.0\n")
        with pytest.raises(
            FileFormatError, match=f"line 3: timestamp '{cell}' outside the 64-bit range"
        ):
            load_csv(p)

    def test_int64_limits_accepted(self, tmp_path):
        p = write(
            tmp_path, "a.csv", "date,value\n-9223372036854775808,1\n9223372036854775807,2\n"
        )
        assert load_csv(p).timestamps.tolist() == [-(2**63), 2**63 - 1]

    def test_basic_iso_date_among_iso_dates_is_mixed(self, tmp_path):
        # 20140103 reads as an integer before it reads as a date
        p = write(tmp_path, "a.csv", "date,value\n2014-01-02,1\n20140103,2\n")
        with pytest.raises(FileFormatError, match="line 3: mixed"):
            load_csv(p)

    def test_error_after_an_accepted_chunk_names_its_line(self, tmp_path):
        p = write(tmp_path, "a.csv", "date,value\n1,1\n2,2\n\n3,3\n2,4\n")
        with pytest.raises(FileFormatError, match="line 6: duplicate timestamp '2'"):
            load_csv(p)

    def test_later_bad_value_beats_earlier_out_of_order_row(self, tmp_path):
        p = write(tmp_path, "a.csv", "date,value\n1,1\n5,2\n3,3\n7,4\n8,x\n")
        with pytest.raises(FileFormatError, match="line 6: cannot parse value 'x'"):
            load_csv(p)

    def test_round_trip(self, tmp_path):
        s = TimeSeries("fx", [735000, 735001], [1.25, 1.5], iso_dates=True)
        path = tmp_path / "fx.csv"
        save_csv(s, path)
        again = load_csv(path)
        np.testing.assert_array_equal(again.timestamps, s.timestamps)
        np.testing.assert_array_equal(again.values, s.values)
        assert again.iso_dates


ORIGIN = datetime.date(2014, 1, 1).toordinal()
HEADERS = ["date,value", "value,date", "date,value,note", "note,date,value", " date , value "]
ODD_TIME_CELLS = [
    "", "whenever", "2014-13-01", "+7", "1_000", "2014-W02-3",
    "99999999999999999999", "-9223372036854775809", "9223372036854775807",
]
ODD_VALUE_CELLS = ["nan", "inf", "-inf", "1e400", "oops", "", " 2.5 ", "1_0.5", '"1,5"']
BLANK_RECORDS = ["", "   ", " ,  ", "\t,"]


def chance(draw, percent):
    return draw(st.integers(0, 99)) < percent


@st.composite
def series_texts(draw):
    """CSV texts near the ``date,value`` format, some well formed, some not."""
    header = draw(st.sampled_from(HEADERS))
    names = [h.strip() for h in header.split(",")]
    t_idx, v_idx = names.index("date"), names.index("value")
    iso = draw(st.booleans())
    bad = draw(st.sampled_from([0, 0, 5, 20]))  # percent of rows with a defect
    jumble = draw(st.sampled_from([0, 10, 25]))  # percent of rows out of order
    t = draw(st.integers(-3, 3))
    lines = [header]
    for _ in range(draw(st.integers(0, 12))):
        if chance(draw, 15):
            lines.append(draw(st.sampled_from(BLANK_RECORDS)))
        if chance(draw, jumble):
            t += draw(st.sampled_from([-10, -2, 0, 1]))
        else:
            t += draw(st.integers(1, 3))
        row_iso = iso != chance(draw, bad // 2)  # mixed kinds
        time = datetime.date.fromordinal(ORIGIN + t).isoformat() if row_iso else str(t)
        if row_iso and chance(draw, bad):
            time = time.replace("-", "")  # YYYYMMDD also reads as an integer
        if chance(draw, bad):
            time = draw(st.sampled_from(ODD_TIME_CELLS))
        value = repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
        if chance(draw, bad):
            value = draw(st.sampled_from(ODD_VALUE_CELLS))
        cells = ["n"] * len(names)
        cells[t_idx] = f" {time} " if chance(draw, 20) else time
        cells[v_idx] = value
        if chance(draw, 20):
            k = draw(st.integers(0, len(cells) - 1))
            cells[k] = f'"{cells[k]}"'  # quoted cell
        if chance(draw, 10):
            cells.append("extra")
        if chance(draw, bad):
            cells = cells[: draw(st.integers(0, len(cells) - 1))]  # too few columns
        lines.append(",".join(cells))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + (newline if draw(st.booleans()) else "")


class TestLoadCsvMatchesLoop:
    """``load_csv`` against the row loop in ``tests/oracles.py``."""

    @settings(max_examples=400, deadline=None)
    @given(text=series_texts())
    def test_same_series_or_same_error(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.csv"
            path.write_text(text, encoding="utf-8", newline="")
            try:
                expected = load_csv_loop(path)
            except ValueError as exc:
                expected = str(exc)
            try:
                s = load_csv(path)
                got = (s.timestamps.tolist(), s.values.tolist(), s.iso_dates)
            except FileFormatError as exc:
                got = str(exc)
        if isinstance(expected, str):
            assert got == expected
        else:
            times, values, iso = expected
            assert got[0] == times and got[2] == iso
            assert np.asarray(got[1]).tobytes() == np.asarray(values, dtype=float).tobytes()


# Cells at the boundary between numpy's parser and the row reader: non-ASCII
# digits (int() and float() read Arabic-Indic ones), numpy's extra spaces
# U+001C..U+001F, non-finite values and integers just past int64.
BOUNDARY_CELLS = [
    "١٢", "Ǿ", "\x1c7", "7\x1d", "\x1e", "7\x1f", "+inf", "1e400",
    "9223372036854775808", "-9223372036854775809", "9223372036854775807",
]
BOUNDARY_PADS = [
    lambda c: f"\x0b{c}\x0c",
    lambda c: f"\x0c {c}\x0b",
    lambda c: f"\x1c{c}",
    lambda c: f"{c}\x1f",
    lambda c: c.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
]
SMALL_FIELD_LIMIT = 40


@st.composite
def plain_series_texts(draw):
    """Integer-dated ``date,value`` texts of the kind numpy's parser takes,
    with a few boundary cells, padded cells, lone ``\\r`` line ends, a quoted
    header, quoted notes whose commas shift numpy's columns, a cell over the
    csv field limit, or the value read from the date column.  Returns
    ``(text, value_column, field_limit)``."""
    header = draw(st.sampled_from(
        ["date,value", '"date","value"', '"date",value', "note,date,value"]
    ))
    value_column = "date" if chance(draw, 15) else "value"
    limit = draw(st.sampled_from([csv.field_size_limit(), SMALL_FIELD_LIMIT]))
    # A cell over the limit may share the file with other defects: both
    # readers report the first failing record, with its line.
    t = draw(st.integers(-5, 5))
    rows = []
    for _ in range(draw(st.integers(1, 20))):
        t += draw(st.integers(-2, 0)) if chance(draw, 5) else draw(st.integers(1, 3))
        rows.append([str(t), repr(draw(st.floats(allow_nan=False, allow_infinity=False)))])
    if limit == SMALL_FIELD_LIMIT and chance(draw, 30):
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, 1))] = "1" * (limit + 1)
    for _ in range(draw(st.integers(0, 2))):
        row, col = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 1))
        if chance(draw, 50):
            rows[row][col] = draw(st.sampled_from(BOUNDARY_PADS))(rows[row][col])
        else:
            rows[row][col] = draw(st.sampled_from(BOUNDARY_CELLS))
    if header.startswith("note"):
        # '"n,<date>,0.5,n"' gives numpy's split the date and another value
        note = draw(st.sampled_from(["n", '"1,2"', '"n,{},0.5,n"']))
        rows = [[note.format(cells[0])] + cells for cells in rows]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [header] + [",".join(cells) for cells in rows]
    return newline.join(lines) + (newline if draw(st.booleans()) else ""), value_column, limit


def loop_outcome(path, value_column="value"):
    """What ``tests/oracles.py`` reads from ``path``, in ``load_outcome``'s form."""
    try:
        times, values, iso = load_csv_loop(path, "date", value_column)
    except ValueError as exc:
        return str(exc)
    return times, np.asarray(values, dtype=float).tobytes(), iso


def load_outcome(source, value_column="value"):
    """``load_csv``'s series as lists and bytes, or its error message."""
    try:
        s = load_csv(source, "date", value_column)
    except FileFormatError as exc:
        return str(exc)
    return s.timestamps.tolist(), s.values.tobytes(), s.iso_dates


class TestLoadCsvBoundaryMatchesLoop:
    """The reader against the row loop on files at the boundary of numpy's
    accept path."""

    @settings(max_examples=400, deadline=None)
    @given(case=plain_series_texts())
    @example(case=('note,date,value\n"n,1,0.5,n",1,2.5\n"n,3,0.5,n",3,-1.0\n', "value", None))
    @example(case=("date,value\n1,2.5\n2,\u01fe\n", "value", None))
    @example(case=("date,value\n1,\x1c2.5\n2,\x0b3\x0c\n", "value", None))
    @example(case=("date,value\n\u0661,2.5\n2,3\n", "value", None))
    @example(case=("date,value\n1,+inf\n", "value", None))
    @example(case=("date,value\n1,1e400\n", "value", None))
    @example(case=("date,value\n9223372036854775808,1\n", "value", None))
    @example(case=("date,value\n1," + "1" * 41 + "\n", "value", SMALL_FIELD_LIMIT))
    @example(case=("date,value\r1,2.5\r2,3\r", "value", None))
    @example(case=("date,value\n1,2\n3,4\n", "date", None))
    def test_same_series_or_same_error(self, case):
        text, value_column, limit = case
        limit = csv.field_size_limit() if limit is None else limit
        old_limit = csv.field_size_limit(limit)
        try:
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "s.csv"
                path.write_text(text, encoding="utf-8", newline="")
                assert load_outcome(path, value_column) == loop_outcome(path, value_column)
        finally:
            csv.field_size_limit(old_limit)


def iso_date_cells(day):
    """The ISO spellings of ``day`` that ``date.fromisoformat`` reads: the
    calendar date and the week dates, extended and basic."""
    year, week, weekday = day.isocalendar()
    return [day.isoformat(), f"{year}-W{week:02d}-{weekday}", f"{year}W{week:02d}{weekday}"]


ISO_DATE_ODDITIES = [
    lambda d: f"\x0b{d}\x0c",
    lambda d: f" {d} ",
    lambda d: f"\x0c {d}\x0b",
    lambda d: "7",
    lambda d: "+7",
    lambda d: "",
    lambda d: "2014-13-01",
    lambda d: f"{d}T00:00",
]
ISO_VALUE_ODDITIES = ["nan", "inf", "-inf", "oops", "", " 2.5 ", "1e400"]


@st.composite
def iso_series_texts(draw):
    """ISO-dated ``date,value`` texts in either column order, with week
    dates (which only the row reader reads), padded or integer date cells,
    odd values, whitespace-only records, rows out of order, a quoted header,
    or the value read from the date column.  Returns
    ``(text, value_column)``."""
    header = draw(st.sampled_from(["date,value", "value,date", '"date",value', "note,date,value"]))
    names = [h.strip('"') for h in header.split(",")]
    value_column = "date" if chance(draw, 10) else "value"
    t = draw(st.integers(-5, 5))
    days, rows = [], []
    for _ in range(draw(st.integers(1, 20))):
        t += draw(st.integers(-2, 0)) if chance(draw, 3) else draw(st.integers(1, 3))
        days.append(day := datetime.date.fromordinal(ORIGIN + t))
        rows.append({
            "date": draw(st.sampled_from(iso_date_cells(day))),
            "value": repr(draw(st.floats(allow_nan=False, allow_infinity=False))),
            "note": "n",
        })
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(rows) - 1))
        odd = draw(st.sampled_from(["date", "value", "integer"]))
        if odd == "integer":  # YYYYMMDD reads as an integer: mixed kinds
            rows[at]["date"] = days[at].strftime("%Y%m%d")
        elif odd == "date":
            rows[at]["date"] = draw(st.sampled_from(ISO_DATE_ODDITIES))(rows[at]["date"])
        else:
            rows[at]["value"] = draw(st.sampled_from(ISO_VALUE_ODDITIES))
    lines = [header]
    for cells in rows:
        if chance(draw, 3):
            lines.append(draw(st.sampled_from(BLANK_RECORDS)))
        lines.append(",".join(cells[name] for name in names))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + (newline if draw(st.booleans()) else ""), value_column


class TestLoadCsvIsoMatchesLoop:
    """The reader against the row loop on ISO-dated files, whether numpy reads
    their dates as bytes or the row reader reads them."""

    @settings(max_examples=400, deadline=None)
    @given(case=iso_series_texts())
    @example(case=("date,value\n2014-W02-3,1\n2014W024,2\n2014-01-10,3\n", "value"))
    @example(case=("date,value\n\x0b2014-01-02\x0c,1\n 2014-01-03 ,2\n\x0c2014-01-04\x0b,3\n", "value"))
    @example(case=("date,value\n2014-01-02,1\n20140103,2\n", "value"))
    @example(case=("value,date\n1.5,2014-01-02\n2.5,2014-01-04\n", "value"))
    @example(case=("date,value\n2014-01-02,1\n2014-01-03,2\n", "date"))
    @example(case=("date,value\n2014-01-02,1\n   \n \t, \n2014-01-03,2\n", "value"))
    @example(case=("date,value\n2014-01-02,nan\n2014-01-03,2\n", "value"))
    @example(case=("date,value\n2014-01-03,1\n2014-01-02,2\n2014-01-04,3\n", "value"))
    def test_same_series_or_same_error(self, case):
        text, value_column = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.csv"
            path.write_text(text, encoding="utf-8", newline="")
            assert load_outcome(path, value_column) == loop_outcome(path, value_column)


# Days at the edges of the calendar and of the leap-year rule.
EDGE_DAYS = [datetime.date(*ymd) for ymd in [
    (1, 1, 1), (1900, 2, 28), (1900, 3, 1), (2000, 2, 29), (2001, 2, 28), (9999, 12, 31),
]]
# Date cells at the edge of numpy's byte rule: ten bytes that are no date,
# or no date to ``date.fromisoformat``, and longer cells that begin with one.
ISO_BYTE_ODDITIES = [
    lambda d: f"{d}\x00", lambda d: f"\x00{d}", lambda d: f"{d}0", lambda d: f"{d}T00:00",
    lambda d: f"{d} ", lambda d: d.replace("-", "/"), lambda d: f"{d[:4]}0{d[5:]}",
    lambda d: "0000-01-01", lambda d: "0000-12-31", lambda d: "+001-01-01",
    lambda d: "-001-01-01", lambda d: "2001-02-29", lambda d: "1900-02-29",
    lambda d: "2001-04-31", lambda d: "2001-13-01", lambda d: "2001-00-10",
    lambda d: "2001-01-00", lambda d: "10000-01-01",
]


@st.composite
def iso_byte_texts(draw):
    """ISO-dated ``date,value`` texts whose dates are exactly ``YYYY-MM-DD``,
    from year 1 to 9999, in either column order and with any line end, with
    a few date cells at the edge of numpy's byte rule.  Returns the text."""
    header = draw(st.sampled_from(["date,value", "value,date"]))
    ordinals = draw(st.lists(
        st.integers(1, EDGE_DAYS[-1].toordinal())
        | st.sampled_from(EDGE_DAYS).map(datetime.date.toordinal),
        min_size=1, max_size=12, unique=True,
    ))
    lines = [header]
    for ordinal in sorted(ordinals):
        date = datetime.date.fromordinal(ordinal).isoformat()
        if chance(draw, 8):
            date = draw(st.sampled_from(ISO_BYTE_ODDITIES))(date)
        value = repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
        lines.append(f"{date},{value}" if header == "date,value" else f"{value},{date}")
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + (newline if draw(st.booleans()) else "")


class TestIsoByteRuleMatchesLoop:
    """numpy's byte rule for ISO dates against the row loop: a cell it takes
    reads as ``date.fromisoformat`` reads it, and every other cell sends the
    file to the row reader."""

    @settings(max_examples=400, deadline=None)
    @given(text=iso_byte_texts())
    @example(text="date,value\n2001-01-01\x00,1\n")
    @example(text="date,value\n2001-01-01,1\n2001-01-02\x00,2\n")
    @example(text="date,value\n0000-01-01,1\n0001-01-01,2\n")
    @example(text="date,value\n2001-02-28,1\n2001-02-29,2\n")
    @example(text="date,value\n1900-02-28,1\n1900-02-29,2\n")
    @example(text="date,value\n2000-02-29,1\n2000-03-01,2\n")
    @example(text="date,value\n2001-01-01,1\n2001-01-02T00:00,2\n")
    @example(text="date,value\n2001-01-01,1\n2001-01-020,2\n")
    @example(text="date,value\n+001-01-01,1\n0001-01-02,2\n")
    @example(text="date,value\n0001-01-01,1\n2001001-01,2\n")
    @example(text="date,value\n9999-12-30,1\n9999-12-31,2\n")
    @example(text="value,date\r\n1,2001-01-01\r\n2,2001-01-02\r\n")
    def test_same_series_or_same_error(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.csv"
            path.write_text(text, encoding="utf-8", newline="")
            assert load_outcome(path) == loop_outcome(path)

    @pytest.mark.parametrize("text", [
        "date,value\n0001-01-01,1\n2000-02-29,2\n9999-12-31,3\n",
        "value,date\r\n1,2001-01-01\r\n2,2001-01-02\r\n",
        "value,date\r1,2001-01-01\r2,2001-01-02",
    ], ids=["calendar-edges", "last-column-crlf", "last-column-cr"])
    def test_exact_dates_take_numpy_path(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_text(text, encoding="utf-8", newline="")
        expected = loop_outcome(path)
        with mock.patch.object(dataio, "_read_series_rows", side_effect=AssertionError):
            assert load_outcome(path) == expected


LONG_CELL = "1" * (SMALL_FIELD_LIMIT + 1)
CLEAN_ROWS = "".join(f"{t},0.5\n" for t in range(1100))  # a long stretch of good rows


class TestOversizedCellAfterABadRow:
    """A cell over the csv field limit is reported, with its line, only when
    no row before it fails, as the row loop does."""

    @pytest.mark.parametrize("body, message", [
        (f"0,0.0\n0,0.0\n{LONG_CELL},0.0\n", "line 3: duplicate timestamp '0'"),
        (f"0,0.0\n1\n{LONG_CELL},0.0\n", "line 3: too few columns"),
        (f"0,0.0\n1,x\n0,{LONG_CELL}\n", "line 3: cannot parse value 'x'"),
        (f"{CLEAN_ROWS}5,0.0\n{LONG_CELL},0.0\n", "line 1102: duplicate timestamp '5'"),
        (f"5,0.0\n{CLEAN_ROWS}2000,1\n{LONG_CELL},0.0\n", "line 8: duplicate timestamp '5'"),
        # out of order is reported last, after every other check
        (f"1,0.0\n0,0.0\n{LONG_CELL},0.0\n", "line 4: field larger than field limit (40)"),
        (f"{LONG_CELL},0.0\n0,0.0\n0,0.0\n", "line 2: field larger than field limit (40)"),
    ], ids=[
        "duplicate", "too-few-columns", "bad-value", "duplicate-in-second-chunk",
        "duplicate-of-first-chunk", "out-of-order-defers", "long-cell-first",
    ])
    def test_first_failing_record_wins(self, tmp_path, body, message):
        path = write(tmp_path, "s.csv", "date,value\n" + body)
        old_limit = csv.field_size_limit(SMALL_FIELD_LIMIT)
        try:
            assert load_outcome(path) == f"{path}: {message}" == loop_outcome(path)
        finally:
            csv.field_size_limit(old_limit)

    def test_header_cell_is_reported_on_line_1(self, tmp_path):
        path = write(tmp_path, "s.csv", f"date,value,{LONG_CELL}\n1,0.0\n")
        old_limit = csv.field_size_limit(SMALL_FIELD_LIMIT)
        try:
            message = f"{path}: line 1: field larger than field limit (40)"
            assert load_outcome(path) == message == loop_outcome(path)
        finally:
            csv.field_size_limit(old_limit)


def benchmark_shaped_series(rows, seed=1):
    """An integer-dated series file's text as the benchmark writes it, with
    values spread over ten decades, and its values."""
    rng = np.random.default_rng(seed)
    values = (rng.standard_normal(rows) * 10.0 ** rng.integers(-5, 5, rows)).tolist()
    lines = ["date,value"] + [f"{t},{v!r}" for t, v in enumerate(values)]
    return "\n".join(lines) + "\n", values


def iso_series(rows):
    start = datetime.date(2000, 1, 1).toordinal()
    lines = ["date,value"] + [
        f"{datetime.date.fromordinal(start + 2 * t).isoformat()},{t / 7!r}" for t in range(rows)
    ]
    return "\n".join(lines) + "\n"


class TestLoadCsvPaths:
    """Which reader a file reaches."""

    def test_integer_file_never_reaches_the_row_reader(self, tmp_path):
        text, values = benchmark_shaped_series(20_000)
        p = write(tmp_path, "x1.csv", text)
        with mock.patch.object(dataio, "_read_series_rows", side_effect=AssertionError):
            s = load_csv(p)
        assert s.timestamps.tolist() == list(range(20_000))
        assert s.values.tobytes() == np.array(values).tobytes()
        assert not s.iso_dates

    def test_iso_file_never_reaches_the_row_reader(self, tmp_path):
        p = write(tmp_path, "fx.csv", iso_series(4_000))  # several screen chunks long
        with mock.patch.object(dataio, "_read_series_rows", side_effect=AssertionError), \
                mock.patch.object(dataio, "_iso_ordinal", side_effect=AssertionError):
            s = load_csv(p)
        start = datetime.date(2000, 1, 1).toordinal()
        assert s.timestamps.tolist() == list(range(start, start + 8_000, 2))
        assert s.values.tobytes() == (np.arange(4_000) / 7).tobytes()
        assert s.iso_dates

    @pytest.mark.parametrize("loader, head, message", [
        (load_csv, "date,value\n1,1.5\n2,x\n", "line 3: cannot parse value 'x'"),
        (load_images_csv, "label,p0\n0,1\n1,x\n", "line 3: non-integer pixel value"),
    ], ids=["series", "images"])
    def test_bad_row_far_before_undecodable_byte(self, tmp_path, loader, head, message):
        # The row reader stops at the bad row before it decodes the bad byte.
        p = tmp_path / "f.csv"
        p.write_bytes(head.encode() + b"3,1\n" * 50_000 + b"\xe9\n")
        with pytest.raises(FileFormatError, match=message):
            loader(p)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
class TestPipedSeries:
    """A series read from a pipe, fed by a thread so it may exceed the pipe
    buffer, gives what the same file on disk gives, on numpy's path and on
    the row reader's."""

    @staticmethod
    def outcomes(tmp_path, text):
        on_disk = tmp_path / "s.csv"
        on_disk.write_bytes(text.encode("utf-8"))
        with fed_pipe(text.encode("utf-8")) as pipe:
            results = [load_outcome(on_disk), load_outcome(pipe)]
            return [r.replace(str(src), "<file>") if isinstance(r, str) else r
                    for r, src in zip(results, (on_disk, pipe))]

    def test_integer_file_takes_numpy_path(self, tmp_path):
        text, _ = benchmark_shaped_series(5_000)
        with mock.patch.object(dataio, "_read_series_rows", side_effect=AssertionError):
            from_disk, from_pipe = self.outcomes(tmp_path, text)
        assert not isinstance(from_pipe, str)
        assert from_pipe == from_disk

    @pytest.mark.parametrize("text", [
        iso_series(4_000),
        benchmark_shaped_series(5_000)[0].replace("\n7,", '\n"7",'),  # quoted cell
        benchmark_shaped_series(5_000)[0].replace("\n7,", "\n\u0667,"),  # Arabic-Indic 7
    ], ids=["iso", "quoted-cell", "non-ascii-digit"])
    def test_row_reader_file(self, tmp_path, text):
        from_disk, from_pipe = self.outcomes(tmp_path, text)
        assert not isinstance(from_pipe, str)
        assert from_pipe == from_disk

    @pytest.mark.parametrize("text, message", [
        (benchmark_shaped_series(5_000)[0].replace("\n4000,", "\n4000,x"),
         "<file>: line 4002: cannot parse value"),
        (benchmark_shaped_series(5_000)[0].replace("\n4000,", "\n3999,"),
         "<file>: line 4002: duplicate timestamp '3999'"),
        (iso_series(4_000).replace("\n2000-01-05,", "\n2000-01-02,"),
         "<file>: line 4: timestamps not strictly increasing"),
        ("", "<file>: empty file"),
        ("date,value\n\n", "<file>: no data rows"),
    ], ids=["bad-value", "duplicate", "iso-disorder", "empty", "no-rows"])
    def test_same_error(self, tmp_path, text, message):
        from_disk, from_pipe = self.outcomes(tmp_path, text)
        assert from_pipe == from_disk
        assert from_disk.startswith(message)


class TestAlign:
    def test_inner_intersection(self):
        a = TimeSeries("a", [1, 2, 3, 5], [10.0, 20.0, 30.0, 50.0])
        b = TimeSeries("b", [2, 3, 4, 5], [2.0, 3.0, 4.0, 5.0])
        ts, mat = align([a, b], "inner")
        np.testing.assert_array_equal(ts, [2, 3, 5])
        np.testing.assert_allclose(mat, [[20.0, 30.0, 50.0], [2.0, 3.0, 5.0]])

    def test_inner_empty(self):
        a = TimeSeries("a", [1, 2], [1.0, 2.0])
        b = TimeSeries("b", [3, 4], [3.0, 4.0])
        with pytest.raises(ValueError, match="no timestamps"):
            align([a, b], "inner")

    def test_forward_fill(self):
        a = TimeSeries("a", [1, 2, 5], [10.0, 20.0, 50.0])
        b = TimeSeries("b", [2, 4], [2.0, 4.0])
        ts, mat = align([a, b], "forward_fill")
        # union from t=2 (both series have begun)
        np.testing.assert_array_equal(ts, [2, 4, 5])
        np.testing.assert_allclose(mat[0], [20.0, 20.0, 50.0])
        np.testing.assert_allclose(mat[1], [2.0, 4.0, 4.0])

    def test_needs_two(self):
        a = TimeSeries("a", [1], [1.0])
        with pytest.raises(ValueError):
            align([a], "inner")

    def test_unknown_policy(self):
        a = TimeSeries("a", [1, 2], [1.0, 2.0])
        with pytest.raises(ValueError, match="policy"):
            align([a, a], "nearest")


class TestSplit:
    def test_basic(self):
        v = np.arange(10.0)
        train, test = split(v, (0, 6), (6, 10))
        np.testing.assert_array_equal(train, np.arange(6.0))
        np.testing.assert_array_equal(test, np.arange(6.0, 10.0))

    def test_history_extends_test_block(self):
        v = np.arange(10.0)
        _, test = split(v, (0, 6), (6, 10), history=2)
        np.testing.assert_array_equal(test, np.arange(4.0, 10.0))

    def test_matrix_split_on_last_axis(self):
        m = np.arange(20.0).reshape(2, 10)
        train, test = split(m, (0, 5), (5, 10))
        assert train.shape == (2, 5) and test.shape == (2, 5)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="before"):
            split(np.arange(10.0), (0, 6), (5, 10))

    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            split(np.arange(10.0), (0, 0), (5, 10))
        with pytest.raises(ValueError):
            split(np.arange(10.0), (0, 5), (5, 11))

    def test_history_bounds(self):
        with pytest.raises(ValueError):
            split(np.arange(10.0), (0, 5), (5, 10), history=6)


class TestGenFirSeries:
    def test_matches_naive_convolution(self):
        taps = [0.5, -0.25, 0.1]
        x, y = gen_fir_series(3, 50, [taps])
        np.testing.assert_allclose(y, naive_fir(x[0], taps), atol=1e-12)

    def test_multi_channel_sum(self):
        c1, c2 = [1.0, 0.5], [0.25]
        x, y = gen_fir_series(4, 40, [c1, c2])
        np.testing.assert_allclose(
            y, naive_fir(x[0], c1) + naive_fir(x[1], c2), atol=1e-12
        )

    def test_deterministic(self):
        a = gen_fir_series(11, 100, [[1.0, 0.2]], noise_sigma=0.3)
        b = gen_fir_series(11, 100, [[1.0, 0.2]], noise_sigma=0.3)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        c = gen_fir_series(12, 100, [[1.0, 0.2]], noise_sigma=0.3)
        assert not np.array_equal(a[1], c[1])

    def test_noise_only_affects_target(self):
        clean = gen_fir_series(5, 60, [[1.0]], noise_sigma=0.0)
        noisy = gen_fir_series(5, 60, [[1.0]], noise_sigma=1.0)
        np.testing.assert_array_equal(clean[0], noisy[0])
        assert not np.array_equal(clean[1], noisy[1])

    def test_binary_input(self):
        x, _ = gen_fir_series(6, 80, [[1.0, -1.0]], input_process="iid_binary")
        assert set(np.unique(x)) <= {-1.0, 1.0}

    def test_errors(self):
        with pytest.raises(ValueError, match="exceed"):
            gen_fir_series(0, 3, [[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            gen_fir_series(0, 10, [])
        with pytest.raises(ValueError):
            gen_fir_series(0, 10, [[1.0]], noise_sigma=-1.0)
        with pytest.raises(ValueError, match="input process"):
            gen_fir_series(0, 10, [[1.0]], input_process="sinusoid")


class TestImageDataset:
    def test_pixel_out_of_alphabet(self):
        with pytest.raises(ValueError, match="alphabet"):
            ImageDataset(2, 1, 2, [[0, 2]])

    def test_label_length(self):
        with pytest.raises(ValueError, match="label"):
            ImageDataset(2, 1, 2, [[0, 1]], labels=[0, 1])

    def test_shape_check(self):
        with pytest.raises(ValueError):
            ImageDataset(2, 2, 2, [[0, 1]])

    @pytest.mark.parametrize("images, labels, message", [
        ([[0.7], [1.9]], None, "pixel 0.7 "),
        ([[0.0], [np.nan]], None, "pixel nan "),
        ([[0.0], [2.0**63]], None, "pixel 9.223372036854776e+18 "),
        ([[0], [1]], [0.0, 0.5], "label 0.5 "),
        ([[0], [1]], np.array([0, 2**64 - 1], np.uint64), "label 18446744073709551615 "),
        ([[0], [1 + 1j]], None, "pixel (1+1j) "),
    ], ids=["fractions", "nan", "past-int64", "fractional-label", "label-past-int64", "complex"])
    def test_values_that_are_not_whole_numbers(self, images, labels, message):
        with pytest.raises(ValueError, match=re.escape(message + "is not a whole number")):
            ImageDataset(1, 1, 2, images, labels)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint64, np.int64])
    def test_an_integer_array_keeps_its_dtype(self, dtype):
        images = np.array([[0, 1], [1, 0]], dtype=dtype)
        ds = ImageDataset(2, 1, 2, images, np.array([0, 1], dtype=dtype))
        assert ds.images is images
        assert ds.labels.dtype == np.int64

    @pytest.mark.parametrize("images", [[[0, 1]], [[0.0, 1.0]], [[False, True]]],
                             ids=["list", "whole-floats", "bools"])
    def test_other_input_becomes_int64(self, images):
        ds = ImageDataset(2, 1, 2, images, [1.0])
        assert ds.images.dtype == ds.labels.dtype == np.int64
        assert ds.images.tolist() == [[0, 1]] and ds.labels.tolist() == [1]


class TestGenTwoClassImages:
    def test_shapes_and_labels(self):
        da = DiscreteDistribution([0.5, 0.5])
        ds = gen_two_class_images(0, 10, 3, 2, da, da)
        assert ds.images.shape == (20, 6)
        np.testing.assert_array_equal(ds.labels, [0] * 10 + [1] * 10)

    def test_degenerate_point_masses(self):
        da = DiscreteDistribution([1.0, 0.0, 0.0, 0.0])
        db = DiscreteDistribution([0.0, 0.0, 0.0, 1.0])
        ds = gen_two_class_images(1, 5, 2, 2, da, db)
        assert np.all(ds.images[:5] == 0)
        assert np.all(ds.images[5:] == 3)

    def test_class_statistics(self):
        da = DiscreteDistribution([0.7, 0.1, 0.1, 0.1])
        db = DiscreteDistribution([0.1, 0.1, 0.1, 0.7])
        ds = gen_two_class_images(2, 200, 10, 10, da, db)
        freq_a = empirical_distribution(ds.images[:200].reshape(-1), 4)
        np.testing.assert_allclose(freq_a.probs, da.probs, atol=0.01)

    def test_deterministic(self):
        da = DiscreteDistribution([0.5, 0.5])
        a = gen_two_class_images(3, 4, 2, 2, da, da)
        b = gen_two_class_images(3, 4, 2, 2, da, da)
        np.testing.assert_array_equal(a.images, b.images)

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="alphabet"):
            gen_two_class_images(
                0, 2, 2, 2, DiscreteDistribution([0.5, 0.5]),
                DiscreteDistribution([0.3, 0.3, 0.4]),
            )


class TestApplyChannel:
    def test_identity_channel_is_noop(self):
        ds = gen_two_class_images(
            4, 20, 5, 5, DiscreteDistribution([0.25] * 4), DiscreteDistribution([0.25] * 4)
        )
        out = apply_channel_to_dataset(ds, identity_channel(4), seed=9)
        np.testing.assert_array_equal(out.images, ds.images)
        np.testing.assert_array_equal(out.labels, ds.labels)

    def test_transition_frequencies(self):
        ds = ImageDataset(100, 100, 2, np.zeros((1, 10000), dtype=int))
        out = apply_channel_to_dataset(ds, binary_symmetric_channel(0.2), seed=5)
        flips = out.images.mean()
        assert abs(flips - 0.2) < 0.02

    def test_each_column_sampled_correctly(self):
        w = parametric_channel(0.1)
        for sym in range(4):
            ds = ImageDataset(200, 50, 4, np.full((1, 10000), sym, dtype=int))
            out = apply_channel_to_dataset(ds, w, seed=sym)
            freq = empirical_distribution(out.images.reshape(-1), 4)
            np.testing.assert_allclose(freq.probs, w.matrix[:, sym], atol=0.02)

    def test_rectangular_channel_changes_alphabet(self):
        ch = Channel([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
        ds = ImageDataset(2, 1, 2, [[0, 1]])
        out = apply_channel_to_dataset(ds, ch, seed=0)
        assert out.alphabet_size == 3

    def test_alphabet_mismatch(self):
        ds = ImageDataset(2, 1, 2, [[0, 1]])
        with pytest.raises(ValueError, match="symbols"):
            apply_channel_to_dataset(ds, parametric_channel(0.1), seed=0)

    def test_draw_above_rounded_column_total_stays_in_alphabet(self, monkeypatch):
        # columns 0 and 2 of this channel sum to 1 - 1.1e-16, so the largest
        # uniform draw lies above their CDF's last level
        channel = parametric_channel(0.0025)
        top = np.nextafter(1.0, 0.0)
        assert np.cumsum(channel.matrix, axis=0)[-1].min() <= top

        class TopDraws:
            def random(self, shape):
                return np.full(shape, top)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: TopDraws())
        out = apply_channel_to_dataset(ImageDataset(4, 1, 4, [[0, 1, 2, 3]]), channel, 0)
        # each input's last symbol of positive probability
        np.testing.assert_array_equal(out.images, [[2, 3, 3, 3]])
        assert np.all(channel.matrix[out.images[0], [0, 1, 2, 3]] > 0)

    def test_deterministic(self):
        ds = gen_two_class_images(
            5, 10, 4, 4, DiscreteDistribution([0.25] * 4), DiscreteDistribution([0.25] * 4)
        )
        a = apply_channel_to_dataset(ds, parametric_channel(0.2), seed=1)
        b = apply_channel_to_dataset(ds, parametric_channel(0.2), seed=1)
        np.testing.assert_array_equal(a.images, b.images)


@st.composite
def probability_vectors(draw, size):
    """Probability vectors of ``size`` entries, often with zero entries."""
    entry = st.one_of(st.just(0.0), st.integers(1, 4).map(float), st.floats(1e-3, 1.0))
    weights = np.array(draw(st.lists(entry, min_size=size, max_size=size).filter(any)))
    return weights / weights.sum()


@st.composite
def image_draw_cases(draw):
    """``(seed, n_per_class, width, height, p_a, p_b)`` over 2 to 8 symbols;
    the row counts are seldom a multiple of the 32-row block."""
    k = draw(st.integers(2, 8))
    return (
        draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 80)),
        draw(st.integers(1, 6)), draw(st.integers(1, 6)),
        draw(probability_vectors(k)), draw(probability_vectors(k)),
    )


class TestImageDrawsMatchChoiceOracles:
    """Bit for bit against ``Generator.choice`` and whole-array channel
    sampling: a numpy release that changes either fails here."""

    @settings(max_examples=150, deadline=None)
    @given(case=image_draw_cases())
    @example(case=(0, 1, 1, 1, np.array([0.5, 0.5]), np.array([0.0, 1.0])))
    @example(case=(7, 33, 5, 3, np.array([0.2, 0.0, 0.8]), np.array([0.0, 0.0, 1.0])))
    @example(case=(9, 64, 2, 2, np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.25] * 4)))
    def test_generator_matches_choice(self, case):
        seed, n, width, height, p_a, p_b = case
        ds = gen_two_class_images(
            seed, n, width, height, DiscreteDistribution(p_a), DiscreteDistribution(p_b)
        )
        images, labels = two_class_images_choice(seed, n, width * height, p_a, p_b)
        assert ds.images.dtype == images.dtype
        np.testing.assert_array_equal(ds.images, images)
        np.testing.assert_array_equal(ds.labels, labels)

    @pytest.mark.parametrize("probs", [[0.1] * 10, [0.7, 0.1, 0.1, 0.1], [0, 0.3, 0, 0.7, 0]])
    def test_draws_on_and_beside_the_levels(self, monkeypatch, probs):
        # Random draws almost never equal a CDF level, so feed both sides
        # draws at, just below and just above each level, before and after
        # normalisation ([0.1] * 10 sums to 1 - 1.1e-16): choice draws
        # through the generator's own ``random``.
        p = np.array(probs, dtype=float)
        cdf = p.cumsum()
        levels = np.concatenate([cdf, cdf / cdf[-1]])
        draws = np.concatenate([levels, np.nextafter(levels, 0.0), np.nextafter(levels, 1.0)])
        draws = np.unique(draws[(draws >= 0.0) & (draws < 1.0)])

        class LevelDraws(np.random.Generator):
            def random(self, size=None, dtype=np.float64, out=None):
                return np.resize(draws, size)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: LevelDraws(np.random.PCG64(seed)))
        n = -(-draws.size // 3)  # rows of 3 pixels that hold every draw
        dist = DiscreteDistribution(p)
        ds = gen_two_class_images(0, n, 3, 1, dist, dist)
        images, _ = two_class_images_choice(0, n, 3, p, p)
        np.testing.assert_array_equal(ds.images, images)

    @settings(max_examples=150, deadline=None)
    @given(case=image_draw_cases(), data=st.data())
    def test_channel_matches_whole_array_sampling(self, case, data):
        seed, n, width, height, p_a, p_b = case
        k_out = data.draw(st.integers(2, 8))
        matrix = np.column_stack([data.draw(probability_vectors(k_out)) for _ in p_a])
        images, labels = two_class_images_choice(seed, n, width * height, p_a, p_b)
        labeled = data.draw(st.booleans())
        ds = ImageDataset(width, height, p_a.size, images, labels if labeled else None)
        out = apply_channel_to_dataset(ds, Channel(matrix), seed ^ 1)
        assert out.images.dtype == np.int64
        np.testing.assert_array_equal(out.images, channel_whole_array(images, matrix, seed ^ 1))
        assert (out.labels is None) == (not labeled)

    @pytest.mark.parametrize("rows", [1, 31, 32, 33, 65, 100])
    def test_channel_with_rounded_column_totals(self, rows):
        channel = parametric_channel(0.0025)  # columns 0 and 2 sum to 1 - 1.1e-16
        images = np.random.default_rng(rows).integers(0, 4, (rows, 7))
        out = apply_channel_to_dataset(ImageDataset(7, 1, 4, images), channel, rows)
        np.testing.assert_array_equal(
            out.images, channel_whole_array(images, channel.matrix, rows)
        )


class TestNoisyTwoClassImages:
    """The sweep's one-pass sampler against drawing the clean corpus with
    ``Generator.choice`` and passing it through the channel as one array."""

    @settings(max_examples=120, deadline=None)
    @given(
        seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
        n=st.integers(1, 80), dims=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        e=st.sampled_from([0.0, 0.0025, 0.1, 0.25]),
        probs=st.tuples(probability_vectors(4), probability_vectors(4)),
    )
    @example(seeds=(0, 1), n=1, dims=(1, 1), e=0.0, probs=(np.full(4, 0.25), np.eye(4)[3]))
    @example(seeds=(7, 8), n=33, dims=(5, 3), e=0.0025,
             probs=(np.array([0.7, 0.1, 0.1, 0.1]), np.array([0.1, 0.1, 0.1, 0.7])))
    def test_matches_clean_draws_through_the_channel(self, seeds, n, dims, e, probs):
        (gen_seed, noise_seed), (width, height), (p_a, p_b) = seeds, dims, probs
        channel, noisy = dataio._noisy_two_class_images(
            gen_seed, noise_seed, n, width, height,
            DiscreteDistribution(p_a), DiscreteDistribution(p_b), e,
        )
        np.testing.assert_array_equal(channel.matrix, parametric_channel(e).matrix)
        clean, _ = two_class_images_choice(gen_seed, n, width * height, p_a, p_b)
        expected = channel_whole_array(clean, parametric_channel(e).matrix, noise_seed)
        assert noisy.dtype == np.int64
        assert noisy.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rows", [1, 31, 32, 33, 70])
    def test_block_draws_equal_one_whole_draw(self, rows):
        # _count_levels draws 32 rows at a time; PCG64 hands out its doubles
        # in order, so the blocks read the same stream as one whole draw
        whole = np.random.default_rng(rows).random((rows, 9))
        rng = np.random.default_rng(rows)
        blocks = [rng.random((min(32, rows - lo), 9)) for lo in range(0, rows, 32)]
        assert np.vstack(blocks).tobytes() == whole.tobytes()


class TestSymbolTally:
    """The symbol counts that the sweep's sampler keeps while it draws."""

    @pytest.mark.parametrize("side", [1, 28])
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 300])
    @pytest.mark.parametrize("e", [0.0, 0.1, 0.25])
    def test_tally_is_the_bincount_of_the_noisy_corpus(self, e, n, side):
        dist_a, dist_b = DiscreteDistribution([0.7, 0.1, 0.1, 0.1]), uniform_distribution(4)
        args = (n + 5, n + 6, n, side, side, dist_a, dist_b, e)
        tally = np.zeros(4, np.int64)
        _, noisy = dataio._noisy_two_class_images(*args, tally)
        np.testing.assert_array_equal(tally, np.bincount(noisy.ravel(), minlength=4))
        assert noisy.tobytes() == dataio._noisy_two_class_images(*args)[1].tobytes()


class TestImagesCsv:
    def test_round_trip_labeled(self, tmp_path):
        ds = gen_two_class_images(
            6, 3, 2, 2, DiscreteDistribution([0.5, 0.5]), DiscreteDistribution([0.5, 0.5])
        )
        path = tmp_path / "imgs.csv"
        save_images_csv(ds, path)
        assert path.read_text().splitlines()[0] == "label,p0,p1,p2,p3"
        again = load_images_csv(path, width=2, height=2, alphabet_size=2)
        np.testing.assert_array_equal(again.images, ds.images)
        np.testing.assert_array_equal(again.labels, ds.labels)

    def test_round_trip_unlabeled(self, tmp_path):
        ds = ImageDataset(2, 1, 3, [[0, 2], [1, 1]])
        path = tmp_path / "imgs.csv"
        save_images_csv(ds, path)
        again = load_images_csv(path)
        assert again.labels is None
        np.testing.assert_array_equal(again.images, ds.images)

    def test_mixed_labels_rejected(self, tmp_path):
        p = write(tmp_path, "im.csv", "label,p0\n0,1\n,0\n")
        with pytest.raises(FileFormatError, match="mix"):
            load_images_csv(p)

    def test_bad_pixel(self, tmp_path):
        p = write(tmp_path, "im.csv", "label,p0\n0,x\n")
        with pytest.raises(FileFormatError, match="line 2"):
            load_images_csv(p)

    def test_bad_header(self, tmp_path):
        p = write(tmp_path, "im.csv", "id,p0\n0,1\n")
        with pytest.raises(FileFormatError, match="header"):
            load_images_csv(p)

    def test_geometry_mismatch(self, tmp_path):
        p = write(tmp_path, "im.csv", "label,p0,p1\n0,1,0\n")
        with pytest.raises(ValueError, match="geometry"):
            load_images_csv(p, width=3, height=1)

    def test_ragged_row(self, tmp_path):
        p = write(tmp_path, "im.csv", "label,p0,p1\n0,1\n")
        with pytest.raises(FileFormatError, match="cells"):
            load_images_csv(p)


class TestImagesCsvInputErrors:
    @pytest.mark.parametrize("cell", ["99999999999999999999", "-9223372036854775809"])
    def test_pixel_beyond_int64_rejected(self, tmp_path, cell):
        p = write(tmp_path, "im.csv", f"label,p0,p1\n0,1,0\n1,0,{cell}\n")
        with pytest.raises(
            FileFormatError, match=f"im.csv: line 3: pixel value '{cell}' outside the 64-bit range"
        ):
            load_images_csv(p, alphabet_size=2)

    def test_label_beyond_int64_rejected(self, tmp_path):
        p = write(tmp_path, "im.csv", "label,p0\n99999999999999999999,1\n")
        with pytest.raises(
            FileFormatError,
            match="line 2: label '99999999999999999999' outside the 64-bit range",
        ):
            load_images_csv(p)

    def test_int64_limits_accepted(self, tmp_path):
        p = write(tmp_path, "im.csv", "label,p0\n-9223372036854775808,1\n9223372036854775807,0\n")
        ds = load_images_csv(p)
        assert ds.labels.tolist() == [-(2**63), 2**63 - 1]

    @pytest.mark.parametrize("cell", ["\x1c3", "3\x1f", "\u01fe", "\u0763"])
    def test_cells_numpy_misreads_are_rejected(self, tmp_path, cell):
        # numpy's integer parser reads these as 3 or as garbage digits.
        p = tmp_path / "im.csv"
        p.write_text(f"label,p0\n0,{cell}\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match="line 2: non-integer pixel value"):
            load_images_csv(p)

    def test_oversized_cell_rejected_naming_file(self, tmp_path):
        p = write(tmp_path, "im.csv", "label,p0\n0," + "0" * 200_000 + "\n")
        with pytest.raises(FileFormatError, match="im.csv: line 2: field larger than field limit"):
            load_images_csv(p)

    def test_oversized_series_cell_rejected_naming_file(self, tmp_path):
        p = write(tmp_path, "s.csv", "date,value\n1," + "1" * 200_000 + "\n")
        with pytest.raises(FileFormatError, match="s.csv: line 2: field larger than field limit"):
            load_csv(p)

    def test_long_rows_of_short_cells_parse(self, tmp_path):
        p = write(tmp_path, "im.csv", "label," + ",".join(f"p{i}" for i in range(70_000))
                  + "\n1," + ",".join(["1"] * 70_000) + "\n")
        assert load_images_csv(p).images.shape == (1, 70_000)

    @pytest.mark.parametrize("loader, text", [
        (load_images_csv, "label,p0\n0,1\n1,0 \xe9\n"),
        (load_csv, "date,value\n1,1.0\n2,2.0 \xe9\n"),
    ], ids=["images", "series"])
    def test_latin1_file_rejected_naming_file(self, tmp_path, loader, text):
        p = tmp_path / "latin.csv"
        p.write_bytes(text.encode("latin-1"))
        with pytest.raises(FileFormatError, match="latin.csv: not UTF-8 text"):
            loader(p)

    def test_empty_body_warns_nothing(self, tmp_path):
        p = write(tmp_path, "im.csv", "label,p0\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FileFormatError, match="no data rows"):
                load_images_csv(p)


ODD_PIXEL_CELLS = [
    "", " ", " 3", "3 ", "+3", "03", "\t3", "-0", "1_000", "\uff13", "\u0663", "\u01fe",
    "\x1c3", "\x0b3", "3.0", "1e3", "x", '"3"', '"1,2"', "#3",
    "99999999999999999999", "-9223372036854775809", "9223372036854775807",
]
ODD_IMAGE_RECORDS = ["", "   ", ",", " , ", "#", "#1,2"]


@st.composite
def image_texts(draw):
    """CSV texts near the ``label,p0,...`` format, some well formed, some not;
    in some, one cell of an otherwise plain file is odd."""
    n_pixels = draw(st.integers(1, 4))
    header = ",".join(["label"] + [f"p{i}" for i in range(n_pixels)])
    if chance(draw, 5):
        header = draw(st.sampled_from(["id,p0", "label", " label , p0 "]))
    labeled = draw(st.booleans())
    bad = draw(st.sampled_from([0, 0, 5, 20]))  # percent of rows with a defect
    records = []
    for _ in range(draw(st.integers(0, 8))):
        if chance(draw, 15):
            records.append([draw(st.sampled_from(ODD_IMAGE_RECORDS))])
        label = str(draw(st.integers(-2, 3))) if labeled != chance(draw, bad // 2) else ""
        cells = [label] + [str(draw(st.integers(0, 5))) for _ in range(n_pixels)]
        if chance(draw, bad):
            k = draw(st.integers(0, n_pixels))
            cells[k] = draw(st.sampled_from(ODD_PIXEL_CELLS))
        if chance(draw, bad):
            cells = cells[: draw(st.integers(0, n_pixels))] if chance(draw, 50) else cells + ["1"]
        records.append(cells)
    if any(records) and chance(draw, 30):
        cells = draw(st.sampled_from([cells for cells in records if cells]))
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(ODD_PIXEL_CELLS))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [header] + [",".join(cells) for cells in records]
    return newline.join(lines) + (newline if draw(st.booleans()) else "")


class TestLoadImagesCsvMatchesLoop:
    """The numpy-parsed reader against the row loop in ``tests/oracles.py``."""

    @staticmethod
    def assert_same(text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "im.csv"
            path.write_text(text, encoding="utf-8", newline="")
            try:
                expected = load_images_csv_loop(path)
            except ValueError as exc:
                expected = str(exc)
            try:
                ds = load_images_csv(path)
                got = (None if ds.labels is None else ds.labels.tolist(), ds.images.tolist())
            except FileFormatError as exc:
                got = str(exc)
        assert got == expected

    @settings(max_examples=400, deadline=None)
    @given(text=image_texts())
    def test_same_images_or_same_error(self, text):
        self.assert_same(text)

    @pytest.mark.parametrize("cell", ODD_PIXEL_CELLS)
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_one_odd_cell_in_a_plain_file(self, cell, newline):
        rows = ["label,p0,p1", "0,1,2", f"1,{cell},0", "1,3,3"]
        self.assert_same(newline.join(rows) + newline)

    @pytest.mark.parametrize("record", ODD_IMAGE_RECORDS)
    def test_one_odd_record_in_a_plain_file(self, record):
        self.assert_same(f"label,p0,p1\n0,1,2\n{record}\n1,3,3\n")


LONG_WIDTHS, LONG_ODDS = [2, 3, 17, 18, 19, 20], [0.3, 0.3, 0.15, 0.15, 0.05, 0.05]


@st.composite
def digit_image_texts(draw):
    """``label,p0,...`` texts of digit cells, mostly one digit wide: 0-300
    lines, some with cells of 2-20 digits (leading zeros included), which
    the grid read hands to the row reader, up to 19 and 20 digits, past
    int64; LF and CRLF line ends, mixed or not.  Some texts also hold a lone
    CR, a blank line or an empty cell, or lack the last line's end."""
    n_pixels = draw(st.integers(1, 4))
    n_rows = draw(st.sampled_from([0, 1, 63, 64, 65, 128, 129]) | st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    long_share = draw(st.sampled_from([0.0, 0.0, 0.01, 0.2]))
    ends = draw(st.sampled_from([["\n"], ["\r\n"], ["\n", "\r\n"]]))
    records = []
    for _ in range(n_rows):
        cells = []
        for _ in range(n_pixels + 1):
            width = int(rng.choice(LONG_WIDTHS, p=LONG_ODDS)) if rng.random() < long_share else 1
            cells.append("".join(map(str, rng.integers(0, 10, width))))
        records.append(",".join(cells) + str(rng.choice(ends)))
    defect = draw(st.sampled_from([None] * 3 + ["lone cr", "blank line", "empty cell"]))
    if defect and records:
        at = draw(st.integers(0, len(records) - 1))
        if defect == "lone cr":
            records[at] = records[at].rstrip("\r\n") + "\r"
        elif defect == "blank line":
            records.insert(at, draw(st.sampled_from(ends)))
        else:
            cells = records[at].split(",")
            cells[draw(st.integers(0, n_pixels))] = ""
            records[at] = ",".join(cells)
            if not records[at].endswith("\n"):
                records[at] += "\n"
    header = ",".join(["label"] + [f"p{i}" for i in range(n_pixels)])
    text = header + ("\r" if defect == "lone cr" and not records else draw(st.sampled_from(ends)))
    text += "".join(records)
    return text.rstrip("\r\n") if draw(st.booleans()) and records else text


class TestByteReaderMatchesLoop:
    """The grid read, and the row reader it hands every other file to,
    against the row loop in ``tests/oracles.py``."""

    @settings(max_examples=200, deadline=None)
    @given(text=digit_image_texts())
    def test_same_images_or_same_error(self, text):
        TestLoadImagesCsvMatchesLoop.assert_same(text)

    @pytest.mark.parametrize("text", [
        "label,p0\r0,1\n",  # a lone CR ends the header
        "label,p0\n0,1\r1,2\n",
        "label,p0\r\n0,1\r\r\n",
        "label,p0\n0,1\n\n1,2",
        "label,p0\n0,\n",
        "label,p0\n,0\n",
        "label,p0,p1\n0,1,2,\n",
        "label,p0\n0," + "9" * 18 + "\n",
        "label,p0\n0," + "0" * 18 + "7\n",
        "label,p0\n0,9223372036854775807\n",
        "label,p0\n0,9223372036854775808\n",
    ])
    def test_edges_of_the_grammar(self, text):
        TestLoadImagesCsvMatchesLoop.assert_same(text)

    @pytest.mark.parametrize("write_file", ["savetxt", "save_images_csv"])
    def test_benchmark_shaped_file_reaches_neither_row_reader_nor_loadtxt(
        self, tmp_path, write_file
    ):
        # 1,000 x 784 one-digit pixels, with LF (numpy) or CRLF (csv) ends,
        # on disk and in a pipe
        rng = np.random.default_rng(14)
        images, labels = rng.integers(0, 4, (1000, 784)), rng.integers(0, 2, 1000)
        p = tmp_path / "im.csv"
        if write_file == "savetxt":
            header = "label," + ",".join(f"p{i}" for i in range(784))
            np.savetxt(p, np.column_stack([labels, images]), fmt="%d", delimiter=",",
                       header=header, comments="")
        else:
            save_images_csv(ImageDataset(28, 28, 4, images, labels), p)
        with mock.patch.object(dataio, "_read_image_rows", side_effect=AssertionError), \
                mock.patch.object(np, "loadtxt", side_effect=AssertionError), \
                fed_pipe(p.read_bytes()) as pipe:
            for source in (p, pipe):
                ds = load_images_csv(source, 28, 28, 4)
                assert ds.images.dtype == np.uint8
                np.testing.assert_array_equal(ds.images, images)
                assert ds.labels.tobytes() == labels.tobytes()

    def test_cell_over_a_lowered_field_limit_gets_the_row_readers_message(self, tmp_path):
        p = write(tmp_path, "im.csv", "label,p0\n0,1\n1,123456\n")
        limit = csv.field_size_limit(5)  # "label" fits; the cell of 6 digits does not
        try:
            with pytest.raises(FileFormatError) as got:
                load_images_csv(p)
        finally:
            csv.field_size_limit(limit)
        assert str(got.value) == f"{p}: line 3: field larger than field limit (5)"


@st.composite
def mutated_grid_texts(draw):
    """A one-digit grid file, LF or CRLF, with or without its last line's
    end, and with one byte changed, inserted or deleted at a sampled
    position (or left as it is)."""
    n_pixels, n_rows = draw(st.integers(1, 4)), draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(["label"] + [f"p{i}" for i in range(n_pixels)])]
    lines += [",".join(map(str, row)) for row in rng.integers(0, 10, (n_rows, n_pixels + 1))]
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    edit = draw(st.sampled_from(["change", "insert", "delete", None]))
    if edit is None:
        return text
    at = draw(st.integers(len(lines[0]) + 1, len(text) - (edit != "insert")))
    byte = draw(st.sampled_from(list("0123456789,\r\n +x\"")))  # no "-": ImageDataset refuses it
    keep = at + (edit != "insert")  # change and delete drop the byte at `at`
    return text[:at] + ("" if edit == "delete" else byte) + text[keep:]


class TestDigitGrid:
    """Bodies of one-digit cells are read as one fixed-width grid."""

    @pytest.mark.parametrize("write_file", ["savetxt", "save_images_csv"])
    def test_benchmark_shaped_file_takes_the_grid_read(self, tmp_path, write_file):
        # 1,000 x 784 one-digit pixels, LF (numpy) or CRLF (csv) ends, on disk
        # and in a pipe: the grid read itself returns the labels and images
        rng = np.random.default_rng(18)
        images, labels = rng.integers(0, 4, (1000, 784)), rng.integers(0, 2, 1000)
        p = tmp_path / "im.csv"
        if write_file == "savetxt":
            header = "label," + ",".join(f"p{i}" for i in range(784))
            np.savetxt(p, np.column_stack([labels, images]), fmt="%d", delimiter=",",
                       header=header, comments="")
        else:
            save_images_csv(ImageDataset(28, 28, 4, images, labels), p)
        grid_reads, parse = [], dataio._parse_digit_rows

        def grid_read(*args):
            grid_reads.append(parse(*args))
            return grid_reads[-1]

        with mock.patch.object(dataio, "_parse_digit_rows", side_effect=grid_read), \
                fed_pipe(p.read_bytes()) as pipe:
            for source in (p, pipe):
                load_images_csv(source, 28, 28, 4)
        assert len(grid_reads) == 2
        for got_labels, got_images in grid_reads:
            assert got_labels.tobytes() == labels.tobytes()
            assert got_images.dtype == np.uint8
            np.testing.assert_array_equal(got_images, images)

    @pytest.mark.parametrize("high, ends", [
        (100, ["\n"]),  # cells of one and two digits
        (256, ["\r\n"]),  # cells 0-255
        (10, ["\n", "\r\n"]),  # one-digit cells, LF and CRLF lines alternating
    ], ids=["two-digit", "0-255", "mixed-ends"])
    def test_other_digit_files_reach_the_row_reader(self, tmp_path, high, ends):
        rng = np.random.default_rng(19)
        rows = rng.integers(0, high, (40, 9))
        lines = ["label," + ",".join(f"p{i}" for i in range(8))]
        lines += [",".join(map(str, row)) for row in rows]
        text = "".join(line + ends[i % len(ends)] for i, line in enumerate(lines))
        p = write(tmp_path, "im.csv", text)
        with mock.patch.object(dataio, "_read_image_rows",
                               wraps=dataio._read_image_rows) as row_reader:
            ds = load_images_csv(p)
        assert row_reader.call_count == 1
        assert (ds.labels.tolist(), ds.images.tolist()) == load_images_csv_loop(p)
        assert ds.images.tolist() == rows[:, 1:].tolist()

    def test_row_reader_loads_the_grid_reads_dtype(self, tmp_path):
        # one corpus, saved as a plain grid and with one quoted cell, which
        # sends the file to the row reader: the same uint8 images either way
        rng = np.random.default_rng(24)
        images, labels = rng.integers(0, 10, (30, 6)), rng.integers(0, 2, 30)
        grid = tmp_path / "grid.csv"
        save_images_csv(ImageDataset(6, 1, 10, images, labels), grid)
        head, first, rest = grid.read_text().split("\n", 2)
        cells = first.split(",")
        cells[1] = f'"{cells[1]}"'
        quoted = write(tmp_path, "quoted.csv", "\n".join([head, ",".join(cells), rest]))
        with mock.patch.object(dataio, "_read_image_rows",
                               wraps=dataio._read_image_rows) as row_reader:
            loaded = [load_images_csv(p) for p in (grid, quoted)]
        assert row_reader.call_count == 1
        for ds in loaded:
            assert ds.images.dtype == np.uint8
            np.testing.assert_array_equal(ds.images, images)
            assert ds.labels.tobytes() == labels.tobytes()

    @pytest.mark.parametrize("cells, dtype", [
        ("0,255", np.uint8), ("0,256", np.int64), ("0,12\n1,1000", np.int64),
    ])
    def test_row_reader_widens_past_a_byte(self, tmp_path, cells, dtype):
        ds = load_images_csv(write(tmp_path, "im.csv", "label,p0\n" + cells + "\n"))
        assert ds.images.dtype == dtype
        assert ds.images.ravel().tolist() == [int(r.split(",")[1]) for r in cells.split("\n")]

    @settings(max_examples=400, deadline=None)
    @given(text=mutated_grid_texts())
    def test_one_byte_edit_gives_the_loops_images_or_message(self, text):
        TestLoadImagesCsvMatchesLoop.assert_same(text)

    @pytest.mark.parametrize("text", [
        "label,p0\n",  # header only: an empty body
        "label,p0\r\n",
        "label,p0\n0,1\r\n1,2\n",  # mixed ends
        "label,p0\r\n0,1\n1,2\r\n",
        "label,p0\n0,1\n12,2\n",  # one two-digit cell
        "label,p0\n0,1\n1,\n",  # one blank cell
        "label,p0\n0,1\n1,2,3\n",
        "label,p0\n0,1\n\n",
    ])
    def test_bodies_off_the_grid(self, text):
        TestLoadImagesCsvMatchesLoop.assert_same(text)

    def test_field_limit_under_one_digit(self):
        # A file's "label" cell already needs a limit of 5, so the body
        # parser is called directly: it hands the grid to the row reader.
        fh = io.TextIOWrapper(io.BytesIO(b"0,1\n1,2\n"), encoding="utf-8", newline="")
        limit = csv.field_size_limit(0)
        try:
            assert dataio._parse_digit_rows(fh, 0, 1) is None
        finally:
            csv.field_size_limit(limit)
        assert dataio._parse_digit_rows(fh, 0, 1) is not None


def piped(text):
    """``text`` written into a fresh pipe and closed; returns the ``/dev/fd/N``
    path of the read end and that descriptor, which the caller closes."""
    data = text.encode("utf-8")
    assert len(data) < 60_000, "must fit the pipe buffer, or the write blocks"
    read_fd, write_fd = os.pipe()
    with os.fdopen(write_fd, "wb") as fh:
        fh.write(data)
    return f"/dev/fd/{read_fd}", read_fd


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
class TestPipedImages:
    """An image file read from a pipe gives what the same file on disk gives,
    on the numpy path and on the row reader's path."""

    @staticmethod
    def load(text, tmp_path):
        on_disk = write(tmp_path, "im.csv", text)
        path, fd = piped(text)
        try:
            results = []
            for source in (on_disk, path):
                try:
                    ds = load_images_csv(source)
                    labels = None if ds.labels is None else ds.labels.tolist()
                    results.append((labels, ds.images.tolist()))
                except FileFormatError as exc:
                    results.append(str(exc).replace(str(source), "<file>"))
        finally:
            os.close(fd)
        return results

    @pytest.mark.parametrize("text", [
        "label,p0,p1\n0,1,2\n1,3,0\n",  # numpy path
        "label,p0,p1\n,1,2\n,3,0\n",  # blank labels: row reader
        "label,p0,p1\r\n0,1,2\r\n\r\n1,3,0\r\n",
    ], ids=["labeled", "unlabeled", "crlf-blank-line"])
    def test_same_dataset(self, tmp_path, text):
        from_disk, from_pipe = self.load(text, tmp_path)
        assert not isinstance(from_pipe, str)
        assert from_pipe == from_disk

    @pytest.mark.parametrize("text, message", [
        ("label,p0,p1\n0,1,2\n1,x,0\n", "<file>: line 3: non-integer pixel value"),
        ("label,p0,p1\n,1,2\n,3,0,4\n", "<file>: line 3: expected 3 cells, got 4"),
    ], ids=["bad-pixel", "cell-count"])
    def test_same_error(self, tmp_path, text, message):
        assert self.load(text, tmp_path) == [message, message]

    def test_oversized_cell(self, tmp_path):
        limit = csv.field_size_limit(100)  # a cell over the default fills the pipe
        try:
            results = self.load("label,p0\n0,1\n1," + "0" * 200 + "\n", tmp_path)
        finally:
            csv.field_size_limit(limit)
        assert results == ["<file>: line 3: field larger than field limit (100)"] * 2

    @pytest.mark.parametrize("cell", ODD_PIXEL_CELLS)
    def test_odd_cell(self, tmp_path, cell):
        from_disk, from_pipe = self.load(f"label,p0,p1\n0,1,2\n1,{cell},0\n", tmp_path)
        assert from_pipe == from_disk


def traced_peak(load, source) -> int:
    """Peak bytes that ``tracemalloc`` traces while ``load(source)`` runs."""
    tracemalloc.start()
    try:
        load(source)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("kind", ["images", "series"])
def test_piped_load_holds_the_file_once(tmp_path, kind):
    # A piped load holds the pipe's bytes, once, beyond what a load from disk
    # holds: not its decoded text as well.
    p = tmp_path / "f.csv"
    if kind == "images":
        rng = np.random.default_rng(14)
        save_images_csv(ImageDataset(28, 28, 4, rng.integers(0, 4, (1000, 784)),
                                     rng.integers(0, 2, 1000)), p)
        load = load_images_csv
    else:
        p.write_text(benchmark_shaped_series(20_000)[0])
        load = load_csv
    load(p)  # once untraced, so that neither traced load pays for first-call set-up
    on_disk = traced_peak(load, p)
    with fed_pipe(p.read_bytes()) as pipe:
        from_pipe = traced_peak(load, pipe)
    assert from_pipe <= on_disk + 1.25 * p.stat().st_size


# --- the CSV writer ------------------------------------------------------------

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1e308, -1e308, 0.1,
                  1 / 3, 2.0**53 + 2, 123456789.0, float("inf"), float("-inf")]
INT64_EDGES = [2**63 - 1, -(2**63 - 1), -(2**63), 0, -1]
COLUMN_KINDS = ["float", "float_list", "int", "date", "iso_date", "blank", "label"]


def csv_writer_file(path, header, rows):
    """The reference: ``csv.writer`` writing Python cells a row at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def writer_column(kind, n, rng):
    """``(column as passed to _write_csv, the cells csv.writer is given)``."""
    if kind in ("float", "float_list"):
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        special = rng.random(n) < 0.3
        values[special] = rng.choice(SPECIAL_FLOATS, int(special.sum()))
        cells = [float(v) for v in values]
        return (values if kind == "float" else cells), cells
    if kind == "blank":
        return repeat("", n), [""] * n
    if kind in ("int", "label"):
        values = rng.integers(-(2**63), 2**63 - 1, n, endpoint=True)
        edge = rng.random(n) < 0.3
        values[edge] = rng.choice(INT64_EDGES, int(edge.sum()))
        return values, [int(v) for v in values]
    ordinals = rng.integers(1, datetime.date.max.toordinal(), n, endpoint=True)
    iso = kind == "iso_date"
    cells = [datetime.date.fromordinal(int(t)).isoformat() if iso else int(t) for t in ordinals]
    return dataio._date_cells(ordinals, iso), cells


class TestWriteCsv:
    """``_write_csv`` writes the bytes ``csv.writer`` writes."""

    @settings(max_examples=150, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=4).filter(
            lambda kinds: kinds != ["blank"]  # csv.writer quotes a lone blank cell
        ),
        header_cells=st.lists(st.text(alphabet=' ,"\'ab;é\r\n', max_size=5), max_size=4),
        n=st.sampled_from([0, 1, 2, 7, 1023, 1024, 1025]),
        chunk=st.sampled_from([1, 3, 1024]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bytes_match_csv_writer(self, kinds, header_cells, n, chunk, seed):
        rng = np.random.default_rng(seed)
        header = (header_cells + [f"c{i}" for i in range(len(kinds))])[: len(kinds)]
        columns, cells = zip(*(writer_column(kind, n, rng) for kind in kinds))
        with tempfile.TemporaryDirectory() as tmp:
            ours, reference = Path(tmp) / "ours.csv", Path(tmp) / "reference.csv"
            with mock.patch.object(dataio, "_CHUNK_ROWS", chunk):
                dataio._write_csv(ours, header, *columns)
            csv_writer_file(reference, header, zip(*cells))
            assert ours.read_bytes() == reference.read_bytes()

    def test_empty_score_and_curve_files_hold_the_header(self, tmp_path):
        save_scores_csv([], tmp_path / "scores.csv")
        save_curve_csv([], tmp_path / "curve.csv")
        assert (tmp_path / "scores.csv").read_bytes() == b"index,label,score\r\n"
        assert (tmp_path / "curve.csv").read_bytes() == b"e,error_probability,n_images,seed\r\n"

    @pytest.mark.parametrize("chunk", [1, 3, 1024])
    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025])
    def test_public_writers(self, tmp_path, n, chunk):
        rng = np.random.default_rng(n)
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        values[: min(n, 4)] = [-0.0, 5e-324, 1e16, 1e308][: min(n, 4)]
        stamps = np.cumsum(rng.integers(1, 4, n)) + datetime.date(1999, 12, 30).toordinal()
        images = rng.integers(0, 4, (n, 3))
        labels = rng.integers(-(2**63), 2**63 - 1, n, endpoint=True)
        scored = [ScoredItem(i, float(v), None if i % 2 else int(labels[i]))
                  for i, v in enumerate(values)]
        points = [CurvePoint(float(v), abs(float(v)), i, 2**63 - 1 - i)
                  for i, v in enumerate(values)]
        dates = [datetime.date.fromordinal(int(t)).isoformat() for t in stamps]
        cases = [
            (lambda p: save_csv(TimeSeries("s", stamps, values), p, "t ,\"x\"", "v"),
             ["t ,\"x\"", "v"], zip(stamps.tolist(), values.tolist())),
            (lambda p: save_csv(TimeSeries("s", stamps, values, iso_dates=True), p),
             ["date", "value"], zip(dates, values.tolist())),
            (lambda p: save_images_csv(ImageDataset(3, 1, 4, images, labels), p),
             ["label", "p0", "p1", "p2"], ([int(l), *r] for l, r in zip(labels, images.tolist()))),
            (lambda p: save_images_csv(ImageDataset(1, 3, 4, images), p),
             ["label", "p0", "p1", "p2"], (["", *r] for r in images.tolist())),
            (lambda p: save_scores_csv(scored, p),
             ["index", "label", "score"],
             ([s.index, "" if s.label is None else s.label, s.score] for s in scored)),
            (lambda p: save_curve_csv(points, p),
             ["e", "error_probability", "n_images", "seed"],
             ([p.e, p.error_probability, p.n_images, p.seed] for p in points)),
        ]
        for k, (write_ours, header, rows) in enumerate(cases):
            ours, reference = tmp_path / f"ours{k}.csv", tmp_path / f"ref{k}.csv"
            with mock.patch.object(dataio, "_CHUNK_ROWS", chunk):
                write_ours(ours)
            csv_writer_file(reference, header, rows)
            assert ours.read_bytes() == reference.read_bytes(), k


@st.composite
def aligned_inputs(draw):
    """2-4 series on one integer clock, each starting up to 20 steps after a
    shared (possibly huge or negative) base and stepping by random gaps."""
    base = draw(st.integers(-(10**12), 10**12))
    series = []
    for i in range(draw(st.integers(2, 4))):
        gaps = draw(st.lists(st.integers(1, 4), max_size=30))
        ts = base + draw(st.integers(0, 20)) + np.cumsum([0] + gaps)
        values = draw(st.lists(st.floats(-1e6, 1e6), min_size=ts.size, max_size=ts.size))
        series.append(TimeSeries(f"s{i}", ts, values))
    return series, draw(st.sampled_from(ALIGN_POLICIES))


@st.composite
def one_clock_inputs(draw):
    """2-4 series on copies of one clock, or on that clock with rows dropped
    from some series (each keeps its first and last row)."""
    gaps = draw(st.lists(st.integers(1, 4), max_size=30))
    clock = draw(st.integers(-(10**12), 10**12)) + np.cumsum([0] + gaps)
    series = []
    for i in range(draw(st.integers(2, 4))):
        keep = np.ones(clock.size, dtype=bool)
        if draw(st.booleans()):
            inner = max(clock.size - 2, 0)
            keep[1:-1] = draw(st.lists(st.booleans(), min_size=inner, max_size=inner))
        rows = int(keep.sum())
        values = draw(st.lists(st.floats(-1e6, 1e6), min_size=rows, max_size=rows))
        series.append(TimeSeries(f"s{i}", clock[keep], values))
    return series, draw(st.sampled_from(ALIGN_POLICIES))


@settings(max_examples=200, deadline=None)
@given(one_clock_inputs())
def test_align_on_shared_and_gappy_clocks_matches_the_scan(case):
    series, policy = case
    want_ts, want_rows = align_loop([(s.timestamps, s.values) for s in series], policy)
    ts, mat = align(series, policy)
    assert ts.tolist() == want_ts
    assert mat.tolist() == want_rows
    assert not any(np.shares_memory(ts, s.timestamps) for s in series)


@pytest.mark.parametrize("policy", ALIGN_POLICIES)
def test_one_clock_is_returned_as_a_copy(policy):
    clock = np.arange(5, dtype=np.int64)
    series = [TimeSeries(f"s{i}", clock, np.arange(5.0) + i) for i in range(3)]
    ts, mat = align(series, policy)
    ts[0] = 99
    assert series[0].timestamps[0] == 0
    assert mat.tolist() == [[0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0, 5.0],
                            [2.0, 3.0, 4.0, 5.0, 6.0]]


@settings(max_examples=300, deadline=None)
@given(aligned_inputs())
def test_align_matches_per_timestamp_scan(case):
    series, policy = case
    want_ts, want_rows = align_loop([(s.timestamps, s.values) for s in series], policy)
    if not want_ts:
        with pytest.raises(ValueError, match="no timestamps"):
            align(series, policy)
        return
    ts, mat = align(series, policy)
    assert ts.tolist() == want_ts
    assert mat.tolist() == want_rows
