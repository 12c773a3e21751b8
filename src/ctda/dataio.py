"""Time-series and image-dataset containers, CSV ingestion and generators.

CSV layouts:

* time series: header ``date,value`` (column names overridable); the date
  column holds either plain integers or ISO ``YYYY-MM-DD`` dates, which are
  mapped to proleptic-Gregorian ordinals so gaps and ordering survive.
* image datasets: header ``label,p0,p1,...``; the label cell may be blank
  when the dataset is unlabeled.

All random generation is driven by explicit integer seeds through
``numpy.random.default_rng`` so identical calls reproduce identical data.
"""

from __future__ import annotations

import csv
import datetime as _dt
import io
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, compress, count, islice, repeat
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from .stats import Channel, DiscreteDistribution, FileFormatError


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A named scalar series sampled at strictly increasing integer times.

    ``iso_dates`` records whether the timestamps were parsed from calendar
    dates (and should be rendered back as such) or were plain integers.
    """

    name: str
    timestamps: np.ndarray
    values: np.ndarray
    iso_dates: bool = False

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.int64)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)
        if ts.ndim != 1 or vals.ndim != 1 or ts.size != vals.size:
            raise ValueError("timestamps and values must be 1-D and equal length")
        if ts.size == 0:
            raise ValueError(f"series {self.name!r} is empty")
        if np.any(not_after := ts[1:] <= ts[:-1]):  # np.diff can overflow
            at = int(np.flatnonzero(not_after)[0])
            raise ValueError(
                f"series {self.name!r}: timestamps not strictly increasing "
                f"at position {at + 1}"
            )
        if not np.all(np.isfinite(vals)):
            at = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise ValueError(f"series {self.name!r}: non-finite value at position {at}")

    def __len__(self) -> int:
        return int(self.timestamps.size)


_CHUNK_ROWS = 1024  # CSV rows converted per bulk step; bounds what is held at once


def _blocks(column):
    """``column`` as lists of at most ``_CHUNK_ROWS`` Python scalars."""
    if isinstance(column, np.ndarray):
        for lo in range(0, len(column), _CHUNK_ROWS):
            yield column[lo : lo + _CHUNK_ROWS].tolist()
    else:
        cells = iter(column)
        while block := list(islice(cells, _CHUNK_ROWS)):
            yield block


def _date_cells(timestamps: np.ndarray, iso: bool):
    """Date cells of ``timestamps``: the integers, or lazily their ISO dates."""
    if not iso:
        return timestamps
    ordinals = chain.from_iterable(_blocks(timestamps))
    return map(_dt.date.isoformat, map(_dt.date.fromordinal, ordinals))


def _write_csv(path, header: Sequence[str], *columns) -> None:
    """Write ``header`` and a row per position of ``columns`` as ``csv.writer``
    would.  No body cell needs quoting (numbers, dates, blank labels) and ``str``
    of a float is its ``repr``, so body rows come from one template."""
    template = ",".join(["%s"] * len(header)) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        for block in zip(*map(_blocks, columns)):
            fh.writelines(map(template.__mod__, zip(*block)))


@contextmanager
def _reading(path):
    """Open ``path`` as UTF-8 CSV text.  Undecodable bytes and csv-level
    failures (such as a cell over ``csv.field_size_limit()``) become a
    FileFormatError naming the file."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise FileFormatError(f"{path}: not UTF-8 text (byte 0x{byte:02x})") from None
    except csv.Error as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def _parse_times(cells: list, iso: Optional[bool]):
    """Stripped time cells as ``(int64 timestamps, iso)``, all of kind ``iso``
    (None: the first cell's).  Raises ValueError or OverflowError for a cell
    of another kind, e.g. a ``YYYYMMDD`` date, which reads as an integer."""
    if iso is None:
        try:
            int(cells[0])
            iso = False
        except ValueError:
            iso = True
    if not iso:
        return np.array(list(map(int, cells)), dtype=np.int64), False
    if any(map(str.isdigit, cells)):
        raise ValueError("integer cell among ISO dates")
    dates = map(_dt.date.fromisoformat, cells)
    return np.array(list(map(_dt.date.toordinal, dates)), dtype=np.int64), True


def _raise_first_bad_row(path, records, t_idx: int, v_idx: int, earlier, iso, error):
    """Raise the error of the first rejected row of ``(line, row)`` ``records``,
    which run from the first chunk the bulk conversion rejected to the end of
    the file or to ``error``, the csv.Error that cut it short (else None);
    ``earlier`` holds the timestamps accepted before, of kind ``iso``.  Never
    returns.  ``error`` is raised when no record before it fails, and an
    out-of-order row is reported only when no later row fails another check."""
    seen = set(earlier.tolist())
    last = int(earlier[-1]) if earlier.size else None
    out_of_order = None
    for line, row in records:
        if not "".join(row).strip():
            continue
        where = f"{path}: line {line}"
        if len(row) <= max(t_idx, v_idx):
            raise FileFormatError(f"{where}: too few columns")
        cell = row[t_idx]
        text = cell.strip()
        try:
            ts, row_iso = int(text), False
        except ValueError:
            try:
                ts, row_iso = _dt.date.fromisoformat(text).toordinal(), True
            except ValueError:
                raise FileFormatError(
                    f"{where}: cannot parse {cell!r} as an integer or ISO date"
                ) from None
        if not -(2**63) <= ts < 2**63:
            raise FileFormatError(f"{where}: timestamp {text!r} outside the 64-bit range")
        if iso is not None and row_iso != iso:
            raise FileFormatError(f"{where}: mixed integer and ISO-date timestamps")
        iso = row_iso
        if ts in seen:
            raise FileFormatError(f"{where}: duplicate timestamp {text!r}")
        seen.add(ts)
        try:
            value = float(row[v_idx])
        except ValueError:
            raise FileFormatError(f"{where}: cannot parse value {row[v_idx]!r}") from None
        if not math.isfinite(value):
            raise FileFormatError(f"{where}: non-finite value {row[v_idx]!r}")
        if out_of_order is None and last is not None and ts <= last:
            out_of_order = line
        last = ts
    if error is not None:
        raise error
    raise FileFormatError(f"{path}: line {out_of_order}: timestamps not strictly increasing")


def _series_columns(path, reader, time_column: str, value_column: str):
    """Indices of the time and value columns in the header row of ``reader``."""
    try:
        header = next(reader)
    except StopIteration:
        raise FileFormatError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    try:
        return header.index(time_column), header.index(value_column)
    except ValueError:
        raise FileFormatError(
            f"{path}: header {header!r} lacks columns "
            f"{time_column!r}/{value_column!r}"
        ) from None


def load_csv(path, time_column: str = "date", value_column: str = "value") -> TimeSeries:
    """Load one time series from a two-column CSV file, which may be a pipe.

    The series name is the file stem.  Duplicate or out-of-order timestamps,
    non-numeric or non-finite values, integer timestamps outside 64 bits and
    missing columns are all rejected with the offending line number.  When
    the first data row has an integer date and the body is ASCII without
    quotes, U+001C..U+001F or a line over ``csv.field_size_limit()``, numpy
    parses the two columns in one call, and its result is kept if every
    value is finite and the dates strictly increase.  Every other file (ISO
    dates, quoted or non-ASCII cells, any error) is read by the row reader,
    a chunk of rows at a time, which also finds the line to report.
    """
    name = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    with _reading(path) as fh:
        if not fh.seekable():  # a pipe: keep its text to read it again
            fh = io.StringIO(fh.read(), newline="")
        columns = _series_columns(
            path, csv.reader(iter(fh.readline, "")), time_column, value_column
        )
        parsed = _parse_plain_series(fh, fh.tell(), columns)
        if parsed is None:
            fh.seek(0)
            parsed = _read_series_rows(path, fh, time_column, value_column)
    return TimeSeries(name, *parsed)


def _parse_plain_series(fh, body, columns):
    """``(timestamps, values, False)`` of an integer-dated series whose body
    starts at position ``body`` of ``fh``, parsed by numpy, or None when the
    first data row's date is not an integer, ``_parse_plain`` rejects the
    body, or a value is not finite or the dates do not strictly increase."""
    try:
        first = next(row for row in csv.reader(fh) if "".join(row).strip())
        int(first[columns[0]])
    except (StopIteration, IndexError, ValueError, csv.Error):
        return None
    rows = _parse_plain(
        fh, body, usecols=columns, dtype=[("t", np.int64), ("v", np.float64)], ndmin=1
    )
    if rows is None:
        return None
    times, values = rows["t"], rows["v"]
    if not (np.isfinite(values).all() and (times[1:] > times[:-1]).all()):
        return None
    return times, values, False


def _read_series_rows(path, fh, time_column: str, value_column: str):
    """``(timestamps, values, iso)`` of the series file ``path`` open as
    ``fh``.  Each chunk of records is converted a column per call; a row scan
    only finds the line to report."""
    reader = csv.reader(fh)
    t_idx, v_idx = _series_columns(path, reader, time_column, value_column)
    times, values, iso = [], [], None
    tail = np.empty(0, dtype=np.int64)  # last accepted timestamp
    line = 2  # file line of the chunk's first record
    while True:
        raw, error = _next_records(reader)
        if not (raw or error):
            break
        rows = list(compress(raw, map(str.strip, map("".join, raw))))  # drop blanks
        ok = error is None
        if rows and ok:
            try:
                cells = list(map(str.strip, map(itemgetter(t_idx), rows)))
                ts, chunk_iso = _parse_times(cells, iso)
                vs = np.array(list(map(float, map(itemgetter(v_idx), rows))))
                run = np.concatenate((tail, ts))
                ok = bool(np.isfinite(vs).all() and (run[1:] > run[:-1]).all())
            except (IndexError, ValueError, OverflowError):
                ok = False
        if not ok:
            earlier = np.concatenate(times) if times else tail
            records = zip(count(line), raw if error else chain(raw, reader))
            _raise_first_bad_row(path, records, t_idx, v_idx, earlier, iso, error)
        if rows:
            times.append(ts)
            values.append(vs)
            iso, tail = chunk_iso, ts[-1:]
        line += len(raw)
    if not times:
        raise FileFormatError(f"{path}: no data rows")
    return np.concatenate(times), np.concatenate(values), iso


def _next_records(reader):
    """``(records, error)``: the next at most ``_CHUNK_ROWS`` records of
    ``reader``, and the csv.Error (e.g. a cell over ``csv.field_size_limit()``)
    that ended them early, else None."""
    records = []
    try:
        for row in islice(reader, _CHUNK_ROWS):
            records.append(row)
    except csv.Error as exc:
        return records, exc
    return records, None


def save_csv(series: TimeSeries, path, time_column="date", value_column="value") -> None:
    dates = _date_cells(series.timestamps, series.iso_dates)
    _write_csv(path, [time_column, value_column], dates, series.values)


ALIGN_POLICIES = ("inner", "forward_fill")


def align(series: Sequence[TimeSeries], policy: str = "inner"):
    """Place several series on one shared clock.

    ``inner`` keeps only timestamps present in every series; ``forward_fill``
    keeps the union of timestamps (starting once every series has begun) and
    carries each series' last observation forward across its gaps.

    Returns ``(timestamps, matrix)`` with ``matrix[m, t]`` the value of
    series ``m`` at shared time ``t``.
    """
    if len(series) < 2:
        raise ValueError("alignment needs at least two series")
    if policy not in ALIGN_POLICIES:
        raise ValueError(f"unknown alignment policy {policy!r}")
    if policy == "inner":
        shared = series[0].timestamps
        for s in series[1:]:
            shared = np.intersect1d(shared, s.timestamps, assume_unique=True)
        if shared.size == 0:
            raise ValueError("series share no timestamps under inner alignment")
    else:
        start = max(int(s.timestamps[0]) for s in series)
        shared = np.unique(np.concatenate([s.timestamps for s in series]))
        shared = shared[shared >= start]
    rows = []
    for s in series:
        # index of the last observation at or before each shared timestamp;
        # under ``inner`` the exact match, as timestamps strictly increase
        idx = np.searchsorted(s.timestamps, shared, side="right") - 1
        rows.append(s.values[idx])
    return shared, np.vstack(rows)


def split(values: np.ndarray, train_range, test_range, history: int = 0):
    """Cut train/test blocks out of an aligned value array.

    Ranges are half-open ``(start, stop)`` index pairs along the last axis;
    the test block is widened by ``history`` leading samples so models with
    memory can produce an estimate at the first test index.
    """
    values = np.asarray(values)
    n = values.shape[-1]
    (a, b), (c, d) = train_range, test_range
    if not (0 <= a < b <= n) or not (0 <= c < d <= n):
        raise ValueError(f"ranges must be within [0, {n}] and non-empty")
    if b > c:
        raise ValueError("training range must end before the test range begins")
    if history < 0 or history > c:
        raise ValueError("history must be >= 0 and not reach before index 0")
    return values[..., a:b], values[..., c - history : d]


def gen_fir_series(
    seed: int,
    n: int,
    coeffs: Sequence[Sequence[float]],
    input_process: str = "iid_gaussian",
    noise_sigma: float = 0.0,
):
    """Synthesize input channels and their tap-delay-line combination.

    Each entry of ``coeffs`` is one channel's tap vector ``c``; the target is
    ``y[t] = sum_m sum_l c_m[l] * x_m[t - l] + noise``, with ``x_m[t] = 0``
    for ``t < 0``.  Returns ``(x, y)`` where ``x`` has shape ``(M, n)``.
    """
    taps = [np.asarray(c, dtype=float) for c in coeffs]
    if not taps:
        raise ValueError("need at least one channel of coefficients")
    if any(t.ndim != 1 or t.size == 0 for t in taps):
        raise ValueError("each coefficient vector must be non-empty and 1-D")
    if n <= max(t.size for t in taps):
        raise ValueError("series length must exceed the longest tap vector")
    if noise_sigma < 0:
        raise ValueError("noise level must be nonnegative")
    if input_process not in ("iid_gaussian", "iid_binary"):
        raise ValueError(f"unknown input process {input_process!r}")

    rng = np.random.default_rng(seed)
    if input_process == "iid_gaussian":
        x = rng.standard_normal((len(taps), n))
    else:
        x = rng.integers(0, 2, size=(len(taps), n)) * 2.0 - 1.0
    y = np.zeros(n)
    for xm, c in zip(x, taps):
        y += np.convolve(xm, c)[:n]
    if noise_sigma > 0:
        y += noise_sigma * rng.standard_normal(n)
    return x, y


@dataclass(frozen=True, eq=False)
class ImageDataset:
    """Flattened discrete-valued images with optional integer labels.

    ``images[i]`` is image ``i`` in row-major pixel order; every pixel is a
    symbol in ``0 .. alphabet_size - 1``.
    """

    width: int
    height: int
    alphabet_size: int
    images: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        imgs = np.asarray(self.images, dtype=np.int64)
        object.__setattr__(self, "images", imgs)
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be positive")
        if self.alphabet_size < 2:
            raise ValueError("pixel alphabet needs at least 2 symbols")
        if imgs.ndim != 2 or imgs.shape[1] != self.width * self.height:
            raise ValueError(
                f"images must be (n, {self.width * self.height}); got {imgs.shape}"
            )
        if imgs.size and (imgs.min() < 0 or imgs.max() >= self.alphabet_size):
            raise ValueError("pixel value outside alphabet")
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            object.__setattr__(self, "labels", labels)
            if labels.shape != (imgs.shape[0],):
                raise ValueError("need exactly one label per image")

    @property
    def n_images(self) -> int:
        return int(self.images.shape[0])

    @property
    def n_pixels(self) -> int:
        return int(self.images.shape[1])


def gen_two_class_images(
    seed: int,
    n_per_class: int,
    width: int,
    height: int,
    dist_a: DiscreteDistribution,
    dist_b: DiscreteDistribution,
) -> ImageDataset:
    """Draw a balanced two-class corpus of i.i.d.-pixel images.

    Class 0 pixels are i.i.d. ``dist_a``; class 1 pixels i.i.d. ``dist_b``.
    Both distributions must share an alphabet.  Labels are attached.  Each
    class's pixels equal ``rng.choice(K, (n_per_class, pixels), p=probs)``
    on the same stream, class 0 first: one uniform draw per pixel, mapped
    through the class CDF.
    """
    if dist_a.size != dist_b.size:
        raise ValueError("class distributions must share an alphabet")
    if n_per_class < 1:
        raise ValueError("need at least one image per class")
    rng = np.random.default_rng(seed)
    images = np.empty((2 * n_per_class, width * height), dtype=np.int64)
    for rows, dist in zip((images[:n_per_class], images[n_per_class:]), (dist_a, dist_b)):
        # numpy's choice: cdf = p.cumsum() / its last entry, searchsorted
        # (side="right") of the draws, which counts the levels at or below
        # each draw; the last level is exactly 1, above every draw.
        cdf = dist.probs.cumsum()
        cdf /= cdf[-1]
        _count_levels(cdf[:-1], rng.random(rows.shape), rows)
    labels = np.repeat(np.arange(2, dtype=np.int64), n_per_class)
    return ImageDataset(width, height, dist_a.size, images, labels)


_BLOCK_ROWS = 32  # rows per step of _count_levels: its blocks stay in cache


def _count_levels(levels, u, out, symbols=None) -> None:
    """Set ``out`` to the number of CDF ``levels`` at or below each draw of
    ``u``: inverse-CDF sampling.  Each entry of ``levels`` is one level, a
    scalar or, with ``symbols``, a row indexed by each element's symbol.  Runs
    ``_BLOCK_ROWS`` rows at a time, so the blocks of ``u``, ``symbols`` and
    ``out`` stay in cache across the levels."""
    for lo in range(0, u.shape[0], _BLOCK_ROWS):
        block, draws = out[lo : lo + _BLOCK_ROWS], u[lo : lo + _BLOCK_ROWS]
        rows = None if symbols is None else symbols[lo : lo + _BLOCK_ROWS]
        block[...] = 0
        for level in levels:
            block += (level if rows is None else level[rows]) <= draws


def apply_channel_to_dataset(dataset: ImageDataset, channel: Channel, seed: int) -> ImageDataset:
    """Pass every pixel independently through a discrete channel.

    The output dataset lives on the channel's output alphabet; labels (if
    any) are carried over unchanged.  One uniform draw per pixel, in
    row-major order, is mapped through the output CDF of the pixel's
    symbol; the result equals whole-array sampling on the same draws.
    """
    if channel.n_inputs != dataset.alphabet_size:
        raise ValueError(
            f"channel expects {channel.n_inputs} input symbols, dataset has "
            f"{dataset.alphabet_size}"
        )
    rng = np.random.default_rng(seed)
    # Column cum[x] is the output CDF for input symbol x, and u in [0, 1)
    # picks the first level above u, i.e. counts the levels at or below u.
    # Levels at a column's total are set to inf: a total rounded below 1 may
    # be <= u.  The last level is always inf.
    cum = np.cumsum(channel.matrix, axis=0).T  # (Kx, Ky)
    cum[cum == cum[:, -1:]] = np.inf
    u = rng.random(dataset.images.shape)
    noisy = np.empty(u.shape, dtype=np.int64)
    _count_levels(cum[:, :-1].T, u, noisy, dataset.images)
    return ImageDataset(
        dataset.width,
        dataset.height,
        channel.n_outputs,
        noisy,
        None if dataset.labels is None else dataset.labels.copy(),
    )


def load_images_csv(
    path,
    width: Optional[int] = None,
    height: Optional[int] = None,
    alphabet_size: Optional[int] = None,
) -> ImageDataset:
    """Load an image dataset from ``label,p0,p1,...`` CSV.

    When the geometry is unknown the images are treated as 1 x n_pixels
    strips; the alphabet defaults to the largest pixel value + 1 (but at
    least 2 symbols).  When the body is ASCII without quotes, U+001C..U+001F
    or a line over ``csv.field_size_limit()``, numpy parses it in one call,
    and its result is kept if its rows are as wide as the header.  Every
    other file (blank labels, blank, quoted or non-ASCII cells, any error)
    is read a row at a time, which also finds the line to report.  The file
    may be a pipe.
    """
    with _reading(path) as fh:
        if not fh.seekable():  # a pipe: keep its text to read it again
            fh = io.StringIO(fh.read(), newline="")
        n_pixels = _images_header(path, csv.reader(iter(fh.readline, "")))
        body = _parse_plain(fh, fh.tell(), dtype=np.int64, ndmin=2)
        if body is not None and body.shape[0] and body.shape[1] == n_pixels + 1:
            labels, images = body[:, 0].copy(), np.ascontiguousarray(body[:, 1:])
        else:
            fh.seek(0)
            labels, images = _read_image_rows(path, fh)
    if width is None or height is None:
        width, height = n_pixels, 1
    if width * height != n_pixels:
        raise ValueError(
            f"declared {width}x{height} geometry does not match {n_pixels} pixels"
        )
    if alphabet_size is None:
        alphabet_size = max(2, int(images.max()) + 1) if images.size else 2
    return ImageDataset(width, height, alphabet_size, images, labels)


_SCREEN_CHARS = 1 << 16  # characters read per step of the plain-text screen

# numpy's number parsers read some cells that int() and float() reject: they
# take U+001C..U+001F for spaces, and the integer parser takes some non-ASCII
# letters for digits.
_NOT_INT_SPACES = "\x1c\x1d\x1e\x1f"


def _parse_plain(fh, start, **options):
    """``np.loadtxt(fh, **options)`` of the text from position ``start`` on,
    or None when numpy rejects it or the text is not plain.  Plain text is
    valid UTF-8 and ASCII, free of U+001C..U+001F and of quotes, and has no
    line (ended by ``\\n``) over ``csv.field_size_limit()``, so no cell the
    csv reader refuses as too long; numpy reads each of its cells as the csv
    reader with ``int`` or ``float`` does, or rejects it.  The text is
    screened in chunks before numpy reads it."""
    limit = csv.field_size_limit()
    size = max(1, min(_SCREEN_CHARS, limit))  # a line inside one chunk is short enough
    fh.seek(start)
    line = 0  # length of the line the chunks so far end in
    try:
        while chunk := fh.read(size):
            if not chunk.isascii() or '"' in chunk or any(c in chunk for c in _NOT_INT_SPACES):
                return None
            end = chunk.find("\n")
            if line + (len(chunk) if end < 0 else end) > limit:
                return None
            line = line + len(chunk) if end < 0 else len(chunk) - 1 - chunk.rfind("\n")
        fh.seek(start)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return np.loadtxt(fh, delimiter=",", comments=None, **options)
    except ValueError:  # also UnicodeDecodeError: the row reader reports it in place
        return None


def _images_header(path, reader) -> int:
    """Pixel count declared by the ``label,p0,...`` header row of ``reader``."""
    try:
        header = next(reader)
    except StopIteration:
        raise FileFormatError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    if not header or header[0] != "label" or len(header) < 2:
        raise FileFormatError(f"{path}: expected header 'label,p0,...'; got {header!r}")
    return len(header) - 1


def _read_image_rows(path, fh):
    """``(labels or None, images)`` of the image file ``path`` open as ``fh``,
    read a row at a time; raises FileFormatError naming the line of the first
    bad row."""
    reader = csv.reader(fh)
    n_pixels = _images_header(path, reader)
    rows = []
    labels: list[int] = []
    blank_labels = 0
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        where = f"{path}: line {line_no}"
        if len(row) != n_pixels + 1:
            raise FileFormatError(
                f"{where}: expected {n_pixels + 1} cells, got {len(row)}"
            )
        cell = row[0].strip()
        if cell:
            try:
                label = int(cell)
            except ValueError:
                raise FileFormatError(f"{where}: bad label {row[0]!r}") from None
            if not -(2**63) <= label < 2**63:
                raise FileFormatError(f"{where}: label {row[0]!r} outside the 64-bit range")
            labels.append(label)
        else:
            blank_labels += 1
        try:
            values = [int(c) for c in row[1:]]
        except ValueError:
            raise FileFormatError(f"{where}: non-integer pixel value") from None
        if min(values) < -(2**63) or max(values) >= 2**63:
            bad = next(c for c, v in zip(row[1:], values) if not -(2**63) <= v < 2**63)
            raise FileFormatError(f"{where}: pixel value {bad!r} outside the 64-bit range")
        rows.append(values)
    if not rows:
        raise FileFormatError(f"{path}: no data rows")
    if blank_labels and labels:
        raise FileFormatError(f"{path}: mix of labeled and unlabeled rows")
    labels = np.asarray(labels, dtype=np.int64) if labels else None
    return labels, np.asarray(rows, dtype=np.int64)


def save_images_csv(dataset: ImageDataset, path) -> None:
    header = ["label"] + [f"p{i}" for i in range(dataset.n_pixels)]
    labels = repeat("", dataset.n_images) if dataset.labels is None else dataset.labels
    _write_csv(path, header, labels, *dataset.images.T)
