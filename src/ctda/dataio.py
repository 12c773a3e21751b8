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
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, count, islice, repeat
from typing import Optional, Sequence

import numpy as np

from .stats import Channel, DiscreteDistribution, FileFormatError, parametric_channel


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


_CHUNK_ROWS = 1024  # rows formatted per step of _write_csv; bounds what is held at once


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
    """Open ``path`` as UTF-8 CSV text ``fh`` over seekable bytes,
    ``fh.buffer``, and read its header record: yields ``(fh, header, body)``,
    the header's stripped cells and the position of the record after it.  A
    pipe's bytes are copied into memory, so that they can be read again.  An
    empty file or undecodable bytes raise a FileFormatError naming the file."""
    try:
        with open(path, "rb") as raw:
            data = raw if raw.seekable() else io.BytesIO(raw.read())
            with io.TextIOWrapper(data, encoding="utf-8", newline="") as fh:
                record = next(_records(path, iter(fh.readline, ""), first_line=1), None)
                if record is None:
                    raise FileFormatError(f"{path}: empty file")
                yield fh, [h.strip() for h in record[1]], fh.tell()
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise FileFormatError(f"{path}: not UTF-8 text (byte 0x{byte:02x})") from None


def _records(path, fh, first_line: int = 2):
    """``(line, row)`` for each csv record of ``fh`` from its position on,
    lines counting records from ``first_line``.  A csv-level failure, such
    as a cell over ``csv.field_size_limit()``, becomes a FileFormatError
    naming its line."""
    rows = csv.reader(fh)
    for line in count(first_line):
        try:
            row = next(rows)
        except StopIteration:
            return
        except csv.Error as exc:
            raise FileFormatError(f"{path}: line {line}: {exc}") from None
        yield line, row


def _body_rows(path, fh, body):
    """``(where, row)`` for each non-blank record of the file ``path``, open
    as ``fh``, from position ``body`` on; ``where`` names its line.  Raises
    FileFormatError when there is none."""
    fh.seek(body)
    found = False
    for line, row in _records(path, fh):
        if "".join(row).strip():
            found = True
            yield f"{path}: line {line}", row
    if not found:
        raise FileFormatError(f"{path}: no data rows")


def _iso_ordinal(cell: str) -> int:
    """Proleptic-Gregorian ordinal of the ISO date in ``cell``, stripped.
    Raises ValueError for any other cell, also for ``YYYYMMDD``: a cell of
    digits is an integer timestamp."""
    text = cell.strip()
    if text.isdigit():
        raise ValueError(f"{cell!r} is an integer, not an ISO date")
    return _dt.date.fromisoformat(text).toordinal()


def load_csv(path, time_column: str = "date", value_column: str = "value") -> TimeSeries:
    """Load one time series from a two-column CSV file, which may be a pipe:
    a pipe's bytes are held in memory while it is read.

    The series name is the file stem.  Duplicate or out-of-order timestamps,
    non-numeric or non-finite values, integer timestamps outside 64 bits and
    missing columns are all rejected with the offending line number.  When
    the body is ASCII without quotes, U+0000, U+001C..U+001F or a line over
    ``csv.field_size_limit()``, numpy parses the two columns in one call,
    reading every date as the kind of the first data row's date: an integer,
    else an ISO date, as bytes.  Its result is kept if every ISO date is
    exactly ``YYYY-MM-DD``, every value is finite and the dates strictly
    increase.  Every other file (quoted or non-ASCII cells, padded cells or
    week dates in an ISO column, any error) is read a row at a time, which
    also finds the line to report.
    """
    name = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    with _reading(path) as (fh, header, body):
        if time_column not in header or value_column not in header:
            raise FileFormatError(
                f"{path}: header {header!r} lacks columns {time_column!r}/{value_column!r}"
            )
        columns = header.index(time_column), header.index(value_column)
        parsed = _parse_plain(path, fh, body, columns)
        if parsed is None:
            parsed = _read_series_rows(path, fh, body, *columns)
    return TimeSeries(name, *parsed)


_ISO_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9]  # the digit places of YYYY-MM-DD
_EPOCH_ORDINAL = _dt.date(1970, 1, 1).toordinal()  # day 0 of datetime64


def _iso_ordinals(cells):
    """Proleptic-Gregorian ordinals of the ``S11`` date ``cells``, as
    ``_iso_ordinal`` reads them; None unless every cell is exactly
    ``YYYY-MM-DD`` in ASCII digits, with a year from 0001 (``date`` has
    none before) and a month and day that exist (numpy raises ValueError
    for any other).  A longer cell has its eleventh byte set.  ``S`` drops
    trailing NULs, so ``_parse_plain`` refuses them."""
    chars = np.ascontiguousarray(cells).view(np.uint8).reshape(len(cells), 11)
    digits = chars[:, _ISO_DIGITS] - np.uint8(ord("0"))  # every non-digit wraps above 9
    if ((digits > 9).any() or (chars[:, [4, 7]] != ord("-")).any() or chars[:, 10].any()
            or not digits[:, :4].any(axis=1).all()):
        return None
    try:
        days = cells.astype("datetime64[D]")
    except ValueError:
        return None
    return days.astype(np.int64) + _EPOCH_ORDINAL


_SCREEN_CHARS = 1 << 16  # characters read per step of the plain-text screen

# numpy reads some cells that int(), float() and date.fromisoformat() reject:
# its number parsers take U+001C..U+001F for spaces (and the integer parser
# some non-ASCII letters for digits), and its bytes cells drop trailing NULs.
_MISREAD_CHARS = "\x00\x1c\x1d\x1e\x1f"


def _parse_plain(path, fh, body, columns):
    """``(timestamps, values, iso)`` of the series file ``path`` open as
    ``fh``, or None: ``np.loadtxt`` reads the date and value ``columns`` of
    its body at position ``body``, dates as integers or, when the first data
    row's date is not an integer, as ``YYYY-MM-DD`` bytes for
    ``_iso_ordinals``.  None when that row is short, the text is not plain,
    numpy or ``_iso_ordinals`` rejects it, a value is not finite or the
    dates do not strictly increase.  Plain text is valid UTF-8 and ASCII,
    free of U+0000, U+001C..U+001F and of quotes, and has no line (ended by
    ``\\n``) over ``csv.field_size_limit()``, so no cell the csv reader
    refuses as too long; numpy reads each of its number cells as the csv
    reader with ``int`` or ``float`` does, or rejects it, and each bytes
    cell as its text up to the field's size.  The text is screened in
    chunks before numpy reads it.  A data row has been found, so numpy never
    warns of an empty input."""
    _, first = next(_body_rows(path, fh, body))
    if len(first) <= columns[0]:
        return None
    try:
        int(first[columns[0]])
        iso = False
    except ValueError:
        iso = True
    limit = csv.field_size_limit()
    size = max(1, min(_SCREEN_CHARS, limit))  # a line inside one chunk is short enough
    fh.seek(body)
    line = 0  # length of the line the chunks so far end in
    try:
        while chunk := fh.read(size):
            if not chunk.isascii() or '"' in chunk or any(c in chunk for c in _MISREAD_CHARS):
                return None
            end = chunk.find("\n")
            if line + (len(chunk) if end < 0 else end) > limit:
                return None
            line = line + len(chunk) if end < 0 else len(chunk) - 1 - chunk.rfind("\n")
        fh.seek(body)
        # One byte more than YYYY-MM-DD, so that a longer cell is seen, not cut off.
        dtype = [("t", "S11" if iso else np.int64), ("v", np.float64)]
        rows = np.loadtxt(fh, delimiter=",", comments=None, usecols=columns, dtype=dtype, ndmin=1)
    except ValueError:  # also UnicodeDecodeError: the row reader reports it in place
        return None
    times, values = rows["t"], rows["v"]
    if iso and (times := _iso_ordinals(times)) is None:
        return None
    if not (np.isfinite(values).all() and (times[1:] > times[:-1]).all()):
        return None
    return times, values, iso


_INT64 = range(-(2**63), 2**63)  # the integers an int64 holds


def _read_series_rows(path, fh, body, t_idx: int, v_idx: int):
    """``(timestamps, values, iso)`` of the series file ``path`` open as
    ``fh``, read a row at a time from its body at position ``body``; raises
    FileFormatError naming the line of the first bad row.  A row out of order
    is reported only when no later row fails another check."""
    times, values, seen, iso, out_of_order = [], [], set(), False, None
    for where, row in _body_rows(path, fh, body):
        if len(row) <= max(t_idx, v_idx):
            raise FileFormatError(f"{where}: too few columns")
        cell = row[t_idx]
        text = cell.strip()
        try:
            ts, row_iso = int(text), False
        except ValueError:
            try:
                ts, row_iso = _iso_ordinal(text), True
            except ValueError:
                raise FileFormatError(
                    f"{where}: cannot parse {cell!r} as an integer or ISO date"
                ) from None
        if ts not in _INT64:
            raise FileFormatError(f"{where}: timestamp {text!r} outside the 64-bit range")
        if times and row_iso != iso:
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
        if out_of_order is None and times and ts <= times[-1]:
            out_of_order = where
        times.append(ts)
        values.append(value)
    if out_of_order is not None:
        raise FileFormatError(f"{out_of_order}: timestamps not strictly increasing")
    return np.array(times, dtype=np.int64), np.array(values), iso


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
    shared = series[0].timestamps
    if all(np.array_equal(s.timestamps, shared) for s in series[1:]):  # one clock: no merge
        return shared.copy(), np.vstack([s.values for s in series])
    if policy == "inner":
        for s in series[1:]:
            shared = np.intersect1d(shared, s.timestamps, assume_unique=True)
        if shared.size == 0:
            raise ValueError("series share no timestamps under inner alignment")
    else:
        start = max(int(s.timestamps[0]) for s in series)
        shared = np.sort(np.concatenate([s.timestamps for s in series]), kind="stable")
        shared = shared[shared >= start]
        shared = shared[np.append(True, shared[1:] != shared[:-1])]  # drop repeats
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
    classes = _class_levels(n_per_class, dist_a, dist_b)
    rng = np.random.default_rng(seed)
    images = np.empty((2 * n_per_class, width * height), dtype=np.int64)
    for rows, cdf in zip((images[:n_per_class], images[n_per_class:]), classes):
        _count_levels(cdf, rng, rows)
    labels = np.repeat(np.arange(2, dtype=np.int64), n_per_class)
    return ImageDataset(width, height, dist_a.size, images, labels)


def _class_levels(n_per_class: int, dist_a, dist_b) -> list:
    """Checked, each class's levels of numpy ``choice``'s CDF but the last:
    the cumulative sum over its last entry, which is 1, above every draw."""
    if dist_a.size != dist_b.size:
        raise ValueError("class distributions must share an alphabet")
    if n_per_class < 1:
        raise ValueError("need at least one image per class")
    return [cdf[:-1] / cdf[-1] for cdf in (dist_a.probs.cumsum(), dist_b.probs.cumsum())]


def _channel_levels(channel: Channel, alphabet_size: int) -> np.ndarray:
    """Rows of output-CDF levels of ``channel`` but the last, each indexed
    by input symbol, once the channel is checked against ``alphabet_size``.
    A level at its column's total is inf: a total rounded below 1 may lie at
    or below a draw.  The last level is always inf."""
    if channel.n_inputs != alphabet_size:
        raise ValueError(
            f"channel expects {channel.n_inputs} input symbols, dataset has {alphabet_size}"
        )
    cum = np.cumsum(channel.matrix, axis=0).T  # (Kx, Ky)
    cum[cum == cum[:, -1:]] = np.inf
    return cum[:, :-1].T


_BLOCK_ROWS = 32  # rows per step of _count_levels: its blocks stay in cache


def _count_levels(levels, rng, out, symbols=None, tally=None) -> None:
    """Set ``out`` to the number of CDF ``levels`` at or below each of its
    uniform draws from ``rng``, in row-major order: inverse-CDF sampling.
    Each entry of ``levels`` is one level, a scalar or, with ``symbols``, a
    row indexed by each element's symbol (in range: ``np.take`` clips, so as
    not to buffer).  Runs ``_BLOCK_ROWS`` rows at a time, drawing as it goes
    (PCG64 doubles come out in order, so the draws equal one whole draw):
    each block's draws, narrow counts and gathered levels stay in cache, and
    the block is stored into ``out`` once.  ``tally``, if given, gains the
    count of each symbol set in ``out``: levels rise, so a draw at or above
    level k is at or above every level before it, and ``count_nonzero`` of
    each level's hits moves that many symbols from k up to k + 1."""
    shape = (min(len(out), _BLOCK_ROWS), out.shape[1])
    counts = np.empty(shape, np.min_scalar_type(len(levels)))
    gathered = None if symbols is None else np.empty(shape)
    if tally is not None:
        tally[0] += out.size
    for lo in range(0, len(out), _BLOCK_ROWS):
        block = out[lo : lo + _BLOCK_ROWS]
        n, draws = len(block), rng.random(block.shape)
        counts[:n] = 0
        for k, level in enumerate(levels):
            if symbols is not None:
                level = np.take(level, symbols[lo : lo + n], out=gathered[:n], mode="clip")
            hits = level <= draws
            counts[:n] += hits
            if tally is not None:
                moved = np.count_nonzero(hits)
                tally[k] -= moved
                tally[k + 1] += moved
        block[...] = counts[:n]


def apply_channel_to_dataset(dataset: ImageDataset, channel: Channel, seed: int) -> ImageDataset:
    """Pass every pixel independently through a discrete channel.

    The output dataset lives on the channel's output alphabet; labels (if
    any) are carried over unchanged.  One uniform draw per pixel, in
    row-major order, is mapped through the output CDF of the pixel's
    symbol; the result equals whole-array sampling on the same draws.
    """
    levels = _channel_levels(channel, dataset.alphabet_size)
    noisy = np.empty(dataset.images.shape, dtype=np.int64)
    _count_levels(levels, np.random.default_rng(seed), noisy, dataset.images)
    return ImageDataset(
        dataset.width,
        dataset.height,
        channel.n_outputs,
        noisy,
        None if dataset.labels is None else dataset.labels.copy(),
    )


def _noisy_two_class_images(gen_seed, noise_seed, n_per_class, width, height, dist_a, dist_b, e,
                            tally=None):
    """``(channel, images)``: ``parametric_channel(e)`` and the pixels of
    ``apply_channel_to_dataset(gen_two_class_images(gen_seed, n_per_class,
    width, height, dist_a, dist_b), channel, noise_seed)``, with the same
    checks in the same order (an empty corpus runs the geometry checks),
    drawn a row block at a time so that no clean corpus is held.  ``tally``,
    if given, gains the count of each noisy symbol (see ``_count_levels``)."""
    classes = _class_levels(n_per_class, dist_a, dist_b)
    ImageDataset(width, height, dist_a.size, np.empty((0, width * height), dtype=np.int64))
    channel = parametric_channel(e)
    levels = _channel_levels(channel, dist_a.size)
    gen, noise = np.random.default_rng(gen_seed), np.random.default_rng(noise_seed)
    noisy = np.empty((2 * n_per_class, width * height), dtype=np.int64)
    clean = np.empty((min(_BLOCK_ROWS, n_per_class), width * height), dtype=np.int64)
    for first, cdf in zip((0, n_per_class), classes):
        for lo in range(first, first + n_per_class, _BLOCK_ROWS):
            block = noisy[lo : min(lo + _BLOCK_ROWS, first + n_per_class)]
            _count_levels(cdf, gen, clean[: len(block)])
            _count_levels(levels, noise, block, clean[: len(block)], tally)
    return channel, noisy


def load_images_csv(
    path,
    width: Optional[int] = None,
    height: Optional[int] = None,
    alphabet_size: Optional[int] = None,
) -> ImageDataset:
    """Load an image dataset from ``label,p0,p1,...`` CSV.

    When the geometry is unknown the images are treated as 1 x n_pixels
    strips; the alphabet defaults to the largest pixel value + 1 (but at
    least 2 symbols).  A body of one-digit ASCII cells whose lines all end
    alike is read from its bytes as one fixed-width grid (see
    ``_parse_digit_rows``).  Every other file (blank labels, wider, signed,
    blank, spaced, quoted or non-ASCII cells, blank lines, mixed line ends,
    any error) is read a row at a time, which also finds the line to
    report.  The file may be a pipe, whose bytes are held in memory while
    it is read.
    """
    with _reading(path) as (fh, header, body):
        if not header or header[0] != "label" or len(header) < 2:
            raise FileFormatError(f"{path}: expected header 'label,p0,...'; got {header!r}")
        n_pixels = len(header) - 1
        parsed = _parse_digit_rows(fh, body, n_pixels)
        if parsed is None:
            parsed = _read_image_rows(path, fh, body, n_pixels)
        labels, images = parsed
    if width is None or height is None:
        width, height = n_pixels, 1
    if width * height != n_pixels:
        raise ValueError(
            f"declared {width}x{height} geometry does not match {n_pixels} pixels"
        )
    if alphabet_size is None:
        alphabet_size = max(2, int(images.max()) + 1)
    return ImageDataset(width, height, alphabet_size, images, labels)


def _parse_digit_rows(fh, body, n_pixels: int):
    """``(labels, images)`` of the image file open as ``fh``, read from the
    bytes of its body at position ``body`` as one ``(lines, line width)``
    grid, or None unless the body is non-empty and every line holds
    ``n_pixels + 1`` one-digit ASCII cells separated by commas, every line
    ending in ``\\n`` or every line in ``\\r\\n`` (the last ``\\n`` may be
    missing).  The grid's end, comma and digit columns are checked whole.
    The row reader reports a cell over ``csv.field_size_limit()``."""
    # A decoder state is packed into ``body`` when the header ends in a lone "\r".
    if body >> 64 or csv.field_size_limit() < 1:
        return None
    fh.buffer.seek(body)  # a UTF-8 text position past a whole line is a byte offset
    data = fh.buffer.read()
    if data and not data.endswith(b"\n"):
        data += b"\n"
    cells = n_pixels + 1
    width = data.find(b"\n") + 1  # of the first line; 0 for an empty body
    if width not in (2 * cells, 2 * cells + 1) or len(data) % width:
        return None
    grid = np.frombuffer(data, np.uint8).reshape(-1, width)
    end = np.frombuffer(b"\r\n"[2 * cells + 1 - width :], np.uint8)
    digits = grid[:, : 2 * cells : 2] - np.uint8(ord("0"))  # a non-digit wraps above 9
    if ((grid[:, 2 * cells - 1 :] != end).any() or (digits > 9).any()
            or (grid[:, 1 : 2 * cells - 1 : 2] != ord(",")).any()):
        return None
    return digits[:, 0].astype(np.int64), digits[:, 1:].astype(np.int64)


def _read_image_rows(path, fh, body, n_pixels: int):
    """``(labels or None, images)`` of the image file ``path`` open as ``fh``,
    read a row at a time from its body at position ``body``; raises
    FileFormatError naming the line of the first bad row."""
    rows = []
    labels: list[int] = []
    blank_labels = 0
    for where, row in _body_rows(path, fh, body):
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
            if label not in _INT64:
                raise FileFormatError(f"{where}: label {row[0]!r} outside the 64-bit range")
            labels.append(label)
        else:
            blank_labels += 1
        try:
            values = [int(c) for c in row[1:]]
        except ValueError:
            raise FileFormatError(f"{where}: non-integer pixel value") from None
        if min(values) not in _INT64 or max(values) not in _INT64:
            bad = next(c for c, v in zip(row[1:], values) if v not in _INT64)
            raise FileFormatError(f"{where}: pixel value {bad!r} outside the 64-bit range")
        rows.append(values)
    if blank_labels and labels:
        raise FileFormatError(f"{path}: mix of labeled and unlabeled rows")
    labels = np.asarray(labels, dtype=np.int64) if labels else None
    return labels, np.asarray(rows, dtype=np.int64)


def save_images_csv(dataset: ImageDataset, path) -> None:
    header = ["label"] + [f"p{i}" for i in range(dataset.n_pixels)]
    labels = repeat("", dataset.n_images) if dataset.labels is None else dataset.labels
    _write_csv(path, header, labels, *dataset.images.T)
