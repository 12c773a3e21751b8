"""Discrete distributions, memoryless channels and exact information measures.

Everything in this module is exact (no sampling, no estimation): these are
the reference objects the rest of the package is built on and checked
against.  Probabilities are validated on construction so downstream code can
assume well-formed inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Sum-to-one validation tolerance for probability vectors.
PROB_TOL = 1e-12


class FileFormatError(ValueError):
    """A data file exists but cannot be parsed as its declared format."""


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Probability mass function over the symbols ``0 .. K-1``.

    Parameters
    ----------
    probs : array_like
        Nonnegative weights of each symbol, summing to 1 within ``PROB_TOL``.
        At least two symbols are required.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if p.ndim != 1:
            raise ValueError("probability vector must be one-dimensional")
        if p.size < 2:
            raise ValueError("distribution needs at least 2 symbols")
        if not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite")
        if np.any(p < 0):
            raise ValueError("negative probability entry")
        total = float(p.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")

    @property
    def size(self) -> int:
        return int(self.probs.size)

    def support(self) -> np.ndarray:
        """Indices of symbols with strictly positive probability."""
        return np.flatnonzero(self.probs > 0)


def uniform_distribution(size: int) -> DiscreteDistribution:
    if size < 2:
        raise ValueError("distribution needs at least 2 symbols")
    return DiscreteDistribution(np.full(size, 1.0 / size))


@dataclass(frozen=True, eq=False)
class Channel:
    """Discrete memoryless channel as a column-stochastic matrix.

    ``matrix[y, x]`` is the probability of observing output symbol ``y``
    given input symbol ``x``; every column therefore sums to 1.
    """

    matrix: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", w)
        if w.ndim != 2:
            raise ValueError("channel matrix must be two-dimensional")
        if w.shape[0] < 2 or w.shape[1] < 2:
            raise ValueError("channel needs at least 2 inputs and 2 outputs")
        if not np.all(np.isfinite(w)):
            raise ValueError("channel entries must be finite")
        if np.any(w < 0) or np.any(w > 1):
            raise ValueError("channel entries must lie in [0, 1]")
        sums = w.sum(axis=0)
        bad = np.flatnonzero(np.abs(sums - 1.0) > PROB_TOL)
        if bad.size:
            raise ValueError(
                f"channel column {bad[0]} sums to {sums[bad[0]]!r}, expected 1"
            )

    @property
    def n_outputs(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def n_inputs(self) -> int:
        return int(self.matrix.shape[1])

    def column(self, x: int) -> DiscreteDistribution:
        """Output distribution for the deterministic input ``x``."""
        if not 0 <= x < self.n_inputs:
            raise ValueError(f"input symbol {x} outside alphabet")
        return DiscreteDistribution(self.matrix[:, x])


def identity_channel(size: int) -> Channel:
    """Noiseless channel: output equals input."""
    return Channel(np.eye(size))


def binary_symmetric_channel(crossover: float) -> Channel:
    if not 0.0 <= crossover <= 1.0:
        raise ValueError("crossover probability must lie in [0, 1]")
    e = float(crossover)
    return Channel(np.array([[1.0 - e, e], [e, 1.0 - e]]))


def parametric_channel(e: float) -> Channel:
    """Four-symbol noisy channel ruled by a single noise level ``e``.

    At ``e = 0`` the channel is the identity; the admissible range
    ``0 <= e <= 0.25`` keeps every entry a probability.  Rows index outputs,
    columns index inputs, and each column sums to one for any valid ``e``.
    """
    if not 0.0 <= e <= 0.25:
        raise ValueError(f"noise level {e!r} out of range [0, 0.25]")
    w = np.array(
        [
            [1 - 2 * e, 2 * e, e, e / 2],
            [e, 1 - 3 * e, 2 * e, e / 4],
            [e, 0.0, 1 - 4 * e, e / 4],
            [0.0, e, e, 1 - e],
        ]
    )
    return Channel(w)


_BLOCK_SYMBOLS = 1 << 15  # symbols per block of any pass over a corpus: no corpus-sized scratch


def _block_rows(width: int) -> int:
    """Rows of ``width`` symbols per block of every pass over a corpus: as
    many as fit in ``_BLOCK_SYMBOLS`` symbols, or one when a row holds more."""
    return max(1, _BLOCK_SYMBOLS // width)


def _blocks(rows: np.ndarray, offset=0):
    """``(lo, block)`` for each run of ``_block_rows`` rows ``lo ..`` of the
    2-D integer ``rows``.  ``block`` is those rows plus ``offset`` (a 2-D
    offset is cut to the block's rows) in one reused intp buffer, so a narrow
    dtype is never widened whole.  The cast is unsafe: callers pass values
    that fit."""
    step = _block_rows(rows.shape[1])
    buffer = np.empty((min(len(rows), step), rows.shape[1]), np.intp)
    for lo in range(0, len(rows), step):
        part = rows[lo : lo + step]
        cut = offset[lo : lo + step] if np.ndim(offset) == 2 else offset
        yield lo, np.add(part, cut, out=buffer[: len(part)], dtype=np.intp, casting="unsafe")


def _counts(rows: np.ndarray, bins: np.ndarray, offset=0) -> np.ndarray:
    """Add one to the contiguous intp ``bins`` at flat index ``symbol +
    offset`` for each symbol of the 2-D ``rows``, a block at a time
    (``_blocks``), and return ``bins``.  Offset ``k * i`` on row i counts
    each row's symbols, ``k * j`` on column j each column's."""
    flat = bins.reshape(-1)
    for _, block in _blocks(rows, offset):
        np.add.at(flat, block, 1)
    return bins


def empirical_distribution(samples, alphabet_size: int) -> DiscreteDistribution:
    """Relative symbol frequencies of integer ``samples`` over ``0 .. K-1``,
    counted a block at a time (``_counts``)."""
    s = np.asarray(samples)
    if s.size == 0:
        raise ValueError("cannot estimate a distribution from no samples")
    s = s.reshape(-1)
    if not np.issubdtype(s.dtype, np.integer):
        raise ValueError("samples must be integer symbols")
    if alphabet_size < 2:
        raise ValueError("alphabet needs at least 2 symbols")
    if s.min() < 0 or s.max() >= alphabet_size:
        bad = int(s[(s < 0) | (s >= alphabet_size)][0])
        raise ValueError(f"symbol {bad} outside alphabet of size {alphabet_size}")
    return DiscreteDistribution(_counts(s[:, None], np.zeros(alphabet_size, np.intp)) / s.size)


def smoothed_distribution(samples, alphabet_size: int) -> DiscreteDistribution:
    """Empirical distribution with add-constant smoothing ``1/(n*K)``.

    Guarantees a strictly positive estimate even when some symbols never
    occur, while perturbing observed frequencies by at most O(1/n).
    """
    s = np.asarray(samples).reshape(-1)
    base = empirical_distribution(s, alphabet_size)
    return DiscreteDistribution(_smoothed(base.probs, s.size))


def _smoothed(freqs, n: int):
    """Add ``1/(n*K)`` to each count behind the frequencies ``freqs`` (..., K)
    of ``n`` samples, and renormalise."""
    k = freqs.shape[-1]
    alpha = 1.0 / (n * k)
    return (freqs * n + alpha) / (n + k * alpha)


def channel_output(channel: Channel, dist: DiscreteDistribution) -> DiscreteDistribution:
    """Push an input distribution through a channel: ``p_y = W p_x``."""
    if dist.size != channel.n_inputs:
        raise ValueError(
            f"input distribution has {dist.size} symbols, channel expects "
            f"{channel.n_inputs}"
        )
    return DiscreteDistribution(channel.matrix @ dist.probs)


def kl_divergence(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Relative entropy ``D(p || q)`` in nats.

    Terms with ``p(x) = 0`` contribute zero; ``p(x) > 0`` where ``q(x) = 0``
    yields ``inf``.
    """
    if p.size != q.size:
        raise ValueError("distributions must share an alphabet")
    mask = p.probs > 0
    if np.any(q.probs[mask] == 0):
        return float("inf")
    pm = p.probs[mask]
    return float(np.sum(pm * np.log(pm / q.probs[mask])))


def exact_mutual_information(p_u, conditionals) -> float:
    """Mutual information ``I(U; X)`` in nats from P_U and the rows P_{X|U=u}.

    Computed as ``sum_u P_U(u) D(P_{X|U=u} || P_X)`` with ``P_X`` the induced
    marginal, using the convention ``0 log 0 = 0``.
    """
    pu = p_u.probs if isinstance(p_u, DiscreteDistribution) else np.asarray(p_u, float)
    conds = [
        c if isinstance(c, DiscreteDistribution) else DiscreteDistribution(c)
        for c in conditionals
    ]
    if len(conds) != pu.size:
        raise ValueError("need one conditional distribution per value of U")
    sizes = {c.size for c in conds}
    if len(sizes) != 1:
        raise ValueError("conditional distributions must share an alphabet")
    if np.any(pu < 0) or abs(pu.sum() - 1.0) > PROB_TOL:
        raise ValueError("P_U is not a probability vector")
    marginal = DiscreteDistribution(
        np.sum([w * c.probs for w, c in zip(pu, conds)], axis=0)
    )
    total = 0.0
    for w, c in zip(pu, conds):
        if w == 0:
            continue
        total += w * kl_divergence(c, marginal)
    return float(total)


# --- JSON serialization -----------------------------------------------------
#
# Channel files: {"outputs": Ky, "inputs": Kx, "matrix": [[...], ...]} with the
# matrix row-major, one row per output symbol.  Distribution files: {"probs": [...]}.


def channel_to_dict(channel: Channel) -> dict:
    return {
        "outputs": channel.n_outputs,
        "inputs": channel.n_inputs,
        "matrix": channel.matrix.tolist(),
    }


def channel_from_dict(obj: dict) -> Channel:
    try:
        matrix = np.asarray(obj["matrix"], dtype=float)
        outputs, inputs = int(obj["outputs"]), int(obj["inputs"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed channel object: {exc}") from exc
    if matrix.ndim != 2 or matrix.shape != (outputs, inputs):
        raise ValueError(
            f"channel matrix shape {matrix.shape} does not match declared "
            f"({outputs}, {inputs})"
        )
    return Channel(matrix)


def distribution_to_dict(dist: DiscreteDistribution) -> dict:
    return {"probs": dist.probs.tolist()}


def distribution_from_dict(obj: dict) -> DiscreteDistribution:
    try:
        probs = np.asarray(obj["probs"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed distribution object: {exc}") from exc
    return DiscreteDistribution(probs)


def _read_json(path, parse, what: str):
    """``parse`` of the JSON object in ``path``; any failure to decode or
    parse it is a FileFormatError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse(json.load(fh))
        except UnicodeDecodeError as exc:
            byte = exc.object[exc.start]
            raise FileFormatError(
                f"{path}: malformed {what} (not UTF-8 text, byte 0x{byte:02x})"
            ) from exc
        except Exception as exc:
            raise FileFormatError(f"{path}: malformed {what} ({exc})") from exc


def load_channel(path) -> Channel:
    return _read_json(path, channel_from_dict, "channel file")


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def save_channel(channel: Channel, path) -> None:
    _write_json(path, channel_to_dict(channel))


def load_distribution(path) -> DiscreteDistribution:
    return _read_json(path, distribution_from_dict, "distribution file")


def save_distribution(dist: DiscreteDistribution, path) -> None:
    _write_json(path, distribution_to_dict(dist))
