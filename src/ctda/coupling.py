"""Divergence transition matrices and locally optimal perturbation directions.

For a channel ``W`` and input marginal ``p_x``, the divergence transition
matrix is

    B = diag(p_y)^(-1/2) @ W @ diag(p_x)^(1/2),   p_y = W p_x,

restricted to symbols of positive probability.  ``B`` carries ``sqrt(p_x)``
to ``sqrt(p_y)`` and its largest singular value is exactly 1; small
perturbations of ``p_x`` along a unit direction ``psi`` orthogonal to
``sqrt(p_x)`` emerge at the output shrunk by the corresponding singular
value.  The direction surviving best -- the second singular vector -- is the
most detectable input perturbation, and dividing its output image by
``sqrt(p_y)`` yields an additive per-symbol score for deciding which
perturbation produced a sequence of observations.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass, field

from .stats import Channel, DiscreteDistribution

# Tolerances pinned by the library's external contract.
_SUM_TOL = 1e-10       # B sqrt(p_x) = sqrt(p_y) residual
_SIGMA_TOL = 1e-9      # top singular value vs 1; singular-value ties
_SIGN_TOL = 1e-9       # entries below this are "zero" for the sign rule
_UNIT_TOL = 1e-12      # norm of psi_x


@dataclass(frozen=True, eq=False)
class Dtm:
    """Divergence transition matrix restricted to its positive support.

    ``input_symbols[j]`` / ``output_symbols[i]`` map matrix columns/rows
    back to symbols of the original alphabets (of sizes ``input_alphabet``
    and ``output_alphabet``); symbols of zero probability are dropped.
    ``singular_values`` are those of ``matrix``, descending.
    """

    matrix: np.ndarray
    p_x: DiscreteDistribution
    p_y: DiscreteDistribution
    input_symbols: np.ndarray
    output_symbols: np.ndarray
    input_alphabet: int
    output_alphabet: int
    singular_values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        b = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", b)
        in_syms = np.asarray(self.input_symbols, dtype=np.int64)
        out_syms = np.asarray(self.output_symbols, dtype=np.int64)
        object.__setattr__(self, "input_symbols", in_syms)
        object.__setattr__(self, "output_symbols", out_syms)
        if b.ndim != 2 or b.shape != (self.p_y.size, self.p_x.size):
            raise ValueError("matrix shape must match the kept alphabets")
        if np.any(self.p_x.probs <= 0) or np.any(self.p_y.probs <= 0):
            raise ValueError("kept symbols must have strictly positive probability")
        for syms, size, what in (
            (in_syms, self.input_alphabet, "input"),
            (out_syms, self.output_alphabet, "output"),
        ):
            if syms.size and (np.any(np.diff(syms) <= 0) or syms[0] < 0 or syms[-1] >= size):
                raise ValueError(f"{what} symbol map must be increasing within the alphabet")
        if in_syms.size != self.p_x.size or out_syms.size != self.p_y.size:
            raise ValueError("symbol maps must cover the kept alphabets")
        sigma = _dtm_singular_values(b, self.p_x.probs, self.p_y.probs)
        object.__setattr__(self, "singular_values", sigma)


def _matvec(m, v):
    """``m @ v`` for each row of ``v``, as one matrix-vector product per row,
    so a stack rounds exactly as the single products do."""
    return np.matmul(m, v[..., None])[..., 0]


def _groups(mask):
    """Rows of the boolean matrix ``mask`` grouped by pattern, in order of
    first appearance: ``(rows, columns the pattern selects)`` pairs."""
    patterns, first, inverse = np.unique(
        mask, axis=0, return_index=True, return_inverse=True
    )
    inverse = inverse.reshape(-1)  # numpy 2.0.0 gives it the ndim of the mask
    for g in np.argsort(first):
        yield np.flatnonzero(inverse == g), np.flatnonzero(patterns[g])


def _support_blocks(matrix, p_x):
    """Split the marginals ``p_x`` (rows, Kx) by input support and the
    outputs it reaches.

    Yields ``(rows, keep_x, keep_y, w, px, py)``: the rows that share both,
    the channel block ``w`` they keep, and their kept input and output
    marginals.  Dropped outputs are unreachable from every kept input, so
    removing their all-zero rows leaves the columns stochastic.  ``px`` is
    C-ordered, as one row alone is: the layout of the DTMs and bases built
    from it decides how their products round.
    """
    for rows, keep_x in _groups(p_x > 0):
        w = matrix[:, keep_x]
        px = np.ascontiguousarray(p_x[rows][:, keep_x])
        py_full = _matvec(w, px)
        for sub, keep_y in _groups(py_full > 0):
            yield rows[sub], keep_x, keep_y, w[keep_y], px[sub], py_full[sub][:, keep_y]


def _dtm_matrix(w, px, py):
    """``diag(p_y)^(-1/2) W diag(p_x)^(1/2)`` for each row of ``px`` / ``py``."""
    return w * np.sqrt(px)[..., None, :] / np.sqrt(py)[..., :, None]


def _dtm_singular_values(b, px, py):
    """Singular values of each matrix of ``b``, once it is checked to carry
    ``sqrt(p_x)`` to ``sqrt(p_y)`` with a top singular value of 1."""
    resid = _matvec(b, np.sqrt(px)) - np.sqrt(py)
    if np.max(np.abs(resid)) > _SUM_TOL:
        raise ValueError("matrix does not carry sqrt(p_x) to sqrt(p_y)")
    sigma = np.linalg.svd(b, compute_uv=False)
    off = np.abs(sigma[..., 0] - 1.0) > _SIGMA_TOL
    if np.any(off):
        raise ValueError(f"top singular value {sigma[..., 0][off].flat[0]!r} differs from 1")
    return sigma


def build_dtm(channel: Channel, p_x: DiscreteDistribution) -> Dtm:
    """Construct the divergence transition matrix of ``(W, p_x)``.

    Zero-probability input symbols (and the output symbols they leave
    unreachable) are dropped; at least two input symbols must survive.
    """
    if p_x.size != channel.n_inputs:
        raise ValueError(
            f"marginal has {p_x.size} symbols, channel expects {channel.n_inputs}"
        )
    ((_, keep_x, keep_y, w, px, py),) = _support_blocks(channel.matrix, p_x.probs[None])
    if keep_x.size < 2:
        raise ValueError("need at least two input symbols of positive probability")
    return Dtm(
        matrix=_dtm_matrix(w, px[0], py[0]),
        p_x=DiscreteDistribution(px[0]),
        p_y=DiscreteDistribution(py[0]),
        input_symbols=keep_x,
        output_symbols=keep_y,
        input_alphabet=channel.n_inputs,
        output_alphabet=channel.n_outputs,
    )


@dataclass(frozen=True, eq=False)
class CouplingSolution:
    """Most detectable unit perturbation direction of a Dtm.

    ``psi_x`` maximizes ``||B psi||`` over unit vectors orthogonal to
    ``sqrt(p_x)``; its output image ``psi_y = B psi_x`` has norm
    ``second_singular_value``.  When that optimum is shared by several
    directions (singular-value tie within 1e-9) ``degenerate_subspace`` is
    set and the returned direction is one arbitrary-but-deterministic
    member of the optimal subspace.
    """

    singular_values: np.ndarray
    second_singular_value: float
    psi_x: np.ndarray
    psi_y: np.ndarray
    degenerate_subspace: bool = False

    def __post_init__(self):
        s = np.asarray(self.singular_values, dtype=float)
        px = np.asarray(self.psi_x, dtype=float)
        py = np.asarray(self.psi_y, dtype=float)
        object.__setattr__(self, "singular_values", s)
        object.__setattr__(self, "psi_x", px)
        object.__setattr__(self, "psi_y", py)
        if s.ndim != 1 or np.any(np.diff(s) > _SIGMA_TOL) or np.any(s < -_SIGMA_TOL):
            raise ValueError("singular values must be nonnegative and descending")
        _check_direction(px, py, self.second_singular_value)


def _check_direction(psi_x, psi_y, sigma2) -> None:
    """Each ``psi_x`` is a unit vector with a positive leading entry, and its
    image ``psi_y`` has norm ``sigma2``."""
    if np.any(np.abs(np.linalg.norm(psi_x, axis=-1) - 1.0) > _UNIT_TOL):
        raise ValueError("psi_x must be a unit vector")
    if np.any(np.abs(np.linalg.norm(psi_y, axis=-1) - sigma2) > _SIGMA_TOL):
        raise ValueError("psi_y norm must equal the attained singular value")
    if np.any(_leading_sign(psi_x) < 0):
        raise ValueError("sign convention: leading non-zero entry of psi_x > 0")


def _leading_sign(v: np.ndarray) -> np.ndarray:
    """Sign of the first entry of each row of ``v`` above ``_SIGN_TOL`` in
    magnitude (+1 where there is none), shaped to multiply ``v``; directions
    are normalised to a positive one."""
    lead = np.abs(v) > _SIGN_TOL
    first = np.take_along_axis(v, lead.argmax(axis=-1)[..., None], axis=-1)
    return np.where(lead.any(axis=-1, keepdims=True) & (first < 0), -1.0, 1.0)


def _complement_svd(b, px):
    """``(basis, s, vt)`` for each DTM ``b`` with input marginal ``px``:
    columns of ``basis`` span the complement of ``v = sqrt(p_x)``, and ``s``,
    ``vt`` come from the SVD of ``B @ basis``.

    Householder construction: the reflector sending ``v`` to ``-e_0`` has
    its remaining columns orthonormal and orthogonal to ``v``; stable here
    because ``v`` (a square-rooted pmf) has a positive first entry.
    """
    u = np.sqrt(px)
    u[..., 0] += 1.0
    u /= np.sqrt(_matvec(u[..., None, :], u))  # one dot per row, as np.linalg.norm
    basis = (np.eye(u.shape[-1]) - 2.0 * (u[..., :, None] * u[..., None, :]))[..., 1:]
    _, s, vt = np.linalg.svd(b @ basis)
    return basis, s, vt


def _tied(s, vt, sigma2):
    """Rows of ``vt`` attaining ``sigma2``; rows past ``s`` are mapped to 0."""
    return np.abs(np.pad(s, (0, len(vt) - s.size)) - sigma2) < _SIGMA_TOL


def _direction(basis, vt):
    """The sign-normalised top direction ``basis @ vt[0]`` of each complement SVD."""
    psi = _matvec(basis, vt[..., 0, :])
    return _leading_sign(psi) * psi


def solve_coupling(dtm: Dtm) -> CouplingSolution:
    """Find the unit input direction orthogonal to ``sqrt(p_x)`` that the
    channel attenuates least.

    Equivalently the second singular vector of ``B``: the top one is
    ``sqrt(p_x)`` itself (singular value 1), which does not correspond to a
    valid probability perturbation.  The sign is fixed by making the first
    non-negligible entry of ``psi_x`` positive.
    """
    basis, s, vt = _complement_svd(dtm.matrix, dtm.p_x.probs)
    sigma2 = float(s[0])
    psi_x = _direction(basis, vt)
    return CouplingSolution(
        singular_values=dtm.singular_values,
        second_singular_value=sigma2,
        psi_x=psi_x,
        psi_y=_matvec(dtm.matrix, psi_x),
        degenerate_subspace=bool(np.count_nonzero(_tied(s, vt, sigma2)) > 1),
    )


def optimal_directions(dtm: Dtm, solution: CouplingSolution) -> np.ndarray:
    """Orthonormal basis of every direction attaining the optimum.

    Columns span the subspace of unit vectors orthogonal to ``sqrt(p_x)``
    whose image norm ties with ``second_singular_value`` within 1e-9.  One
    column for non-degenerate solutions; several when the channel treats
    multiple directions identically (then any unit vector of the span is an
    equally valid ``psi_x``, and callers may break the tie with outside
    information).
    """
    basis, s, vt = _complement_svd(dtm.matrix, dtm.p_x.probs)
    return basis @ vt[_tied(s, vt, solution.second_singular_value)].T


def replace_direction(solution: CouplingSolution, dtm: Dtm, psi_x) -> CouplingSolution:
    """Rebuild a solution around a different direction of the optimal subspace.

    The replacement must already lie in the span returned by
    :func:`optimal_directions` (so the attained singular value is unchanged);
    the sign convention is re-applied.
    """
    psi = np.asarray(psi_x, dtype=float)
    norm = np.linalg.norm(psi)
    if norm == 0:
        raise ValueError("replacement direction cannot be zero")
    psi = psi / norm
    psi = _leading_sign(psi) * psi
    return CouplingSolution(
        singular_values=solution.singular_values,
        second_singular_value=solution.second_singular_value,
        psi_x=psi,
        psi_y=_matvec(dtm.matrix, psi),
        degenerate_subspace=solution.degenerate_subspace,
    )


def perturb_distribution(
    p_x: DiscreteDistribution, psi_x, delta: float, sign: int = 1
) -> DiscreteDistribution:
    """Move a pmf a squared-distance ``delta`` along direction ``psi_x``.

    Returns ``q(x) = p(x) + sign * sqrt(delta * p(x)) * psi_x(x)``.  Because
    ``psi_x`` is orthogonal to ``sqrt(p_x)`` the entries still sum to one;
    ``delta`` beyond the feasibility limit (an entry would go negative)
    raises with the largest admissible value in the message.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not 0 <= delta < np.inf:
        raise ValueError("delta must be finite and nonnegative")
    psi = np.asarray(psi_x, dtype=float)
    p = p_x.probs
    if psi.shape != p.shape:
        raise ValueError("direction and distribution must share an alphabet")
    q = p + sign * np.sqrt(delta * p) * psi
    if np.any(q < -1e-15):
        moved = sign * psi
        shrink = moved < 0
        feasible = float(np.min(p[shrink] / moved[shrink] ** 2))
        raise ValueError(
            f"delta {delta!r} infeasible along this direction; "
            f"largest admissible delta is {feasible!r}"
        )
    return DiscreteDistribution(np.maximum(q, 0.0))


def local_mi_approx(p_u, psis, delta: float) -> float:
    """Second-order mutual-information value of a family of perturbations.

    With ``P(X|U=u)`` displaced from the common marginal along ``psis[u]``
    (row ``u``, in the square-root geometry used throughout), the mutual
    information between ``U`` and one observation is ``delta / 2`` times
    the ``P_U``-average of ``||psi_u||^2``, up to ``o(delta)``.
    """
    pu = (p_u if isinstance(p_u, DiscreteDistribution) else DiscreteDistribution(p_u)).probs
    rows = np.atleast_2d(np.asarray(psis, dtype=float))
    if rows.shape[0] != pu.size:
        raise ValueError("need one direction per value of U")
    if not np.all(np.isfinite(rows)):
        raise ValueError("directions must be finite")
    if not 0 <= delta < np.inf:
        raise ValueError("delta must be finite and nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(0.5 * delta * np.sum(pu * np.sum(rows**2, axis=1)))
    if not np.isfinite(value):
        raise ValueError("local MI overflows float64; rescale the directions or delta")
    return value


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Additive per-symbol scores over a full output alphabet.

    Symbols dropped while building the Dtm (unreachable outputs) score 0
    and are listed in ``dropped_outputs``.
    """

    scores: np.ndarray
    dropped_outputs: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=float)
        d = np.asarray(self.dropped_outputs, dtype=np.int64)
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "dropped_outputs", d)
        if s.ndim != 1 or s.size < 2:
            raise ValueError("score table needs a full output alphabet")
        if not np.all(np.isfinite(s)):
            raise ValueError("scores must be finite")
        if d.size and (d.min() < 0 or d.max() >= s.size):
            raise ValueError("dropped symbols outside the alphabet")


def _scores(psi_y, py):
    """Scores ``psi_y / sqrt(p_y)`` of each row, checked to be mean-zero
    under ``p_y`` and finite."""
    scores = psi_y / np.sqrt(py)
    if np.any(np.abs(np.sum(py * scores, axis=-1)) > 1e-9):
        raise ValueError("scores are not mean-zero under the output marginal")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    return scores


def score_table(solution: CouplingSolution, dtm: Dtm) -> ScoreTable:
    """Per-symbol scores ``f(y) = psi_y(y) / sqrt(p_y(y))``.

    The scores have zero mean under ``p_y`` (a direct consequence of
    ``psi_x`` being orthogonal to ``sqrt(p_x)``), so score sums discriminate
    between the two perturbation signs symmetrically.
    """
    if solution.psi_y.size != dtm.p_y.size:
        raise ValueError("solution does not belong to this Dtm")
    scores = np.zeros(dtm.output_alphabet)
    scores[dtm.output_symbols] = _scores(solution.psi_y, dtm.p_y.probs)
    # not setdiff1d: its first call imports numpy.ma, 1.8 MB in a sweep point's peak
    dropped = np.flatnonzero(~np.isin(np.arange(dtm.output_alphabet), dtm.output_symbols))
    return ScoreTable(scores=scores, dropped_outputs=dropped)


def _coupling_scores(w, px, py):
    """Score rows for a stack of DTMs sharing the channel block ``w``: the
    formulas and contract checks of ``build_dtm``, ``solve_coupling`` and
    ``score_table``, one stacked call each, for the kept marginals ``px``
    (m, Kx) and ``py`` (m, Ky)."""
    b = _dtm_matrix(w, px, py)
    _dtm_singular_values(b, px, py)
    basis, s, vt = _complement_svd(b, px)
    psi_x = _direction(basis, vt)
    psi_y = _matvec(b, psi_x)
    _check_direction(psi_x, psi_y, s[..., 0])
    return _scores(psi_y, py)


def sequence_score(table: ScoreTable, symbols) -> float:
    """Sum of per-symbol scores of an observation sequence."""
    y = np.asarray(symbols)
    if y.size == 0:
        return 0.0
    y = y.reshape(-1)
    if not np.issubdtype(y.dtype, np.integer):
        raise ValueError("observations must be integer symbols")
    if y.min() < 0 or y.max() >= table.scores.size:
        bad = int(y[(y < 0) | (y >= table.scores.size)][0])
        raise ValueError(f"unknown output symbol {bad}")
    return float(table.scores[y].sum())


def tensor_dtm(a: Dtm, b: Dtm) -> Dtm:
    """Dtm of two channels used independently side by side.

    The product construction is the Kronecker product throughout, so the
    singular values of the result are all pairwise products of the factors'
    singular values; with enough repetitions weak couplings compound.
    """
    return Dtm(
        matrix=np.kron(a.matrix, b.matrix),
        p_x=DiscreteDistribution(np.kron(a.p_x.probs, b.p_x.probs)),
        p_y=DiscreteDistribution(np.kron(a.p_y.probs, b.p_y.probs)),
        input_symbols=np.arange(a.p_x.size * b.p_x.size),
        output_symbols=np.arange(a.p_y.size * b.p_y.size),
        input_alphabet=a.p_x.size * b.p_x.size,
        output_alphabet=a.p_y.size * b.p_y.size,
    )


def solution_to_dict(solution: CouplingSolution, table: ScoreTable) -> dict:
    return {
        "sigma": solution.singular_values.tolist(),
        "psi_x": solution.psi_x.tolist(),
        "psi_y": solution.psi_y.tolist(),
        "score": {str(y): float(s) for y, s in enumerate(table.scores)},
        "dropped_outputs": table.dropped_outputs.tolist(),
        "degenerate_subspace": solution.degenerate_subspace,
    }
