"""Executable checkers for the Loewner-order theorems.

Each case evaluates a premise and, when it holds, asserts the conclusion at a
small negative eigenvalue slack (chained matrix functions amplify rounding,
so conclusions use the looser ``LOEWNER_TOL`` rather than equality
tolerance).  The result records both truth values and the worst margin, so a
randomized campaign can distinguish "premise never sampled" from "conclusion
violated".

The matrix cases also take stacks of inputs (..., n, n), with the scalar
parameters t and p either one float or one per item; the truth values and
margins of the result then hold one entry per item.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, NonPositiveEntry, UnknownCase
from .kernel import (
    LOEWNER_TOL,
    PD_TOL,
    _eigvalsh,
    _item,
    _per,
    _per_item,
    _require_finite,
    as_stack,
    hermitian_part,
    invm,
    logm,
    min_eig,
    powm,
    require_hermitian,
    require_same_dim,
    sqrtm,
)
from .means import geo_mean, spectral_mean
from .metrics import distance

@dataclass
class CheckResult:
    """Outcome of a single inequality check.

    ``margin`` is the most negative eigenvalue slack across the orderings the
    case asserts (a scalar gap for the scalar cases); when the premise holds,
    a margin below -LOEWNER_TOL is an implementation bug, not a data state.
    For a stack of inputs the truth values and the margin are arrays with
    one entry per item, except where a case fixes them for every input.
    """

    premise_held: bool
    conclusion_held: bool
    margin: float


def _gap(X, Y):
    """Eigenvalue slack of X <= Y: min-eig(Y - X), item by item for stacks."""
    return min_eig(hermitian_part(as_stack(Y) - as_stack(X)))


def _le(X, Y):
    """X <= Y in the Loewner order at ``LOEWNER_TOL``, item by item for stacks."""
    return _gap(X, Y) >= -LOEWNER_TOL


def _combine(premise, gaps):
    margin = _per_item(np.min(gaps, axis=0))
    return CheckResult(premise, premise & (margin >= -LOEWNER_TOL), margin)


def check_loewner_heinz(A, B, C) -> CheckResult:
    """C^2 <= A <= B implies C <= A^{1/2} <= B^{1/2} (C Hermitian, A, B PD)."""
    Am, Bm = as_stack(A), as_stack(B)
    Cm = require_hermitian(C)
    require_same_dim(Am, Bm, Cm)
    premise = _le(Cm @ Cm, Am) & _le(Am, Bm)
    rootA = sqrtm(Am)
    gaps = [_gap(Cm, rootA), _gap(rootA, sqrtm(Bm))]
    return _combine(premise, gaps)


def check_furuta(A, B, p: float) -> CheckResult:
    """0 <= B <= A implies A^p # B^{-p} >= I for any p > 0."""
    Am, Bm = as_stack(A), as_stack(B)
    require_same_dim(Am, Bm)
    premise = _le(Bm, Am) & (p > 0)
    G = geo_mean(powm(Am, p), powm(Bm, -p), 0.5)
    gaps = [_gap(np.eye(Am.shape[-1]), G)]
    return _combine(premise, gaps)


def check_ando_hiai(A, B, p: float) -> CheckResult:
    """A # B <= I implies A^p # B^p <= I for p >= 1."""
    Am, Bm = as_stack(A), as_stack(B)
    require_same_dim(Am, Bm)
    eye = np.eye(Am.shape[-1])
    premise = _le(geo_mean(Am, Bm, 0.5), eye) & (p >= 1)
    G = geo_mean(powm(Am, p), powm(Bm, p), 0.5)
    return _combine(premise, [_gap(G, eye)])


def check_main_spectral_AH(A, B, t: float, p: float) -> CheckResult:
    """A^{-1} natural_t B <= A^{-1} implies A^p # B^p <= I for p >= 1."""
    Am, Bm = as_stack(A), as_stack(B)
    require_same_dim(Am, Bm)
    Ainv = invm(Am)
    premise = (_le(spectral_mean(Ainv, Bm, t), Ainv)
               & (0 < t) & (t <= 1) & (p >= 1))
    eye = np.eye(Am.shape[-1])
    G = geo_mean(powm(Am, p), powm(Bm, p), 0.5)
    return _combine(premise, [_gap(G, eye)])


def check_power_chain(A, B, p: float) -> CheckResult:
    """A # B <= I implies A^{p+1} # (A #_{p/2} B) <= A for p > 0.

    At p = 2 the conclusion reads A^3 # B <= A, which is also asserted
    directly on the same inputs.
    """
    Am, Bm = as_stack(A), as_stack(B)
    require_same_dim(Am, Bm)
    eye = np.eye(Am.shape[-1])
    premise = _le(geo_mean(Am, Bm, 0.5), eye) & (p > 0)
    G = geo_mean(powm(Am, p + 1.0), geo_mean(Am, Bm, p / 2.0), 0.5)
    gaps = [_gap(G, Am)]
    at_two = np.asarray(p) == 2
    if at_two.any():
        direct = _gap(geo_mean(powm(Am, 3.0), Bm, 0.5), Am)
        gaps.append(np.where(at_two, direct, np.inf))
    return _combine(premise, gaps)


def check_equivalence_five(A, B) -> CheckResult:
    """The five order statements must share one truth value on every input."""
    flags = equivalence_statements(A, B)
    stacked = np.array(flags)
    consistent = stacked.all(axis=0) | ~stacked.any(axis=0)
    return CheckResult(True, consistent, 0.0)


def check_contraction(S, X) -> CheckResult:
    """S X S <= X (S Hermitian, X PD) implies S <= I."""
    Sm = require_hermitian(S)
    Xm = as_stack(X)
    require_same_dim(Sm, Xm)
    premise = _le(hermitian_part(Sm @ Xm @ Sm), Xm)
    return _combine(premise, [_gap(Sm, np.eye(Sm.shape[-1]))])


def check_bounds_spectral(A, B, t: float) -> CheckResult:
    """Two-sided bound on the weighted spectral mean.

    Lower: 2^{1+t}(A + B^{-1})^{-t} - A^{-1} <= A natural_t B.  The upper
    bound is asserted in its inverse-free form
    2^{1+t}(A^{-1} + B)^{-t} - A <= (A natural_t B)^{-1}, which is the same
    statement whenever the left side is positive definite (then the familiar
    A natural_t B <= [...]^{-1} is also checked directly); for indefinite
    left sides the inverted form is not an ordering and only the inverse-free
    form is meaningful.
    """
    Am, Bm = as_stack(A), as_stack(B)
    require_same_dim(Am, Bm)
    S = spectral_mean(Am, Bm, t)
    scale = _per(2.0 ** (1.0 + np.asarray(t)))
    Ainv = invm(Am)
    lower = scale * powm(Am + invm(Bm), -t) - Ainv
    dual = scale * powm(Ainv + Bm, -t) - Am
    gaps = [_gap(lower, S), _gap(dual, invm(S))]
    pd = np.asarray(min_eig(dual) > PD_TOL)
    if pd.any():
        direct = np.full(pd.shape, np.inf)
        direct[pd] = _gap(S[pd], invm(dual[pd]))
        gaps.append(direct)
    return _combine(True, gaps)


def check_log_sum_condition(A, B) -> CheckResult:
    """log A + log B <= 0 implies A # B <= I."""
    Am, Bm = as_stack(A), as_stack(B)
    require_same_dim(Am, Bm)
    n = Am.shape[-1]
    premise = _le(logm(Am) + logm(Bm), np.zeros((n, n)))
    gap = _gap(geo_mean(Am, Bm, 0.5), np.eye(n))
    return _combine(premise, [gap])


def check_d_le_delta(A, B) -> CheckResult:
    """Frobenius semi-metric never exceeds the Riemannian trace metric."""
    d = distance("semimetric_frob", A, B)
    delta = distance("riemannian", A, B)
    margin = delta - d
    return CheckResult(True, margin >= -LOEWNER_TOL, margin)


def check_logmaj_mean(A, B, t: float) -> CheckResult:
    """Eigenvalues of A #_t B are log-majorized by those of A^{1-t} B^t."""
    Am, Bm = as_stack(A), as_stack(B)
    require_same_dim(Am, Bm)
    x = _eigvalsh(geo_mean(Am, Bm, t))[..., ::-1]
    # A^{1-t} B^t has the eigenvalues of the Hermitian form B^{t/2} A^{1-t} B^{t/2}
    half = powm(Bm, t / 2.0)
    y = _eigvalsh(hermitian_part(half @ powm(Am, 1.0 - t) @ half))[..., ::-1]
    lx, ly = np.log(x), np.log(y)
    prefix_gaps = np.cumsum(ly, axis=-1) - np.cumsum(lx, axis=-1)
    margin = _per_item(prefix_gaps.min(axis=-1))
    det_gap = prefix_gaps[..., -1]
    held = (margin >= -LOEWNER_TOL) & (abs(det_gap) <= LOEWNER_TOL)
    return CheckResult(True, held, margin)


_DISPATCH = {
    "loewner_heinz": check_loewner_heinz,
    "furuta": check_furuta,
    "ando_hiai": check_ando_hiai,
    "main_spectral_AH": check_main_spectral_AH,
    "power_chain": check_power_chain,
    "equivalence_five": check_equivalence_five,
    "contraction": check_contraction,
    "bounds_spectral": check_bounds_spectral,
    "log_sum_condition": check_log_sum_condition,
    "d_le_delta": check_d_le_delta,
    "logmaj_mean": check_logmaj_mean,
}
INEQUALITY_CASES = tuple(_DISPATCH)


def check(case: str, *args, **kwargs) -> CheckResult:
    """Run one inequality case on case-specific inputs."""
    try:
        fn = _DISPATCH[case]
    except KeyError:
        raise UnknownCase(f"unknown inequality case {case!r}") from None
    return fn(*args, **kwargs)


def equivalence_statements(A, B) -> tuple:
    """Truth values of the five equivalent order statements.

    (1) A^{-1} natural B <= I, (2) A natural B^{-1} >= I, (3) A # B <= A,
    (4) A # B >= B, (5) B <= A -- all evaluated independently at LOEWNER_TOL.
    For stacks of pairs each truth value is an array, one per item.
    """
    Am, Bm = as_stack(A), as_stack(B)
    require_same_dim(Am, Bm)
    eye = np.eye(Am.shape[-1])
    Ainv, Binv = invm(Am), invm(Bm)
    sharp = geo_mean(Am, Bm, 0.5)
    return (
        _le(spectral_mean(Ainv, Bm, 0.5), eye),
        _le(eye, spectral_mean(Am, Binv, 0.5)),
        _le(sharp, Am),
        _le(Bm, sharp),
        _le(Bm, Am),
    )


def weak_majorize(x, y, log_scale: bool = False) -> tuple:
    """Prefix-dominance of descending vectors, with a totals-equal flag.

    Linear scale compares prefix sums; log scale compares prefix products
    (via log sums) and requires strictly positive entries.  Returns
    (dominates, totals_equal); both true together means majorization proper.
    Also takes stacks of vectors (..., n) and then returns two bool arrays
    of the leading shape; a bad item raises the single call's error.
    """
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if xv.shape != yv.shape or xv.ndim < 1:
        raise LengthMismatch(f"shapes {xv.shape} and {yv.shape} differ")
    for v in (xv, yv):
        _require_finite(v, "vector has a NaN or infinite entry", axes=-1)
        bad = (np.diff(v, axis=-1) > LOEWNER_TOL).any(axis=-1)
        if bad.any():
            raise ValueError(_item(bad) + "vectors must be sorted in descending order")
    if log_scale:
        bad = ((xv <= 0) | (yv <= 0)).any(axis=-1)
        if bad.any():
            raise NonPositiveEntry(_item(bad) + "log-scale majorization needs positive entries")
        xv, yv = np.log(xv), np.log(yv)
    prefix_y = np.cumsum(yv, axis=-1)
    gaps = prefix_y - np.cumsum(xv, axis=-1)
    dominates = gaps.min(axis=-1) >= -LOEWNER_TOL
    scale = np.maximum(1.0, np.abs(prefix_y).max(axis=-1))
    totals_equal = np.abs(gaps[..., -1]) <= LOEWNER_TOL * scale
    if xv.ndim == 1:
        return bool(dominates), bool(totals_equal)
    return dominates, totals_equal
