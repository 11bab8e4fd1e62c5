"""Executable checkers for the Loewner-order theorems.

Each case evaluates a premise and, when it holds, asserts the conclusion at a
small negative eigenvalue slack (chained matrix functions amplify rounding,
so conclusions use the looser ``loewner_tol`` rather than equality
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
    DEFAULT_TOL,
    TolerancePolicy,
    _item,
    _per_item,
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

INEQUALITY_CASES = (
    "loewner_heinz",
    "furuta",
    "ando_hiai",
    "main_spectral_AH",
    "power_chain",
    "equivalence_five",
    "contraction",
    "bounds_spectral",
    "log_sum_condition",
    "d_le_delta",
    "logmaj_mean",
)


@dataclass
class CheckResult:
    """Outcome of a single inequality check.

    ``margin`` is the most negative eigenvalue slack across the orderings the
    case asserts (a scalar gap for the scalar cases); when the premise holds,
    a margin below -loewner_tol is an implementation bug, not a data state.
    For a stack of inputs the truth values and the margin are arrays with
    one entry per item, except where a case fixes them for every input.
    """

    case: str
    premise_held: bool
    conclusion_held: bool
    margin: float
    witness: str = ""


def _gap(X, Y):
    """Eigenvalue slack of X <= Y: min-eig(Y - X), item by item for stacks."""
    return min_eig(hermitian_part(as_stack(Y) - as_stack(X)))


def _combine(case, premise, gaps, slack, witness=""):
    margin = _per_item(np.min(gaps, axis=0))
    return CheckResult(case, premise, premise & (margin >= -slack), margin, witness)


def _fmt(x, spec: str) -> str:
    """Format a per-item value, or each entry of an array of them."""
    if np.ndim(x) == 0:
        return format(x, spec)
    return np.array2string(np.asarray(x),
                           formatter={"float_kind": lambda v: format(v, spec)})


def _weight(x):
    """A scalar parameter as a factor of a matrix or of each item of a stack."""
    return np.asarray(x)[..., None, None]


def check_loewner_heinz(A, B, C, tol: TolerancePolicy = DEFAULT_TOL) -> CheckResult:
    """C^2 <= A <= B implies C <= A^{1/2} <= B^{1/2} (C Hermitian, A, B PD)."""
    Am, Bm = as_stack(A), as_stack(B)
    Cm = require_hermitian(C, tol.hermiticity_tol)
    require_same_dim(Am, Bm, Cm)
    slack = tol.loewner_tol
    premise = (_gap(Cm @ Cm, Am) >= -slack) & (_gap(Am, Bm) >= -slack)
    gaps = [_gap(Cm, sqrtm(Am, tol)), _gap(sqrtm(Am, tol), sqrtm(Bm, tol))]
    return _combine("loewner_heinz", premise, gaps, slack)


def check_furuta(A, B, p: float, tol: TolerancePolicy = DEFAULT_TOL) -> CheckResult:
    """0 <= B <= A implies A^p # B^{-p} >= I for any p > 0."""
    Am, Bm = as_stack(A), as_stack(B)
    require_same_dim(Am, Bm)
    slack = tol.loewner_tol
    premise = (_gap(Bm, Am) >= -slack) & (p > 0)
    G = geo_mean(powm(Am, p, tol), powm(Bm, -p, tol), 0.5, tol)
    gaps = [_gap(np.eye(Am.shape[-1]), G)]
    return _combine("furuta", premise, gaps, slack, witness=f"p={p}")


def check_ando_hiai(A, B, p: float, tol: TolerancePolicy = DEFAULT_TOL) -> CheckResult:
    """A # B <= I implies A^p # B^p <= I for p >= 1."""
    Am, Bm = as_stack(A), as_stack(B)
    require_same_dim(Am, Bm)
    slack = tol.loewner_tol
    eye = np.eye(Am.shape[-1])
    premise = (_gap(geo_mean(Am, Bm, 0.5, tol), eye) >= -slack) & (p >= 1)
    G = geo_mean(powm(Am, p, tol), powm(Bm, p, tol), 0.5, tol)
    return _combine("ando_hiai", premise, [_gap(G, eye)], slack, witness=f"p={p}")


def check_main_spectral_AH(A, B, t: float, p: float,
                           tol: TolerancePolicy = DEFAULT_TOL) -> CheckResult:
    """A^{-1} natural_t B <= A^{-1} implies A^p # B^p <= I for p >= 1."""
    Am, Bm = as_stack(A), as_stack(B)
    require_same_dim(Am, Bm)
    slack = tol.loewner_tol
    Ainv = invm(Am, tol)
    premise = ((_gap(spectral_mean(Ainv, Bm, t, tol), Ainv) >= -slack)
               & (0 < t) & (t <= 1) & (p >= 1))
    eye = np.eye(Am.shape[-1])
    G = geo_mean(powm(Am, p, tol), powm(Bm, p, tol), 0.5, tol)
    return _combine("main_spectral_AH", premise, [_gap(G, eye)], slack,
                    witness=f"t={t}, p={p}")


def check_power_chain(A, B, p: float, tol: TolerancePolicy = DEFAULT_TOL) -> CheckResult:
    """A # B <= I implies A^{p+1} # (A #_{p/2} B) <= A for p > 0.

    At p = 2 the conclusion reads A^3 # B <= A, which is also asserted
    directly on the same inputs.
    """
    Am, Bm = as_stack(A), as_stack(B)
    require_same_dim(Am, Bm)
    slack = tol.loewner_tol
    eye = np.eye(Am.shape[-1])
    premise = (_gap(geo_mean(Am, Bm, 0.5, tol), eye) >= -slack) & (p > 0)
    G = geo_mean(powm(Am, p + 1.0, tol), geo_mean(Am, Bm, p / 2.0, tol), 0.5, tol)
    gaps = [_gap(G, Am)]
    at_two = np.asarray(p) == 2
    if at_two.any():
        direct = _gap(geo_mean(powm(Am, 3.0, tol), Bm, 0.5, tol), Am)
        gaps.append(np.where(at_two, direct, np.inf))
    return _combine("power_chain", premise, gaps, slack, witness=f"p={p}")


def check_equivalence_five(A, B, tol: TolerancePolicy = DEFAULT_TOL) -> CheckResult:
    """The five order statements must share one truth value on every input."""
    flags = equivalence_statements(A, B, tol)
    stacked = np.array(flags)
    consistent = stacked.all(axis=0) | ~stacked.any(axis=0)
    return CheckResult("equivalence_five", True, consistent, 0.0,
                       witness=f"statements={flags}")


def check_contraction(S, X, tol: TolerancePolicy = DEFAULT_TOL) -> CheckResult:
    """S X S <= X (S Hermitian, X PD) implies S <= I."""
    Sm = require_hermitian(S, tol.hermiticity_tol)
    Xm = as_stack(X)
    require_same_dim(Sm, Xm)
    slack = tol.loewner_tol
    premise = _gap(hermitian_part(Sm @ Xm @ Sm), Xm) >= -slack
    return _combine("contraction", premise, [_gap(Sm, np.eye(Sm.shape[-1]))], slack)


def check_bounds_spectral(A, B, t: float,
                          tol: TolerancePolicy = DEFAULT_TOL) -> CheckResult:
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
    slack = tol.loewner_tol
    S = spectral_mean(Am, Bm, t, tol)
    scale = _weight(2.0 ** (1.0 + np.asarray(t)))
    lower = scale * powm(Am + invm(Bm, tol), -t, tol) - invm(Am, tol)
    dual = scale * powm(invm(Am, tol) + Bm, -t, tol) - Am
    gaps = [_gap(lower, S), _gap(dual, invm(S, tol))]
    pd = min_eig(dual, tol) > tol.pd_tol
    if S.ndim == 2:
        if pd:
            gaps.append(_gap(S, invm(dual, tol)))
    elif pd.any():
        direct = np.full(pd.shape, np.inf)
        direct[pd] = _gap(S[pd], invm(dual[pd], tol))
        gaps.append(direct)
    return _combine("bounds_spectral", True, gaps, slack, witness=f"t={t}")


def check_log_sum_condition(A, B, tol: TolerancePolicy = DEFAULT_TOL) -> CheckResult:
    """log A + log B <= 0 implies A # B <= I."""
    Am, Bm = as_stack(A), as_stack(B)
    require_same_dim(Am, Bm)
    slack = tol.loewner_tol
    n = Am.shape[-1]
    premise = _gap(logm(Am, tol) + logm(Bm, tol), np.zeros((n, n))) >= -slack
    gap = _gap(geo_mean(Am, Bm, 0.5, tol), np.eye(n))
    return _combine("log_sum_condition", premise, [gap], slack)


def check_d_le_delta(A, B, tol: TolerancePolicy = DEFAULT_TOL) -> CheckResult:
    """Frobenius semi-metric never exceeds the Riemannian trace metric."""
    d = distance("semimetric_frob", A, B, tol)
    delta = distance("riemannian", A, B, tol)
    margin = delta - d
    return CheckResult("d_le_delta", True, margin >= -tol.loewner_tol, margin,
                       witness=f"d={_fmt(d, '.6g')}, delta={_fmt(delta, '.6g')}")


def check_logmaj_mean(A, B, t: float,
                      tol: TolerancePolicy = DEFAULT_TOL) -> CheckResult:
    """Eigenvalues of A #_t B are log-majorized by those of A^{1-t} B^t."""
    Am, Bm = as_stack(A), as_stack(B)
    require_same_dim(Am, Bm)
    x = np.linalg.eigvalsh(geo_mean(Am, Bm, t, tol))[..., ::-1]
    # A^{1-t} B^t has the eigenvalues of the Hermitian form B^{t/2} A^{1-t} B^{t/2}
    half = powm(Bm, t / 2.0, tol)
    y = np.linalg.eigvalsh(hermitian_part(half @ powm(Am, 1.0 - t, tol) @ half))[..., ::-1]
    lx, ly = np.log(x), np.log(y)
    prefix_gaps = np.cumsum(ly, axis=-1) - np.cumsum(lx, axis=-1)
    margin = _per_item(prefix_gaps.min(axis=-1))
    det_gap = prefix_gaps[..., -1]
    held = (margin >= -tol.loewner_tol) & (abs(det_gap) <= tol.loewner_tol)
    return CheckResult("logmaj_mean", True, held, margin,
                       witness=f"t={t}, det-gap={_fmt(det_gap, '.3e')}")


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


def check(case: str, *args, tol: TolerancePolicy = DEFAULT_TOL, **kwargs) -> CheckResult:
    """Run one inequality case on case-specific inputs."""
    try:
        fn = _DISPATCH[case]
    except KeyError:
        raise UnknownCase(f"unknown inequality case {case!r}") from None
    return fn(*args, tol=tol, **kwargs)


def equivalence_statements(A, B, tol: TolerancePolicy = DEFAULT_TOL) -> tuple:
    """Truth values of the five equivalent order statements.

    (1) A^{-1} natural B <= I, (2) A natural B^{-1} >= I, (3) A # B <= A,
    (4) A # B >= B, (5) B <= A -- all evaluated independently at loewner_tol.
    For stacks of pairs each truth value is an array, one per item.
    """
    Am, Bm = as_stack(A), as_stack(B)
    require_same_dim(Am, Bm)
    slack = tol.loewner_tol
    eye = np.eye(Am.shape[-1])
    Ainv, Binv = invm(Am, tol), invm(Bm, tol)
    sharp = geo_mean(Am, Bm, 0.5, tol)
    return (
        _gap(spectral_mean(Ainv, Bm, 0.5, tol), eye) >= -slack,
        _gap(eye, spectral_mean(Am, Binv, 0.5, tol)) >= -slack,
        _gap(sharp, Am) >= -slack,
        _gap(Bm, sharp) >= -slack,
        _gap(Bm, Am) >= -slack,
    )


def weak_majorize(x, y, log_scale: bool = False,
                  tol: float = DEFAULT_TOL.loewner_tol) -> tuple:
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
        bad = (np.diff(v, axis=-1) > tol).any(axis=-1)
        if bad.any():
            raise ValueError(_item(bad) + "vectors must be sorted in descending order")
    if log_scale:
        bad = ((xv <= 0) | (yv <= 0)).any(axis=-1)
        if bad.any():
            raise NonPositiveEntry(_item(bad) + "log-scale majorization needs positive entries")
        xv, yv = np.log(xv), np.log(yv)
    prefix_y = np.cumsum(yv, axis=-1)
    gaps = prefix_y - np.cumsum(xv, axis=-1)
    dominates = gaps.min(axis=-1) >= -tol
    scale = np.maximum(1.0, np.abs(prefix_y).max(axis=-1))
    totals_equal = np.abs(gaps[..., -1]) <= tol * scale
    if xv.ndim == 1:
        return bool(dominates), bool(totals_equal)
    return dominates, totals_equal
