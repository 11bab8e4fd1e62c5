"""Closed forms for 2x2 positive definite matrices and qubit states.

Every formula here is a linear-combination or rational rewrite of a mean that
the general spectral path also computes; the test suite cross-validates the
two routes.  The difference-quotient map L harmonizes the coefficients: for
f(x) = x^t it is L_t(x) = (x^t - x^{-t})/(x - x^{-1}), extended continuously
by t at x = 1, and satisfies L_t(x) = L_t(1/x), which makes every eigenvalue
branch choice below immaterial.
Every function also takes stacks of 2x2 matrices or of Bloch vectors, with
one t or one per item, as the kernel and the ball do.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    NonPositiveArgument,
    NotUnitDeterminant,
    WeightOutOfRange,
)
from .ball import (
    _bloch_to_density,
    _col,
    _einstein_add,
    _gamma,
    _norm,
    _require_ball_pair,
    _require_bloch,
    _weight,
    gyromidpoint,
)
from .kernel import (
    _any,
    _framed,
    _item,
    _pd_eigh,
    _pd_eigvals,
    _per,
    _per_item,
    _powm,
    _require_finite,
    _sandwich,
    _times_exp2,
    _top_eig,
    _trace,
    _unscale,
    _unscale_values,
    as_stack,
    hermitian_part,
    require_hermitian,
    powm,
    require_same_dim,
    require_weight,
)
from .metrics import sup_ratio

UNIT_DET_TOL = 1e-9

# l_map switches to its x = 1 branch inside this window; the two branches
# agree to second order there, so the switch costs O(1e-14), not O(1e-7).
LMAP_BRANCH_WINDOW = 1e-7


def l_map(t, x):
    """Difference quotient (x^t - x^{-t})/(x - x^{-1}), valued t at x = 1; elementwise."""
    bad = ~np.isfinite(t)
    if _any(bad):
        raise WeightOutOfRange(
            _item(bad) + f"curve parameter {float(np.asarray(t)[bad][0])!r} is not finite")
    x = np.asarray(x, dtype=float)[()]  # a numpy scalar for one x
    _require_finite(x, "l_map needs a finite x", axes=())
    bad = ~(x > 0)
    if _any(bad):
        raise NonPositiveArgument(
            _item(bad) + f"l_map needs x > 0, got {float(np.asarray(x)[bad][0])!r}")
    near = abs(x - 1.0) < LMAP_BRANCH_WINDOW
    # + near: the unused quotient inside the window never divides by zero
    quotient = (x**t - x**(-t)) / (x - 1.0 / x + near)
    if quotient.ndim:
        return np.where(near, t, quotient)
    return float(t if near else quotient)


def _require_2x2(M) -> np.ndarray:
    A = as_stack(M)
    if A.shape[-2:] != (2, 2):
        raise DimensionMismatch(f"expected 2x2 matrices, got shape {A.shape}")
    return A


def det2(X):
    """Determinant of a 2x2 matrix, directly (one per item of a stack)."""
    M = _require_2x2(X)
    return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]


def _require_unit_det(A) -> np.ndarray:
    M = _require_2x2(A)
    # an overflowed or underflowed determinant differs from 1 as well
    with np.errstate(over="ignore", invalid="ignore"):
        d = det2(M).real
    bad = ~(np.abs(d - 1.0) < UNIT_DET_TOL)
    if _any(bad):
        raise NotUnitDeterminant(
            _item(bad) + f"determinant {float(np.asarray(d)[bad][0])!r} differs from 1")
    return M


def relative_eigenvalue(A, B):
    """Larger eigenvalue of A B^{-1}: the least alpha with A <= alpha B."""
    return sup_ratio(B, A)


def gm2_det1(A, B, t) -> np.ndarray:
    """Weighted geometric mean of unit-determinant 2x2 matrices.

    A #_t B = L_{1-t}(lam) A + L_t(lam) B with lam an eigenvalue of A B^{-1};
    the larger branch is used, and the result does not depend on that choice.
    """
    Am = _require_unit_det(A)
    Bm = _require_unit_det(B)
    require_same_dim(Am, Bm)
    t = _weight(t, Am[..., 0])  # one weight per 2x2 item
    lam = relative_eigenvalue(Am, Bm)  # with the tests of A and B
    return _per(l_map(1.0 - t, lam)) * Am + _per(l_map(t, lam)) * Bm


def sgm2(A, B, t) -> np.ndarray:
    """Weighted spectral geometric mean of 2x2 positive definite matrices.

    Unit-determinant inputs use
        (A^{-1} + B)^t A (A^{-1} + B)^t / (2 + tr(AB))^t;
    general inputs with det A = a^2, det B = b^2 use
        (ab A^{-1} + B)^t A (ab A^{-1} + B)^t / (2ab + tr(AB))^t,
    which is the first form at a = b = 1.
    """
    Am = _require_2x2(A)
    Bm = _require_2x2(B)
    require_same_dim(Am, Bm)
    w = require_weight(t, Am)
    (Am, Bm), e = _framed(Am, Bm)
    dec_a = _pd_eigh(Am)
    _pd_eigvals(Bm)
    ab = np.sqrt(det2(Am).real) * np.sqrt(det2(Bm).real)
    bracket = _per(ab) * _powm(dec_a, -1.0) + Bm
    Mt = powm(hermitian_part(bracket), t)
    P = _sandwich(Mt, Am) / _per((2.0 * ab + _trace(Am @ Bm)) ** t)
    return _unscale(P, e, 1.0 - w, w)


def det_shift_identity(c, X):
    """|det(cI + X) - (c^2 + c tr X + det X)| for a 2x2 matrix X."""
    M = _require_finite(_require_2x2(X))
    c = _require_finite(np.asarray(c, dtype=float), "shift c is not finite", axes=())
    # of degree 2 in a common scale of c and X: made where the larger of |c|
    # and X's largest |entry| lies in [1/2, 1), so that nothing overflows
    k = np.frexp(np.maximum(np.abs(c), np.abs(M).max(axis=(-2, -1))))[1]
    c, M = _times_exp2(c, -k), _times_exp2(M, -k[..., None, None])
    lhs = det2(_per(c) * np.eye(2) + M)
    rhs = c**2 + c * np.trace(M, axis1=-2, axis2=-1) + det2(M)
    return _per_item(_unscale_values(np.abs(lhs - rhs)[..., None], 2 * k[..., None])[..., 0])


def _qubit_mean_eigenvalues(a, b, ga, gb):
    base = ga * gb * (1.0 - np.vecdot(a, b))
    w = _norm(_einstein_add(a, -b))
    return base * (1.0 + w), base * (1.0 - w)


def qubit_mean_eigenvalues(u, v) -> tuple:
    """The reciprocal eigenvalue pair governing the qubit mean combination.

    These are the eigenvalues of (2 gamma_u rho_u)(2 gamma_v rho_v)^{-1}:
        mu_pm = gamma_u gamma_v (1 - u.v) (1 +/- ||u (+)_E (-v)||),
    equal to exp(+/- d(u, v)) in the rapidity metric, so mu_+ mu_- = 1.
    """
    a, b = _require_ball_pair(u, v)
    mu = _qubit_mean_eigenvalues(a, b, _gamma(a), _gamma(b))
    return tuple(_per_item(m) for m in mu)


def qubit_geo_mean(u, v, t) -> np.ndarray:
    """Weighted geometric mean of two qubit states as a linear combination.

    Returns L_{1-t}(mu) (g_u/g_v)^t rho_u + L_t(mu) (g_v/g_u)^{1-t} rho_v,
    the (unnormalized) mean rho_u #_t rho_v itself.
    """
    a, b = _require_ball_pair(u, v, _require_bloch)
    t = _weight(t, a)
    ga, gb = _gamma(a), _gamma(b)
    mu = _qubit_mean_eigenvalues(a, b, ga, gb)[0]
    return (_per(l_map(1.0 - t, mu) * (ga / gb) ** t) * _bloch_to_density(a)
            + _per(l_map(t, mu) * (gb / ga) ** (1.0 - t)) * _bloch_to_density(b))


def qubit_spectral_mean(u, v, t) -> np.ndarray:
    """Weighted spectral geometric mean of two qubit states, closed form.

    rho_u natural_t rho_v =
        (2 g_u/g_v)^t M^t rho_u M^t / (1 + g_{u (+) v})^t,
    with M = g_u rho_{-u} + g_v rho_v and g_{u (+) v} = g_u g_v (1 + u.v).
    """
    a, b = _require_ball_pair(u, v, _require_bloch)
    t = _weight(t, a)
    ga, gb = _gamma(a), _gamma(b)
    M = _per(ga) * _bloch_to_density(-a) + _per(gb) * _bloch_to_density(b)
    Mt = _powm(_pd_eigh(hermitian_part(M)), _col(t))
    gamma_sum = ga * gb * (1.0 + np.vecdot(a, b))
    scale = (2.0 * ga / gb) ** t / (1.0 + gamma_sum) ** t
    return _per(scale) * _sandwich(Mt, _bloch_to_density(a))


def norm_product_check(A, B):
    """Margin of ||A + B|| <= sqrt(det(A + B) ||A|| ||B||) for unit-det inputs.

    Returns rhs - lhs; nonnegative up to rounding.
    """
    Am = _require_unit_det(A)
    Bm = _require_unit_det(B)
    require_same_dim(Am, Bm)
    # the operator norm of a positive definite matrix is its top eigenvalue
    top_a = _pd_eigvals(require_hermitian(Am))[..., -1]
    top_b = _pd_eigvals(require_hermitian(Bm))[..., -1]
    S = Am + Bm
    return _per_item(np.sqrt(det2(S).real * top_a * top_b) - _top_eig(S))


def midpoint_vector_check(u, v):
    """Margin of the gyromidpoint norm bound, in its symmetric form.

    With m the Einstein gyromidpoint of u and v, returns
        sqrt((1+||u||)(1+||v||) / ((1-||u||)(1-||v||))) - (1+||m||)/(1-||m||),
    equivalent to 2 d(0, m) <= d(0, u) + d(0, v) in the rapidity metric.
    """
    a, b = _require_ball_pair(u, v)
    nu, nv, nm = _norm(a), _norm(b), _norm(gyromidpoint(a, b))
    rhs = np.sqrt((1.0 + nu) * (1.0 + nv) / ((1.0 - nu) * (1.0 - nv)))
    return _per_item(rhs - (1.0 + nm) / (1.0 - nm))
