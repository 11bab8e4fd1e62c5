"""Closed forms for 2x2 positive definite matrices and qubit states.

Every formula here is a linear-combination or rational rewrite of a mean that
the general spectral path also computes; the test suite cross-validates the
two routes.  The difference-quotient map L harmonizes the coefficients: for
f(x) = x^t it is L_t(x) = (x^t - x^{-t})/(x - x^{-1}), extended continuously
by t at x = 1, and satisfies L_t(x) = L_t(1/x), which makes every eigenvalue
branch choice below immaterial.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    NonPositiveArgument,
    NotUnitDeterminant,
)
from .ball import (
    _bloch_to_density,
    _einstein_add,
    _gamma,
    _require_ball_pair,
    _require_bloch,
    gyromidpoint,
    require_in_ball,
)
from .kernel import (
    DEFAULT_TOL,
    TolerancePolicy,
    _pd_eigh,
    _powm,
    as_matrix,
    hermitian_part,
    invm,
    pd_eigh,
    powm,
    require_weight,
)

UNIT_DET_TOL = 1e-9

# l_map switches to its x = 1 branch inside this window; the two branches
# agree to second order there, so the switch costs O(1e-14), not O(1e-7).
LMAP_BRANCH_WINDOW = 1e-7


def l_map(t: float, x: float) -> float:
    """Difference quotient (x^t - x^{-t})/(x - x^{-1}), valued t at x = 1."""
    if not x > 0:
        raise NonPositiveArgument(f"l_map needs x > 0, got {x!r}")
    if abs(x - 1.0) < LMAP_BRANCH_WINDOW:
        return float(t)
    return (x**t - x**(-t)) / (x - 1.0 / x)


def _require_2x2(M) -> np.ndarray:
    A = as_matrix(M)
    if A.shape != (2, 2):
        raise DimensionMismatch(f"expected a 2x2 matrix, got shape {A.shape}")
    return A


def det2(X) -> complex:
    """Determinant of a 2x2 matrix, directly."""
    M = _require_2x2(X)
    return M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]


def _pd_det_root(A, tol) -> float:
    pd_eigh(A, tol)
    return float(np.sqrt(det2(A).real))


def _require_unit_det(A, tol) -> np.ndarray:
    M = _require_2x2(A)
    d = det2(M).real
    if abs(d - 1.0) >= UNIT_DET_TOL:
        raise NotUnitDeterminant(f"determinant {d!r} differs from 1")
    return M


def relative_eigenvalue(A, B, tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Larger eigenvalue of A B^{-1} (computed through the Hermitian form)."""
    inv_root = powm(B, -0.5, tol)
    w = np.linalg.eigvalsh(hermitian_part(inv_root @ as_matrix(A) @ inv_root))
    return float(w[-1])


def gm2_det1(A, B, t: float, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Weighted geometric mean of unit-determinant 2x2 matrices.

    A #_t B = L_{1-t}(lam) A + L_t(lam) B with lam an eigenvalue of A B^{-1};
    the larger branch is used, and the result does not depend on that choice.
    """
    require_weight(t)
    Am = _require_unit_det(A, tol)
    Bm = _require_unit_det(B, tol)
    pd_eigh(Am, tol)
    pd_eigh(Bm, tol)
    lam = relative_eigenvalue(Am, Bm, tol)
    return l_map(1.0 - t, lam) * Am + l_map(t, lam) * Bm


def sgm2(A, B, t: float, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Weighted spectral geometric mean of 2x2 positive definite matrices.

    Unit-determinant inputs use
        (A^{-1} + B)^t A (A^{-1} + B)^t / (2 + tr(AB))^t;
    general inputs with det A = a^2, det B = b^2 use
        (ab A^{-1} + B)^t A (ab A^{-1} + B)^t / (2ab + tr(AB))^t.
    """
    Am = _require_2x2(A)
    Bm = _require_2x2(B)
    a = _pd_det_root(Am, tol)
    b = _pd_det_root(Bm, tol)
    trace_ab = float(np.trace(Am @ Bm).real)
    if abs(a - 1.0) < UNIT_DET_TOL and abs(b - 1.0) < UNIT_DET_TOL:
        bracket = invm(Am, tol) + Bm
        denom = 2.0 + trace_ab
    else:
        bracket = a * b * invm(Am, tol) + Bm
        denom = 2.0 * a * b + trace_ab
    Mt = powm(hermitian_part(bracket), t, tol)
    return hermitian_part(Mt @ Am @ Mt) / denom**t


def det_shift_identity(c: float, X) -> float:
    """|det(cI + X) - (c^2 + c tr X + det X)| for a 2x2 matrix X."""
    M = _require_2x2(X)
    lhs = det2(c * np.eye(2) + M)
    rhs = c**2 + c * np.trace(M) + det2(M)
    return float(abs(lhs - rhs))


def _qubit_mean_eigenvalues(a, b, ga: float, gb: float) -> tuple[float, float]:
    base = ga * gb * (1.0 - float(a @ b))
    w = float(np.linalg.norm(_einstein_add(a, -b)))
    return base * (1.0 + w), base * (1.0 - w)


def qubit_mean_eigenvalues(u, v) -> tuple[float, float]:
    """The reciprocal eigenvalue pair governing the qubit mean combination.

    These are the eigenvalues of (2 gamma_u rho_u)(2 gamma_v rho_v)^{-1}:
        mu_pm = gamma_u gamma_v (1 - u.v) (1 +/- ||u (+)_E (-v)||),
    equal to exp(+/- d(u, v)) in the rapidity metric, so mu_+ mu_- = 1.
    """
    a, b = _require_ball_pair(u, v)
    return _qubit_mean_eigenvalues(a, b, _gamma(a), _gamma(b))


def qubit_geo_mean(u, v, t: float) -> np.ndarray:
    """Weighted geometric mean of two qubit states as a linear combination.

    Returns L_{1-t}(mu) (g_u/g_v)^t rho_u + L_t(mu) (g_v/g_u)^{1-t} rho_v,
    the (unnormalized) mean rho_u #_t rho_v itself.
    """
    require_weight(t)
    a, b = _require_bloch(u), _require_bloch(v)
    ga, gb = _gamma(a), _gamma(b)
    mu = _qubit_mean_eigenvalues(a, b, ga, gb)[0]
    rho_u = _bloch_to_density(a)
    rho_v = _bloch_to_density(b)
    return (l_map(1.0 - t, mu) * (ga / gb) ** t * rho_u
            + l_map(t, mu) * (gb / ga) ** (1.0 - t) * rho_v)


def qubit_spectral_mean(u, v, t: float,
                        tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Weighted spectral geometric mean of two qubit states, closed form.

    rho_u natural_t rho_v =
        (2 g_u/g_v)^t M^t rho_u M^t / (1 + g_{u (+) v})^t,
    with M = g_u rho_{-u} + g_v rho_v and g_{u (+) v} = g_u g_v (1 + u.v).
    """
    require_weight(t)
    a, b = _require_bloch(u), _require_bloch(v)
    ga, gb = _gamma(a), _gamma(b)
    M = ga * _bloch_to_density(-a) + gb * _bloch_to_density(b)
    Mt = _powm(_pd_eigh(hermitian_part(M), tol), t)
    gamma_sum = ga * gb * (1.0 + float(a @ b))
    scale = (2.0 * ga / gb) ** t / (1.0 + gamma_sum) ** t
    return scale * hermitian_part(Mt @ _bloch_to_density(a) @ Mt)


def _opnorm2(A) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(A))))


def norm_product_check(A, B, tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Margin of ||A + B|| <= sqrt(det(A + B) ||A|| ||B||) for unit-det inputs.

    Returns rhs - lhs; nonnegative up to rounding.
    """
    Am = _require_unit_det(A, tol)
    Bm = _require_unit_det(B, tol)
    pd_eigh(Am, tol)
    pd_eigh(Bm, tol)
    S = Am + Bm
    rhs = np.sqrt(det2(S).real * _opnorm2(Am) * _opnorm2(Bm))
    return float(rhs - _opnorm2(S))


def midpoint_vector_check(u, v) -> float:
    """Margin of the gyromidpoint norm bound, in its symmetric form.

    With m the Einstein gyromidpoint of u and v, returns
        sqrt((1+||u||)(1+||v||) / ((1-||u||)(1-||v||))) - (1+||m||)/(1-||m||),
    equivalent to 2 d(0, m) <= d(0, u) + d(0, v) in the rapidity metric.
    """
    a = require_in_ball(u)
    b = require_in_ball(v)
    m = gyromidpoint(a, b)
    nu, nv, nm = (float(np.linalg.norm(x)) for x in (a, b, m))
    rhs = np.sqrt((1.0 + nu) * (1.0 + nv) / ((1.0 - nu) * (1.0 - nv)))
    lhs = (1.0 + nm) / (1.0 - nm)
    return float(rhs - lhs)
