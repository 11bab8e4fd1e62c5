"""Einstein and Mobius gyrogroups on the open unit ball, and the Bloch map.

Vectors are real n-vectors of Euclidean norm strictly below 1 (membership
margin 1e-12 guards the gamma factor against overflow; closer inputs are
rejected, never clamped).  The Bloch correspondence identifies the 3-ball
with invertible 2x2 density matrices.
"""

from __future__ import annotations

import numpy as np

from .errors import NotDensity, NotFinite, NotInBall
from .kernel import DEFAULT_TOL, TolerancePolicy, require_weight
from .gyrodensity import require_density

BALL_MARGIN = 1e-12


def require_in_ball(v) -> np.ndarray:
    """Validate strict ball membership and return a float vector."""
    u = np.asarray(v, dtype=float)
    if u.ndim != 1:
        raise NotInBall(f"expected a vector, got shape {u.shape}")
    norm = np.linalg.norm(u)
    if not norm < 1.0 - BALL_MARGIN:
        if not np.isfinite(norm):
            raise NotFinite("vector has a NaN or infinite entry")
        raise NotInBall(f"norm {norm!r} not strictly inside the ball")
    return u


def _gamma(u: np.ndarray) -> float:
    return 1.0 / np.sqrt(1.0 - float(u @ u))


def gamma_factor(v) -> float:
    """Lorentz factor 1/sqrt(1 - ||v||^2); equals 1 at the origin."""
    return _gamma(require_in_ball(v))


def _require_ball_pair(u, v) -> tuple[np.ndarray, np.ndarray]:
    a = require_in_ball(u)
    b = require_in_ball(v)
    if a.shape != b.shape:
        raise NotInBall("vectors have different lengths")
    return a, b


def _einstein_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Einstein addition of two validated ball vectors of one length."""
    ab = float(a @ b)
    ga = _gamma(a)
    return (a + b / ga + (ga / (1.0 + ga)) * ab * a) / (1.0 + ab)


def einstein_add(u, v) -> np.ndarray:
    """Einstein velocity addition on the ball."""
    return _einstein_add(*_require_ball_pair(u, v))


def mobius_add(u, v) -> np.ndarray:
    """Mobius addition on the ball."""
    a, b = _require_ball_pair(u, v)
    ab = float(a @ b)
    na2 = float(a @ a)
    nb2 = float(b @ b)
    denom = 1.0 + 2.0 * ab + na2 * nb2
    return ((1.0 + 2.0 * ab + nb2) * a + (1.0 - na2) * b) / denom


def ball_scalar(t: float, v) -> np.ndarray:
    """t (x) v = tanh(t atanh ||v||) v/||v||, with t (x) 0 = 0."""
    require_weight(t)
    u = require_in_ball(v)
    nv = float(np.linalg.norm(u))
    if nv == 0.0:
        return np.zeros_like(u)
    return np.tanh(t * np.arctanh(nv)) * (u / nv)


def _gyr(add, a, b, x):
    # universal gyration: gyr[a,b]x = -(a+b) + (a + (b + x))
    return add(-add(a, b), add(a, add(b, x)))


def einstein_gyration(a, b, x) -> np.ndarray:
    return _gyr(einstein_add, np.asarray(a, float), np.asarray(b, float),
                np.asarray(x, float))


def mobius_gyration(a, b, x) -> np.ndarray:
    return _gyr(mobius_add, np.asarray(a, float), np.asarray(b, float),
                np.asarray(x, float))


def einstein_coaddition(u, v) -> np.ndarray:
    """u [+] v = u (+) gyr[u, -v] v."""
    a = require_in_ball(u)
    b = require_in_ball(v)
    return einstein_add(a, einstein_gyration(a, -b, b))


def rapidity_distance(u, v) -> float:
    """d(u, v) = atanh ||(-u) (+)_E v||; zero iff u = v, symmetric."""
    a, b = _require_ball_pair(u, v)
    return float(np.arctanh(np.linalg.norm(_einstein_add(-a, b))))


def gyromidpoint(u, v) -> np.ndarray:
    """Einstein gyromidpoint (gamma_u u + gamma_v v)/(gamma_u + gamma_v)."""
    a = require_in_ball(u)
    b = require_in_ball(v)
    ga, gb = _gamma(a), _gamma(b)
    return (ga * a + gb * b) / (ga + gb)


def _require_bloch(v) -> np.ndarray:
    u = require_in_ball(v)
    if u.shape != (3,):
        raise NotInBall(f"Bloch vectors live in the 3-ball, got shape {u.shape}")
    return u


def _bloch_to_density(u: np.ndarray) -> np.ndarray:
    v1, v2, v3 = u
    return 0.5 * np.array(
        [[1.0 + v3, v1 - 1j * v2],
         [v1 + 1j * v2, 1.0 - v3]], dtype=complex)


def bloch_to_density(v) -> np.ndarray:
    """Density matrix of a Bloch vector in the open 3-ball.

    Eigenvalues are (1 +/- ||v||)/2 and the determinant is (1 - ||v||^2)/4.
    """
    return _bloch_to_density(_require_bloch(v))


def density_to_bloch(rho, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Bloch vector of an invertible 2x2 density matrix; inverse of the above."""
    r = require_density(rho, tol)
    if r.shape != (2, 2):
        raise NotDensity(f"expected a 2x2 density matrix, got shape {r.shape}")
    v1 = 2.0 * float(r[1, 0].real)
    v2 = 2.0 * float(r[1, 0].imag)
    v3 = float((r[0, 0] - r[1, 1]).real)
    return np.array([v1, v2, v3])


def _rowwise(op):
    """Map a one-vector operation over the rows of stacked arguments."""
    return lambda *stacks: np.array([op(*row) for row in zip(*stacks)])


def ball_model(name: str = "einstein"):
    """GyroModel adapter (Einstein or Mobius) for the generic axiom suite.

    The suite hands over stacks of vectors, one row per sample; the ball
    operations act on one vector, so the adapter maps them over the rows.
    """
    from .gyroaxioms import GyroModel

    add = einstein_add if name == "einstein" else mobius_add
    gyr = einstein_gyration if name == "einstein" else mobius_gyration
    dim = 3
    return GyroModel(
        name=name,
        identity=np.zeros(dim),
        add=_rowwise(add),
        neg=lambda a: -np.asarray(a, float),
        scalar=lambda t, a: _rowwise(ball_scalar)(np.broadcast_to(t, len(a)), a),
        gyr=_rowwise(gyr),
        residual=_rowwise(lambda x, y: float(np.linalg.norm(x - y))),
    )
