"""Einstein and Mobius gyrogroups on the open unit ball, and the Bloch map.

Vectors are real n-vectors of Euclidean norm strictly below 1 (membership
margin 1e-12 guards the gamma factor against overflow; closer inputs are
rejected, never clamped).  The Bloch correspondence identifies the 3-ball
with invertible 2x2 density matrices.

Every operation also takes stacks of vectors (..., n), with one t or one t
per vector, as :mod:`gyromean.kernel` takes matrix stacks; per-vector scalars
come back as a float for one vector and as an array for a stack.
"""

from __future__ import annotations

import numpy as np

from .errors import NotDensity, NotFinite, NotInBall
from .kernel import _any, _item, _per_item, require_weight
from .gyrodensity import require_density

BALL_MARGIN = 1e-12


def _norm(u: np.ndarray):
    return np.sqrt(np.vecdot(u, u))


def _col(x):
    """Per-vector scalars as factors of a vector stack; a scalar stays one."""
    return x[..., None] if getattr(x, "ndim", 0) else x


def require_in_ball(v) -> np.ndarray:
    """Validate strict ball membership and return a float vector (or stack)."""
    u = np.asarray(v, dtype=float)
    if u.ndim < 1:
        raise NotInBall(f"expected a vector or a stack of them, got shape {u.shape}")
    norm = _norm(u)
    bad = ~(norm < 1.0 - BALL_MARGIN)
    if _any(bad):
        first = np.asarray(norm)[bad][0]
        if not np.isfinite(first):
            raise NotFinite(_item(bad) + "vector has a NaN or infinite entry")
        raise NotInBall(_item(bad) + f"norm {float(first)!r} not strictly inside the ball")
    return u


def _weight(t, u: np.ndarray):
    """The validated scalar: a float, or one per vector of the stack ``u``."""
    w = require_weight(t, u[..., None])  # a matrix stack of u's leading shape
    return w[..., 0] if getattr(w, "ndim", 0) else w


def _gamma(u: np.ndarray):
    return 1.0 / np.sqrt(1.0 - np.vecdot(u, u))


def gamma_factor(v):
    """Lorentz factor 1/sqrt(1 - ||v||^2); equals 1 at the origin."""
    return _per_item(_gamma(require_in_ball(v)))


def _require_ball_pair(u, v, require=require_in_ball) -> tuple[np.ndarray, np.ndarray]:
    a, b = require(u), require(v)
    if a.shape != b.shape:
        raise NotInBall(f"vectors have different shapes {a.shape} and {b.shape}")
    return a, b


def _einstein_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Einstein addition of two validated ball vectors (or stacks) of one shape."""
    ab = _col(np.vecdot(a, b))
    ga = _col(_gamma(a))
    return (a + b / ga + (ga / (1.0 + ga)) * ab * a) / (1.0 + ab)


def einstein_add(u, v) -> np.ndarray:
    """Einstein velocity addition on the ball."""
    return _einstein_add(*_require_ball_pair(u, v))


def mobius_add(u, v) -> np.ndarray:
    """Mobius addition on the ball."""
    a, b = _require_ball_pair(u, v)
    ab = _col(np.vecdot(a, b))
    na2 = _col(np.vecdot(a, a))
    nb2 = _col(np.vecdot(b, b))
    denom = 1.0 + 2.0 * ab + na2 * nb2
    return ((1.0 + 2.0 * ab + nb2) * a + (1.0 - na2) * b) / denom


def ball_scalar(t, v) -> np.ndarray:
    """t (x) v = tanh(t atanh ||v||) v/||v||, with t (x) 0 = 0."""
    u = require_in_ball(v)
    t = _weight(t, u)
    nv = _norm(u)
    # at the origin u/1 = 0, which the zero factor tanh(0) keeps
    return _col(np.tanh(t * np.arctanh(nv))) * (u / _col(np.where(nv == 0.0, 1.0, nv)))


def _gyr(add, a, b, x):
    # universal gyration: gyr[a,b]x = -(a+b) + (a + (b + x))
    return add(-add(a, b), add(a, add(b, x)))


def einstein_gyration(a, b, x) -> np.ndarray:
    return _gyr(einstein_add, a, b, x)


def mobius_gyration(a, b, x) -> np.ndarray:
    """gyr[a,b]x = x + 2(A a + B b)/D in closed form (Ungar, *Analytic
    Hyperbolic Geometry*, 2005, ch. 3), with A = -<a,x>|b|^2 + <b,x>
    + 2<a,b><b,x>, B = -<b,x>|a|^2 - <a,x> and D = 1 + 2<a,b> + |a|^2|b|^2.

    The universal formula's four Mobius additions cancel near the boundary
    of the ball; these inner products do not.
    """
    u, v = _require_ball_pair(a, b)
    w = require_in_ball(x)
    if w.shape != u.shape:
        raise NotInBall(f"vectors have different shapes {u.shape} and {w.shape}")
    uv, uu, vv = np.vecdot(u, v), np.vecdot(u, u), np.vecdot(v, v)
    uw, vw = np.vecdot(u, w), np.vecdot(v, w)
    A = -uw * vv + vw + 2.0 * uv * vw
    B = -vw * uu - uw
    D = 1.0 + 2.0 * uv + uu * vv
    return w + 2.0 * (_col(A) * u + _col(B) * v) / _col(D)


def einstein_coaddition(u, v) -> np.ndarray:
    """u [+] v = u (+) gyr[u, -v] v."""
    a, b = _require_ball_pair(u, v)
    return einstein_add(a, einstein_gyration(a, -b, b))


def rapidity_distance(u, v):
    """d(u, v) = atanh ||(-u) (+)_E v||; zero iff u = v, symmetric."""
    a, b = _require_ball_pair(u, v)
    return _per_item(np.arctanh(_norm(_einstein_add(-a, b))))


def gyromidpoint(u, v) -> np.ndarray:
    """Einstein gyromidpoint (gamma_u u + gamma_v v)/(gamma_u + gamma_v)."""
    a, b = _require_ball_pair(u, v)
    ga, gb = _col(_gamma(a)), _col(_gamma(b))
    return (ga * a + gb * b) / (ga + gb)


def _require_bloch(v) -> np.ndarray:
    u = require_in_ball(v)
    if u.shape[-1] != 3:
        raise NotInBall(f"Bloch vectors live in the 3-ball, got shape {u.shape}")
    return u


def _bloch_to_density(u: np.ndarray) -> np.ndarray:
    v1, v2, v3 = u.T  # filled in reversed axis order: one .T gives (..., 2, 2)
    rho_t = np.zeros((2, 2) + v1.shape, dtype=complex)
    re, im = rho_t.real, rho_t.imag
    re[0, 0], re[1, 1], re[0, 1], re[1, 0] = 1.0 + v3, 1.0 - v3, v1, v1
    im[0, 1], im[1, 0] = v2, -v2
    return 0.5 * rho_t.T


def bloch_to_density(v) -> np.ndarray:
    """Density matrix of a Bloch vector in the open 3-ball.

    Eigenvalues are (1 +/- ||v||)/2 and the determinant is (1 - ||v||^2)/4.
    """
    return _bloch_to_density(_require_bloch(v))


def density_to_bloch(rho) -> np.ndarray:
    """Bloch vector of an invertible 2x2 density matrix; inverse of the above."""
    r = require_density(rho)
    if r.shape[-2:] != (2, 2):
        raise NotDensity(f"expected 2x2 density matrices, got shape {r.shape}")
    off = r[..., 1, 0]
    return np.stack([2.0 * off.real, 2.0 * off.imag, (r[..., 0, 0] - r[..., 1, 1]).real],
                    axis=-1)


def ball_model(name: str = "einstein"):
    """GyroModel adapter (Einstein or Mobius) for the generic axiom suite.

    The suite hands over stacks of vectors, one row per sample, which the
    ball operations take as they are.
    """
    from .gyroaxioms import GyroModel

    return GyroModel(
        identity=np.zeros(3),
        add=einstein_add if name == "einstein" else mobius_add,
        neg=lambda a: -np.asarray(a, float),
        scalar=ball_scalar,
        gyr=einstein_gyration if name == "einstein" else mobius_gyration,
        residual=lambda x, y: _norm(x - y),
    )
