"""Hermitian eigendecomposition and the spectral matrix functions built on it.

Every other module reduces its matrix work to the handful of primitives
defined here: a validated Hermitian eigendecomposition, functional calculus
(sqrt / log / real powers), congruence transforms, the two matrix norms, the
Loewner comparison, and the unitary polar factor.

The public functions validate their operands and then call the private
primitives ``_eigh``, ``_pd_eigh``, ``_powm`` and ``_logm``, which trust
their input: a Hermitian complex ndarray, or a decomposition already made.
The other modules do the same at their own public boundary, so one public
call checks each operand once and decomposes each distinct matrix once.

Stacks.  The primitives, and every public function built on them that says
so, also take a stack of matrices, shape (..., n, n), and act on each item:
a stack of k operand sets gives what k single calls give, and a stack with
one bad item raises the named error the single call on that item raises.
A curve parameter may then be one float or an array of the stack's leading
shape, one weight per item.  A single matrix keeps its own code path, bit
for bit; only its eigendecomposition fixes eigenvector phases, because a
spectral function V f(w) V* does not depend on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotFinite,
    NotHermitian,
    NotPositiveDefinite,
    Singular,
    UnknownCase,
    WeightOutOfRange,
)


@dataclass(frozen=True)
class TolerancePolicy:
    """Numerical tolerances used by validation and comparisons.

    Defaults are roughly 100x the double-precision eigensolve error at desk
    scale (n <= 16, condition number <= 1e4). All fields must be positive.
    """

    hermiticity_tol: float = 1e-10
    pd_tol: float = 1e-10
    reconstruct_tol: float = 1e-10
    loewner_tol: float = 1e-8
    equality_tol: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name) > 0:
                raise ValueError(f"{f.name} must be strictly positive")


DEFAULT_TOL = TolerancePolicy()


class SpectralDecomposition(NamedTuple):
    """Eigendecomposition H = V diag(w) V* with w ascending and V unitary."""

    eigenvalues: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return _spectral(self, self.eigenvalues)


class Loewner(Enum):
    """Outcome of a Loewner-order comparison."""

    LE = "LE"
    GE = "GE"
    EQ = "EQ"
    INCOMPARABLE = "INCOMPARABLE"


def as_matrix(X) -> np.ndarray:
    """Coerce to a square complex matrix."""
    M = np.asarray(X, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    return M


def as_stack(X) -> np.ndarray:
    """Coerce to a square complex matrix or a stack of them, shape (..., n, n)."""
    M = np.asarray(X, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2] or M.shape[-1] < 1:
        raise DimensionMismatch(
            f"expected a square matrix or a stack of them, got shape {M.shape}")
    return M


def _item(bad: np.ndarray) -> str:
    """Message prefix naming the first flagged item of a stack ("" for one matrix)."""
    where = tuple(int(i) for i in np.argwhere(bad)[0])
    return f"item {where}: " if where else ""


def _per_item(x):
    """A per-matrix reduction: a float for one matrix, an array for a stack."""
    return float(x) if x.ndim == 0 else x


def _frobenius(M: np.ndarray):
    """Frobenius norm of a matrix, or of each item of a stack."""
    if M.ndim == 2:
        return float(np.linalg.norm(M))
    return np.linalg.norm(M, axis=(-2, -1))


def _trace(M: np.ndarray) -> np.ndarray:
    """Real part of the trace of a matrix, or of each item of a stack."""
    return np.trace(M, axis1=-2, axis2=-1).real


def require_same_dim(*matrices: np.ndarray) -> None:
    dims = {M.shape for M in matrices}
    if len(dims) > 1:
        raise DimensionMismatch(f"operands have mixed shapes {sorted(dims)}")


def require_hermitian(H, tol: float = DEFAULT_TOL.hermiticity_tol) -> np.ndarray:
    """Validate finiteness and hermiticity; return the matrix as a complex ndarray.

    Also takes a stack (..., n, n) and checks each item.
    """
    return _hermitian(as_stack(H), tol)


def require_hermitians(*operands, tol: float = DEFAULT_TOL.hermiticity_tol
                       ) -> list[np.ndarray]:
    """Validate Hermitian operands of one common shape; return them as complex ndarrays.

    The operands may be stacks (..., n, n) of one common shape.
    """
    matrices = [as_stack(X) for X in operands]
    require_same_dim(*matrices)
    return [_hermitian(M, tol) for M in matrices]


def _hermitian(M: np.ndarray, tol: float) -> np.ndarray:
    """The checks of ``require_hermitian`` on a complex ndarray of square matrices."""
    if M.ndim > 2:
        peak = np.max(np.abs(M), axis=(-2, -1))
        bad = ~np.isfinite(peak)
        if bad.any():
            raise NotFinite(_item(bad) + "matrix has a NaN or infinite entry")
        defect = np.max(np.abs(M - M.conj().mT), axis=(-2, -1))
        bad = defect > tol * np.maximum(1.0, peak)
        if bad.any():
            raise NotHermitian(
                _item(bad) + f"hermiticity defect {defect[bad][0]:.3e} exceeds tolerance")
        return M
    peak = float(np.max(np.abs(M)))
    if not math.isfinite(peak):
        raise NotFinite("matrix has a NaN or infinite entry")
    scale = max(1.0, peak)
    defect = float(np.max(np.abs(M - M.conj().T)))
    if defect > tol * scale:
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds tolerance")
    return M


def require_weight(t, operand: np.ndarray | None = None):
    """Reject a NaN or infinite curve parameter; return it as an eigenvalue exponent.

    When ``operand`` is a stack (..., n, n), ``t`` may also be an ndarray of
    its leading shape, one weight per item; it comes back with a trailing
    axis, so that it broadcasts against the stack's eigenvalues.
    """
    if isinstance(t, np.ndarray) and t.ndim:
        lead = () if operand is None else operand.shape[:-2]
        w = t.astype(float)
        if w.shape != lead:
            raise DimensionMismatch(
                f"weights of shape {w.shape} for a stack of leading shape {lead}")
        bad = ~np.isfinite(w)
        if bad.any():
            raise WeightOutOfRange(
                _item(bad) + f"curve parameter {w[bad][0]!r} is not finite")
        return w[..., None]
    if not math.isfinite(t):
        raise WeightOutOfRange(f"curve parameter {t!r} is not finite")
    return t


def hermitian_part(M: np.ndarray) -> np.ndarray:
    """(M + M*)/2, item by item for a stack; strips rounding drift from results."""
    return 0.5 * (M + M.conj().mT)


def _eigh(M: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of M, trusted to be a Hermitian complex ndarray.

    M may be a stack; only a single matrix gets the phase convention of ``eigh``.
    """
    try:
        w, V = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return SpectralDecomposition(w, _fix_phases(V) if V.ndim == 2 else V)


def _not_pd(smallest, scale) -> str:
    return (f"smallest eigenvalue {smallest:.3e} not above tolerance "
            f"(relative to spectral radius {scale:.3e})")


def _pd_eigh(M: np.ndarray, tol: TolerancePolicy) -> SpectralDecomposition:
    """``_eigh`` followed by the positive definiteness test of ``pd_eigh``."""
    dec = _eigh(M)
    w = dec.eigenvalues
    if w.ndim > 1:
        lo = w[..., 0]
        scale = np.maximum(np.abs(lo), np.abs(w[..., -1]))
        bad = ~(lo > tol.pd_tol * scale)
        if bad.any():
            raise NotPositiveDefinite(_item(bad) + _not_pd(lo[bad][0], scale[bad][0]))
        return dec
    scale = max(abs(float(w[0])), abs(float(w[-1])))
    if not w[0] > tol.pd_tol * scale:
        raise NotPositiveDefinite(_not_pd(w[0], scale))
    return dec


def eigh(H, tol: TolerancePolicy = DEFAULT_TOL) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    H : array_like, shape (n, n)
        Hermitian matrix.
    tol : TolerancePolicy
        Validation tolerances.

    Returns
    -------
    SpectralDecomposition
        Eigenvalues ascending; eigenvector phases fixed so that the
        largest-magnitude component of each column is real positive, which
        makes the output deterministic for golden tests.  A stack
        (..., n, n) is decomposed item by item, with LAPACK's phases.

    Raises
    ------
    NotFinite
        If an entry is NaN or infinite.
    NotHermitian
        If the symmetry defect exceeds ``tol.hermiticity_tol``.
    NoConvergence
        If the underlying iteration fails.
    """
    return _eigh(require_hermitian(H, tol.hermiticity_tol))


def _fix_phases(V: np.ndarray) -> np.ndarray:
    V = V.copy()
    for j in range(V.shape[1]):
        k = int(np.argmax(np.abs(V[:, j])))
        pivot = V[k, j]
        mag = abs(pivot)
        if mag > 0:
            V[:, j] *= pivot.conjugate() / mag
    return V


def pd_eigh(A, tol: TolerancePolicy = DEFAULT_TOL) -> SpectralDecomposition:
    """Eigendecomposition of a positive definite matrix.

    Positive definiteness is judged relative to the spectral radius: the
    smallest eigenvalue must exceed ``tol.pd_tol`` times the largest
    magnitude.  (Matrices at extreme overall scales arise legitimately as
    powers of curve points; an absolute floor would misclassify them.)
    """
    return _pd_eigh(require_hermitian(A, tol.hermiticity_tol), tol)


def is_positive_definite(A, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    try:
        pd_eigh(A, tol)
    except (NotPositiveDefinite, NotHermitian, NotFinite):
        return False
    return True


def min_eig(H, tol: TolerancePolicy = DEFAULT_TOL):
    """Smallest eigenvalue of a Hermitian matrix (one per item for a stack)."""
    return _per_item(eigh(H, tol).eigenvalues[..., 0])


def _spectral(dec: SpectralDecomposition, fw: np.ndarray) -> np.ndarray:
    """V diag(fw) V*, item by item."""
    V = dec.vectors
    if fw.ndim > 1:
        fw = fw[..., None, :]
    return (V * fw) @ V.conj().mT


def _apply(dec: SpectralDecomposition, fw: np.ndarray) -> np.ndarray:
    return hermitian_part(_spectral(dec, fw))


def _powm(dec: SpectralDecomposition, t: float) -> np.ndarray:
    """The t-th power of a positive definite matrix, from its decomposition."""
    return _apply(dec, np.power(dec.eigenvalues, t))


def _logm(dec: SpectralDecomposition) -> np.ndarray:
    """The logarithm of a positive definite matrix, from its decomposition."""
    return _apply(dec, np.log(dec.eigenvalues))


def powm(A, t: float, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """A**t for positive definite A and any finite real t, via the spectral map."""
    Am = require_hermitian(A, tol.hermiticity_tol)
    return _powm(_pd_eigh(Am, tol), require_weight(t, Am))


def sqrtm(A, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    return _powm(pd_eigh(A, tol), 0.5)


def invm(A, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    return _powm(pd_eigh(A, tol), -1.0)


def logm(A, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Principal logarithm of a positive definite matrix (Hermitian result)."""
    return _logm(pd_eigh(A, tol))


def expm(H, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """exp of a Hermitian matrix (positive definite result)."""
    dec = eigh(H, tol)
    return _apply(dec, np.exp(dec.eigenvalues))


def matrix_function(A, kind: str, t: float | None = None,
                    tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Spectral function of a positive definite matrix.

    ``kind`` is one of ``"sqrt"``, ``"log"``, ``"power"``; ``power`` requires
    the exponent ``t`` and accepts any real value (``power(-1)`` is the
    inverse). Non-integer powers require strict positive definiteness; there
    is no pseudo-inverse fallback.
    """
    if kind == "sqrt":
        return sqrtm(A, tol)
    if kind == "log":
        return logm(A, tol)
    if kind == "power":
        if t is None:
            raise UnknownCase("power requires an exponent t")
        return powm(A, t, tol)
    raise UnknownCase(f"unknown matrix function {kind!r}")


def congruence(X, S, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Congruence transform S X S* of a Hermitian X."""
    Xm = require_hermitian(as_matrix(X), tol.hermiticity_tol)
    Sm = np.asarray(S, dtype=complex)
    if Sm.ndim != 2 or Sm.shape[1] != Xm.shape[0]:
        raise DimensionMismatch(
            f"congruence factor shape {Sm.shape} incompatible with {Xm.shape}"
        )
    return hermitian_part(Sm @ Xm @ Sm.conj().T)


def norm(H, kind: str = "operator", tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Operator (largest |eigenvalue|) or Frobenius norm of a Hermitian matrix."""
    M = require_hermitian(as_matrix(H), tol.hermiticity_tol)
    if kind == "operator":
        w = _eigh(M).eigenvalues
        return float(np.max(np.abs(w)))
    if kind == "frobenius":
        return float(np.linalg.norm(M))
    raise UnknownCase(f"unknown norm kind {kind!r}")


def loewner_compare(X, Y, tol: float | None = None) -> Loewner:
    """Compare Hermitian X, Y in the Loewner order at eigenvalue slack ``tol``.

    LE iff min-eig(Y - X) >= -tol, GE symmetrically, EQ if both hold.
    """
    if tol is None:
        tol = DEFAULT_TOL.loewner_tol
    Xm = require_hermitian(as_matrix(X))
    Ym = require_hermitian(as_matrix(Y))
    require_same_dim(Xm, Ym)
    w = np.linalg.eigvalsh(hermitian_part(Ym - Xm))
    le = w[0] >= -tol
    ge = w[-1] <= tol
    if le and ge:
        return Loewner.EQ
    if le:
        return Loewner.LE
    if ge:
        return Loewner.GE
    return Loewner.INCOMPARABLE


_SINGULAR = "matrix has a (numerically) vanishing singular value"


def polar_unitary(M, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Unitary factor U = (M M*)^{-1/2} M of an invertible matrix (or a stack).

    Satisfies M = (M M*)^{1/2} U with U U* = I.  M counts as singular when
    the smallest eigenvalue of M M* is at most ``tol.pd_tol`` times the
    largest, a test that does not depend on the scale of M.
    """
    Mm = as_stack(M)
    bad = ~np.isfinite(Mm).all(axis=(-2, -1))
    if bad.any():
        raise NotFinite(_item(bad) + "matrix has a NaN or infinite entry")
    return _polar_unitary(Mm, tol)


def _polar_unitary(Mm: np.ndarray, tol: TolerancePolicy) -> np.ndarray:
    """``polar_unitary`` of a finite complex matrix or stack."""
    w, V = np.linalg.eigh(hermitian_part(Mm @ Mm.conj().mT))
    if w.ndim > 1:
        bad = w[..., 0] <= tol.pd_tol * w[..., -1]
        if bad.any():
            raise Singular(_item(bad) + _SINGULAR)
    elif w[0] <= tol.pd_tol * w[-1]:
        raise Singular(_SINGULAR)
    inv_sqrt = _spectral(SpectralDecomposition(w, V), 1.0 / np.sqrt(w))
    return inv_sqrt @ Mm
