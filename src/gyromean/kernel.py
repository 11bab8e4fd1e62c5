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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
        for name in (
            "hermiticity_tol",
            "pd_tol",
            "reconstruct_tol",
            "loewner_tol",
            "equality_tol",
        ):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")


DEFAULT_TOL = TolerancePolicy()


class SpectralDecomposition(NamedTuple):
    """Eigendecomposition H = V diag(w) V* with w ascending and V unitary."""

    eigenvalues: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        V = self.vectors
        return (V * self.eigenvalues) @ V.conj().T


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


def require_same_dim(*matrices: np.ndarray) -> None:
    dims = {M.shape for M in matrices}
    if len(dims) > 1:
        raise DimensionMismatch(f"operands have mixed shapes {sorted(dims)}")


def require_hermitian(H, tol: float = DEFAULT_TOL.hermiticity_tol) -> np.ndarray:
    """Validate finiteness and hermiticity; return the matrix as a complex ndarray."""
    M = as_matrix(H)
    peak = float(np.max(np.abs(M)))
    if not math.isfinite(peak):
        raise NotFinite("matrix has a NaN or infinite entry")
    scale = max(1.0, peak)
    defect = float(np.max(np.abs(M - M.conj().T)))
    if defect > tol * scale:
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds tolerance")
    return M


def require_hermitians(*operands, tol: float = DEFAULT_TOL.hermiticity_tol
                       ) -> list[np.ndarray]:
    """Validate Hermitian operands of one common size; return them as complex ndarrays."""
    matrices = [as_matrix(X) for X in operands]
    require_same_dim(*matrices)
    return [require_hermitian(M, tol) for M in matrices]


def require_weight(t) -> None:
    """Reject a curve parameter that is NaN or infinite."""
    if not math.isfinite(t):
        raise WeightOutOfRange(f"curve parameter {t!r} is not finite")


def hermitian_part(M: np.ndarray) -> np.ndarray:
    """(M + M*)/2; used to strip rounding drift from computed results."""
    return 0.5 * (M + M.conj().T)


def _eigh(M: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of M, trusted to be a Hermitian complex ndarray."""
    try:
        w, V = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return SpectralDecomposition(w, _fix_phases(V))


def _pd_eigh(M: np.ndarray, tol: TolerancePolicy) -> SpectralDecomposition:
    """``_eigh`` followed by the positive definiteness test of ``pd_eigh``."""
    dec = _eigh(M)
    w = dec.eigenvalues
    scale = max(abs(float(w[0])), abs(float(w[-1])))
    if not w[0] > tol.pd_tol * scale:
        raise NotPositiveDefinite(
            f"smallest eigenvalue {w[0]:.3e} not above tolerance "
            f"(relative to spectral radius {scale:.3e})"
        )
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
        makes the output deterministic for golden tests.

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


def min_eig(H, tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(eigh(H, tol).eigenvalues[0])


def _apply(dec: SpectralDecomposition, fw: np.ndarray) -> np.ndarray:
    V = dec.vectors
    return hermitian_part((V * fw) @ V.conj().T)


def _powm(dec: SpectralDecomposition, t: float) -> np.ndarray:
    """The t-th power of a positive definite matrix, from its decomposition."""
    return _apply(dec, np.power(dec.eigenvalues, t))


def _logm(dec: SpectralDecomposition) -> np.ndarray:
    """The logarithm of a positive definite matrix, from its decomposition."""
    return _apply(dec, np.log(dec.eigenvalues))


def powm(A, t: float, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """A**t for positive definite A and any finite real t, via the spectral map."""
    require_weight(t)
    return _powm(pd_eigh(A, tol), t)


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
    Xm = require_hermitian(X, tol.hermiticity_tol)
    Sm = np.asarray(S, dtype=complex)
    if Sm.ndim != 2 or Sm.shape[1] != Xm.shape[0]:
        raise DimensionMismatch(
            f"congruence factor shape {Sm.shape} incompatible with {Xm.shape}"
        )
    return hermitian_part(Sm @ Xm @ Sm.conj().T)


def norm(H, kind: str = "operator", tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Operator (largest |eigenvalue|) or Frobenius norm of a Hermitian matrix."""
    M = require_hermitian(H, tol.hermiticity_tol)
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
    Xm = require_hermitian(X)
    Ym = require_hermitian(Y)
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


def polar_unitary(M, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Unitary factor U = (M M*)^{-1/2} M of an invertible matrix.

    Satisfies M = (M M*)^{1/2} U with U U* = I.  M counts as singular when
    the smallest eigenvalue of M M* is at most ``tol.pd_tol`` times the
    largest, a test that does not depend on the scale of M.
    """
    Mm = as_matrix(M)
    P = hermitian_part(Mm @ Mm.conj().T)
    w, V = np.linalg.eigh(P)
    if w[0] <= tol.pd_tol * w[-1]:
        raise Singular("matrix has a (numerically) vanishing singular value")
    inv_sqrt = (V * (1.0 / np.sqrt(w))) @ V.conj().T
    return inv_sqrt @ Mm
