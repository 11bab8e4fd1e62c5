"""Independent references for the operation mixes, built on SciPy alone.

``A #_t B`` comes from Iannazzo's Cholesky formula R*(R^{-*} B R^{-1})^t R
with A = R*R (Iannazzo, "The geometric mean of two matrices from a
computational viewpoint", NLAA 2016, arXiv:1201.0101), the power taken by
SciPy's Schur-Pade ``fractional_matrix_power``.  No step shares code with
gyromean's eigendecomposition kernel.

Error model.  Every kind passes through a whitened operand such as
A^{-1/2} B A^{-1/2}, whose condition number is at most kappa(A) kappa(B).
The forward error of a function of a Hermitian matrix is its condition
number times a backward error of a modest multiple of n u (Higham,
*Functions of Matrices*, ch. 4), so a kind's relative error is allowed

    n u (C0 + kappa(A) kappa(B)),   u = 2^-53,

where C0 = 1000 is the allowance at kappa = 1: a kind chains up to about
twenty decompositions and products (a cogyroline makes six eigensolves and
fourteen products), each with a backward error of tens of u.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as sl

UNIT_ROUNDOFF = np.finfo(float).eps / 2
C0 = 1000.0
PERTURBATION = 1e-6


def herm(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.conj().T)


def cond(A: np.ndarray) -> float:
    w = sl.eigvalsh(A)
    return float(w[-1] / w[0])


def tolerance(A: np.ndarray, B: np.ndarray) -> float:
    return A.shape[0] * UNIT_ROUNDOFF * (C0 + cond(A) * cond(B))


def sharp(A: np.ndarray, B: np.ndarray, t: float) -> np.ndarray:
    """A #_t B by Iannazzo's Cholesky formula."""
    R = sl.cholesky(A, lower=False)
    left = sl.solve_triangular(R, B, trans="C")                  # R^{-*} B
    C = herm(sl.solve_triangular(R, left.conj().T, trans="C"))   # R^{-*} B R^{-1}
    return herm(R.conj().T @ sl.fractional_matrix_power(C, t) @ R)


def inv_sharp(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A^{-1} # B."""
    return sharp(herm(sl.inv(A)), B, 0.5)


def natural(A: np.ndarray, B: np.ndarray, t: float) -> np.ndarray:
    """A natural_t B = W^t A W^t with W = A^{-1} # B."""
    Wt = sl.fractional_matrix_power(inv_sharp(A, B), t)
    return herm(Wt @ A @ Wt)


def density(u: np.ndarray) -> np.ndarray:
    """(I + u . sigma)/2 for a Bloch vector u."""
    return 0.5 * np.array([[1.0 + u[2], u[0] - 1j * u[1]],
                           [u[0] + 1j * u[1], 1.0 - u[2]]])


def relerr(X, Y) -> float:
    return float(np.linalg.norm(np.asarray(X) - Y) / np.linalg.norm(Y))


def scalar_err(x: float, y: float) -> float:
    return abs(float(x) - y) / max(1.0, abs(y))


def _normalized(M: np.ndarray) -> np.ndarray:
    return M / np.trace(M).real


def _natural_checks(A, B, t, out, tol, label):
    """out against W^t A W^t, and at t = 1/2 its spectrum against sqrt(eig(AB))."""
    found = [(label, relerr(out, natural(A, B, t)), tol)]
    if t == 0.5:
        roots = np.sort(np.sqrt(sl.eigvals(A @ B).real))
        w = sl.eigvalsh(herm(np.asarray(out)))
        found.append((label + "-sqrt-eig(AB)",
                      float(np.max(np.abs(w - roots)) / roots[-1]), tol))
    return found


def _distance_checks(kind, A, B, out, tol):
    if kind in ("thompson", "riemannian"):
        logw = np.log(sl.eigvalsh(B, A))
        ref = (np.max(np.abs(logw)) if kind == "thompson"
               else np.sqrt(np.sum(logw ** 2)))
    else:
        L = sl.logm(inv_sharp(A, B))
        ref = 2.0 * sl.norm(L, 2 if kind == "semimetric_op" else "fro")
    return [(kind, scalar_err(out, float(ref)), tol)]


def _gyration_checks(A, B, X, out, tol):
    spread = np.max(np.abs(sl.eigvalsh(herm(out)) - sl.eigvalsh(X)))
    U, _ = sl.polar(sl.sqrtm(A) @ sl.sqrtm(B), side="left")
    return [("gyration-spectrum", float(spread / sl.norm(X, 2)), tol),
            ("gyration-polar", relerr(out, U @ X @ U.conj().T), tol)]


def check(kind: str, o, out) -> list[tuple[str, float, float]]:
    """(label, error, tolerance) for every check of one output of ``kind``."""
    A, B, t = o.A, o.B, o.t
    if kind.startswith("qubit_"):
        A, B = density(o.u), density(o.v)
    elif kind.startswith("dens_"):
        A, B = o.rho, o.sigma
    tol = tolerance(A, B)
    if kind in ("geo_mean", "gyroline", "qubit_geo_mean"):
        return [(kind, relerr(out, sharp(A, B, t)), tol)]
    if kind == "dens_gyroline":
        return [(kind, relerr(out, _normalized(sharp(A, B, t))), tol)]
    if kind in ("spectral_mean", "cogyroline", "qubit_spectral_mean"):
        return _natural_checks(A, B, t, out, tol, kind)
    if kind == "dens_cogyroline":
        return [(kind, relerr(out, _normalized(natural(A, B, t))), tol)]
    if kind in ("thompson", "riemannian", "semimetric_op", "semimetric_frob"):
        return _distance_checks(kind, A, B, out, tol)
    if kind == "gyration":
        return _gyration_checks(A, B, o.X, out, tol)
    if kind == "cooperation":
        G = sharp(A, B, 0.5)
        return [(kind, relerr(out, G @ G), tol)]
    if kind == "geodesic9":
        gyro, cogyro = out
        found = []
        for s, (P, Q) in zip(np.linspace(0.0, 1.0, len(gyro)), zip(gyro, cogyro)):
            found.append((f"geodesic9-gyroline@{s:g}", relerr(P, sharp(A, B, s)), tol))
            found.append((f"geodesic9-cogyroline@{s:g}",
                          relerr(Q, natural(A, B, s)), tol))
        return found
    raise KeyError(f"no reference for kind {kind!r}")


def perturbed(out):
    """The output scaled by 1 + 1e-6: a relative change of exactly 1e-6."""
    if isinstance(out, tuple):
        gyro, cogyro = out
        return ([gyro[0] * (1.0 + PERTURBATION)] + list(gyro[1:]), cogyro)
    return out * (1.0 + PERTURBATION)
