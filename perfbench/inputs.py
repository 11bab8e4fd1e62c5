"""Seeded inputs for the operation mixes, drawn with numpy's Generator directly.

Nothing here calls gyromean: the program receives only the matrices and
vectors made below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# the campaign's default t grid (harness.DEFAULT_T_GRID)
T_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)
GEODESIC_SAMPLES = 9
BLOCH_RMAX = 0.95


@dataclass(frozen=True)
class MixSpec:
    """How one operation mix draws its operands."""

    dim: int
    cond: float
    pinned: bool  # spectrum spans exactly `cond` (else log-uniform within it)
    qubit: bool   # include the qubit closed-form kinds


def haar_unitaries(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Stack of Haar unitaries: QR of complex Ginibre matrices, R's phases removed."""
    G = (rng.standard_normal((count, dim, dim))
         + 1j * rng.standard_normal((count, dim, dim)))
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (d / np.abs(d))[:, None, :]


def pd_stack(rng: np.random.Generator, count: int, spec: MixSpec) -> np.ndarray:
    """Stack of PD matrices U diag(w) U* with w log-uniform in [cond^-1/2, cond^1/2].

    With ``spec.pinned`` the smallest and largest eigenvalues sit exactly at
    the two ends, so every operand has condition number ``spec.cond``.
    """
    half = 0.5 * np.log(spec.cond)
    logw = rng.uniform(-half, half, (count, spec.dim))
    if spec.pinned:
        logw[:, 0], logw[:, -1] = -half, half
    U = haar_unitaries(rng, count, spec.dim)
    M = (U * np.exp(logw)[:, None, :]) @ U.conj().transpose(0, 2, 1)
    return 0.5 * (M + M.conj().transpose(0, 2, 1))


def bloch_vectors(rng: np.random.Generator, count: int) -> np.ndarray:
    """Vectors of the open 3-ball: uniform direction, radius uniform in [0, 0.95]."""
    v = rng.standard_normal((count, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * rng.uniform(0.0, BLOCH_RMAX, (count, 1))


@dataclass
class Operands:
    """Fresh operands for one call: PD triple, its densities, Bloch pair and t."""

    A: np.ndarray
    B: np.ndarray
    X: np.ndarray
    rho: np.ndarray
    sigma: np.ndarray
    u: np.ndarray
    v: np.ndarray
    t: float


def draw_round(rng: np.random.Generator, spec: MixSpec, kinds: int,
               round_index: int) -> list[Operands]:
    """One fresh operand set per kind; t cycles over T_GRID across rounds."""
    mats = pd_stack(rng, 3 * kinds, spec)
    bloch = bloch_vectors(rng, 2 * kinds)
    out = []
    for k in range(kinds):
        A, B, X = mats[3 * k], mats[3 * k + 1], mats[3 * k + 2]
        out.append(Operands(
            A=A, B=B, X=X,
            rho=A / np.trace(A).real, sigma=B / np.trace(B).real,
            u=bloch[2 * k], v=bloch[2 * k + 1],
            t=T_GRID[(round_index + k) % len(T_GRID)],
        ))
    return out
