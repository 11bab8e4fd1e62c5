"""Seeded random generation with order-independent substreams.

The harness derives an independent Philox (counter-based) stream for every
(property, dimension) coordinate by folding the coordinates into the 64-bit
key with a stable hash, and draws that dimension's trials from it as one
stack.  Parallel or reordered execution therefore cannot change any draw,
which is what makes campaign reports byte-reproducible.

Every sampler takes either one ``Generator`` or a ``GeneratorStack`` of k
items on one generator, and returns (..., n, n) or (k,) stacks: each numpy
draw is one call for the whole stack, row j for item j, and the linear
algebra runs once over the stack.  The sampler bodies only draw from a
stack, so given a stack of one generator per item they return, item by item,
what the single calls on those generators return; the samplers that compute with
their draws (square roots, powers, means) differ from the single calls only
in the last bits, as the stacked kernel does.

Also home to the premise-forcing samplers: the conditional theorems are
tested with constructive inputs (rescaling, congruence by contractions),
because rejection sampling essentially never hits their premises.
"""

from __future__ import annotations

import hashlib
from typing import TypeAlias

import numpy as np

from .kernel import (
    SpectralDecomposition,
    _apply,
    _eigvalsh,
    _per,
    _powm,
    _top_eig,
    _trace,
    expm,
    hermitian_part,
    pd_eigh,
    powm,
    sqrtm,
)


def substream(seed: int, *coords) -> np.random.Generator:
    """Independent generator for one trial coordinate.

    The stream key is ``seed`` XOR a stable 64-bit digest of the coordinate
    tuple, so streams do not depend on execution order.
    """
    h = hashlib.blake2b(digest_size=8)
    for c in coords:
        h.update(str(c).encode())
        h.update(b"\x1f")
    key = (int(seed) ^ int.from_bytes(h.digest(), "little")) & (2**64 - 1)
    return np.random.Generator(np.random.Philox(key=key))


class GeneratorStack:
    """The draws of ``k`` stacked items from one generator.

    A draw of ``size`` returns the ``(k, *size)`` block of one call, so row j
    is item j's draw.
    """

    def __init__(self, generator: np.random.Generator, k: int):
        self.generator, self.k = generator, k

    def _size(self, size) -> tuple:
        if size is None:
            return (self.k,)
        return (self.k, *size) if np.iterable(size) else (self.k, size)

    def standard_normal(self, size=None) -> np.ndarray:
        return self.generator.standard_normal(self._size(size))

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        return self.generator.uniform(low, high, self._size(size))


# a string, so that importing this module does not load numpy.random
Rng: TypeAlias = "np.random.Generator | GeneratorStack"


def complex_gaussian(rng: Rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def gen_random_pd(rng: Rng, dim: int, cond_cap: float = 1e4,
                  unit_det: bool = False) -> np.ndarray:
    """Random positive definite matrix with condition number at most ``cond_cap``.

    Builds A = G G* + eps I with complex standard-normal G and

        eps = max(tr(G G*) / (1000 dim), ||G G*||_F (1 + 1e-9) / (cond_cap - 1)).

    The top eigenvalue of G G* is at most ||G G*||_F, so kappa(A) <=
    1 + ||G G*||_F / eps <= cond_cap by construction, with one draw and no
    eigensolve; the factor 1 + 1e-9 covers rounding.  Since ||G G*||_F <=
    tr(G G*), the first term wins at caps of (1000 dim + 1)(1 + 1e-9) and
    above, where kappa(A) <= 1000 dim + 1 whatever the cap.  With
    ``unit_det`` the result is scaled by det(A)^{-1/dim}.

    Raises
    ------
    ValueError
        If ``cond_cap`` is not above 1 (NaN included).
    """
    if not cond_cap > 1:
        raise ValueError(f"cond_cap must exceed 1, got {cond_cap!r}")
    G = complex_gaussian(rng, (dim, dim))
    A = hermitian_part(G @ G.conj().mT)
    # the norm over both axes sums a matrix as a stack sums each item
    frobenius = np.linalg.norm(A, axis=(-2, -1))
    eps = np.maximum(1e-3 * _trace(A) / dim, frobenius * (1 + 1e-9) / (cond_cap - 1))
    A = A + _per(eps) * np.eye(dim)
    if unit_det:
        A = A / _per(np.exp(np.mean(np.log(_eigvalsh(A)), axis=-1)))
    return A


def gen_random_hermitian(rng: Rng, dim: int) -> np.ndarray:
    return hermitian_part(complex_gaussian(rng, (dim, dim)))


def gen_random_unitary(rng: Rng, dim: int) -> np.ndarray:
    """Haar-ish unitary via QR with a deterministic phase convention."""
    Q, R = np.linalg.qr(complex_gaussian(rng, (dim, dim)))
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (d / np.abs(d))[..., None, :]


def _with_spectrum(U: np.ndarray, w: np.ndarray) -> np.ndarray:
    """U diag(w) U*, item by item."""
    return _apply(SpectralDecomposition(w, U), w)


def gen_commuting_pair(rng: Rng, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Two positive definite matrices sharing an eigenbasis, each with
    log-uniform spectrum on [-2, 2]."""
    U = gen_random_unitary(rng, dim)
    wa = np.exp(rng.uniform(-2.0, 2.0, dim))
    wb = np.exp(rng.uniform(-2.0, 2.0, dim))
    return _with_spectrum(U, wa), _with_spectrum(U, wb)


def gen_spread_pd(rng: Rng, dim: int, spread: float) -> np.ndarray:
    """PD matrix with log-uniform spectrum; condition number <= e^{2 spread}.

    The order-inequality battery raises its inputs to p-th powers, which
    raises conditioning to kappa**p; these spectrum-controlled samples keep
    that inside the certifiable double-precision window.
    """
    U = gen_random_unitary(rng, dim)
    return _with_spectrum(U, np.exp(rng.uniform(-spread, spread, dim)))


def _opnorm(M: np.ndarray) -> np.ndarray:
    return np.linalg.norm(M, ord=2, axis=(-2, -1))


def gen_dominated_pair(rng: Rng, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) with B <= A, via B = A^{1/2} K A^{1/2}, ||K|| <= 1."""
    A = gen_spread_pd(rng, dim, 0.8)
    K = gen_spread_pd(rng, dim, 0.4)
    K = 0.98 * K / _per(_top_eig(K))
    root = sqrtm(A)
    return A, hermitian_part(root @ K @ root)


def gen_sharp_contracted_pair(rng: Rng, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) with A # B <= I, by joint rescaling (homogeneity of #)."""
    from .means import geo_mean

    A = gen_spread_pd(rng, dim, 0.8)
    B = gen_spread_pd(rng, dim, 0.8)
    s = _per(0.999 / _top_eig(geo_mean(A, B, 0.5)))
    return s * A, s * B


def gen_contraction_for(rng: Rng, X: np.ndarray) -> np.ndarray:
    """Hermitian S with S X S <= X for the given PD X.

    S X S <= X is equivalent to ||X^{-1/2} S X^{1/2}|| <= 1, so any sample
    is admissible after scaling to norm 0.97.
    """
    S = gen_random_hermitian(rng, X.shape[-1])
    dec = pd_eigh(X)
    op = _opnorm(_powm(dec, -0.5) @ S @ _powm(dec, 0.5))
    return _per(0.97 / op) * S


def _unit_hermitian(rng: Rng, dim: int) -> np.ndarray:
    """Random Hermitian matrix scaled to spectral radius 1."""
    H = gen_random_hermitian(rng, dim)
    return H / _per(np.max(np.abs(np.linalg.eigvalsh(H)), axis=-1))


def gen_spectral_premise_pair(rng: Rng, dim: int,
                              t) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) with A^{-1} natural_t B <= A^{-1}.

    The premise says S A^{-1} S <= A^{-1} for S = (A # B)^t, which holds iff
    ||A^{1/2} S A^{-1/2}|| <= 1.  Draw the sharp value A # B = s P directly
    (P a congruence perturbation of A, s the scalar making S a strict
    contraction) and recover B as the parameter-2 point of the curve through
    A and sP, which by the halving of curve parameters makes A # B = sP.
    For a stack, ``t`` may be one float or one value per item.
    """
    from .means import geo_mean

    A = gen_spread_pd(rng, dim, 0.8)
    dec = pd_eigh(A)
    root, inv_root = _powm(dec, 0.5), _powm(dec, -0.5)
    # sharp value proportional to a congruence-perturbation of A, so that the
    # recovered B keeps a small condition number (the conclusion raises the
    # pair to p-th powers, which raises conditioning to kappa**p)
    H = _unit_hermitian(rng, dim)
    P = hermitian_part(root @ (np.eye(dim) + 0.15 * H) @ root)
    nu = _opnorm(root @ powm(P, t) @ inv_root)
    s = (0.97 / nu) ** (1.0 / np.asarray(t))
    return A, geo_mean(A, _per(s) * P, 2.0)


def gen_log_sum_pair(rng: Rng, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) positive definite with log A + log B <= 0.

    Built in log space: log B = -log A - P for a modest positive P, with
    both log factors normalized so the pair stays well conditioned.
    """
    H = _unit_hermitian(rng, dim)
    P = gen_spread_pd(rng, dim, 0.5)
    return expm(H), expm(-H - P)


def gen_psd_block_triple(rng: Rng, dim: int, cond_cap: float = 1e4):
    """(A, B, X) with the block matrix [[A, X], [X*, B]] positive semidefinite.

    Any such X factors as A^{1/2} K B^{1/2} with ||K|| <= 1.
    """
    A = gen_random_pd(rng, dim, cond_cap)
    B = gen_random_pd(rng, dim, cond_cap)
    K = complex_gaussian(rng, (dim, dim))
    K = K / _per(_opnorm(K))
    X = sqrtm(A) @ K @ sqrtm(B)
    return A, B, X


def gen_ball_vector(rng: Rng, dim: int = 3, rmax: float = 0.95) -> np.ndarray:
    """Vector strictly inside the unit ball: uniform direction, radius <= rmax."""
    v = rng.standard_normal(dim)
    v = v / np.sqrt(np.vecdot(v, v))[..., None]
    return v * np.asarray(rng.uniform(0.0, rmax))[..., None]


def gen_density(rng: Rng, dim: int) -> np.ndarray:
    """Random invertible density matrix with log-uniform spectrum (spread 2)."""
    A = gen_spread_pd(rng, dim, 2.0)
    return A / _per(_trace(A))
