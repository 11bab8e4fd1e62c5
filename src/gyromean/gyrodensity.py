"""Gyrovector-space structure on invertible density matrices.

Carrier: positive definite Hermitian matrices of unit trace.  Operations are
the trace-normalized cone operations; the identity element is I/n and the
inverse of rho is rho^{-1}/tr(rho^{-1}).  Gyrolines and cogyrolines are the
trace-normalized weighted geometric and spectral means.  Every operation
also takes stacks of densities (..., n, n), with one t or an array of one t
per item; see :mod:`gyromean.kernel`.
"""

from __future__ import annotations

import numpy as np

from .errors import GyromeanError, NotDensity
from .kernel import (
    _frobenius,
    _hermitian,
    _item,
    _per,
    _pd_eigh,
    _pd_eigvals,
    _powm,
    _sandwich,
    _trace,
    as_stack,
    require_same_dim,
    require_weight,
)
from .gyrocone import _gyration_unitary
from .means import _geo_mean, _spectral_power

TRACE_TOL = 1e-10


def require_density(rho) -> np.ndarray:
    """Validate an invertible density matrix (PD Hermitian, trace one); return
    it as a complex ndarray.

    The test reads the eigenvalues.  A caller that needs the decomposition
    takes ``_pd_eigh`` of the result, which at n >= 3 reads the solve this
    test left in the memo.
    """
    M = as_stack(rho)
    try:
        _pd_eigvals(_hermitian(M))
    except GyromeanError as exc:
        raise NotDensity(str(exc)) from exc
    trace = _trace(M)
    bad = np.abs(trace - 1.0) > TRACE_TOL
    if bad.any():
        raise NotDensity(
            _item(bad) + f"trace {float(trace[bad][0])!r} differs from 1 beyond tolerance")
    return M


def normalize_to_density(A) -> np.ndarray:
    """Project a positive definite matrix (or each item of a stack) onto unit trace."""
    M = as_stack(A)
    return M / _per(_trace(M))


def dens_add(rho, sigma) -> np.ndarray:
    """rho (*) sigma = rho^{1/2} sigma rho^{1/2} / tr(rho sigma)."""
    r, s = require_density(rho), require_density(sigma)
    require_same_dim(r, s)
    root = _powm(_pd_eigh(r), 0.5)
    return normalize_to_density(_sandwich(root, s))


def dens_scalar(t: float, rho) -> np.ndarray:
    """t (*) rho = rho^t / tr(rho^t)."""
    r = require_density(rho)
    return normalize_to_density(_powm(_pd_eigh(r), require_weight(t, r)))


def dens_neg(rho) -> np.ndarray:
    """Inverse element rho^{-1} / tr(rho^{-1})."""
    return dens_scalar(-1.0, rho)


def dens_identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex) / dim


def dens_gyration(rho, sigma, tau) -> np.ndarray:
    """Gyration on densities: the same unitary conjugation as on the cone.

    Unitary conjugation preserves the trace, so the cone gyration descends
    to the trace-normalized carrier unchanged.
    """
    r, s, x = require_density(rho), require_density(sigma), require_density(tau)
    require_same_dim(r, s, x)
    U = _gyration_unitary(_pd_eigh(r), _pd_eigh(s))
    return _sandwich(U, x, U.conj().mT)


def dens_gyroline(t: float, rho, sigma) -> np.ndarray:
    """L(t; rho, sigma): the trace-normalized weighted geometric mean."""
    r, s = require_density(rho), require_density(sigma)
    require_same_dim(r, s)
    t = require_weight(t, r)
    return normalize_to_density(_geo_mean(_pd_eigh(r), s, t))


def dens_cogyroline(t: float, rho, sigma) -> np.ndarray:
    """Lc(t; rho, sigma): the trace-normalized weighted spectral mean."""
    r, s = require_density(rho), require_density(sigma)
    require_same_dim(r, s)
    t = require_weight(t, r)
    return normalize_to_density(_sandwich(_spectral_power(_pd_eigh(r), s, t), r))


def density_model(dim: int):
    """GyroModel adapter for the generic axiom suite."""
    from .gyroaxioms import GyroModel

    return GyroModel(
        identity=dens_identity(dim),
        add=dens_add,
        neg=dens_neg,
        scalar=dens_scalar,
        gyr=dens_gyration,
        residual=lambda x, y: _frobenius(x - y),
    )
