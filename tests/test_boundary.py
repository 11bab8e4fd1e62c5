"""The public boundary: every bad operand or curve parameter raises one named error.

Each public operation validates its operands once and trusts them from
there on, so these tests are what keeps that single check in place.  A bad
input must raise the named error before any arithmetic touches it, which is
why every case also runs with RuntimeWarning promoted to an error.
"""

import warnings

import numpy as np
import pytest

from gyromean import errors
from gyromean.ball import (
    ball_scalar,
    bloch_to_density,
    einstein_add,
    gamma_factor,
    rapidity_distance,
    require_in_ball,
)
from gyromean.closedform2x2 import gm2_det1, qubit_geo_mean, qubit_spectral_mean
from gyromean.gyrocone import (
    cogyroline,
    cone_add,
    cone_scalar,
    cooperation,
    gyration,
    gyroline,
)
from gyromean.gyrodensity import dens_cogyroline, dens_gyroline, dens_scalar
from gyromean.kernel import polar_unitary, powm
from gyromean.means import (
    geo_mean,
    mean,
    riccati_residual,
    spectral_defining_residual,
    spectral_mean,
)
from gyromean.metrics import distance

A = np.array([[2.0, 0.3], [0.3, 1.0]])
B = np.array([[1.0, 0.2j], [-0.2j, 1.5]])
X = np.array([[1.2, -0.1], [-0.1, 0.8]])
T = 0.3

# name -> (call(operands, t), operand count, takes t, operands are densities)
OPS = {
    "geo_mean": (lambda m, t: geo_mean(*m, t), 2, True, False),
    "spectral_mean": (lambda m, t: spectral_mean(*m, t), 2, True, False),
    **{kind: (lambda m, t, kind=kind: distance(kind, *m), 2, False, False)
       for kind in ("thompson", "riemannian", "semimetric_op", "semimetric_frob")},
    "gyration": (lambda m, t: gyration(*m), 3, False, False),
    "cooperation": (lambda m, t: cooperation(*m), 2, False, False),
    "cone_add": (lambda m, t: cone_add(*m), 2, False, False),
    "gyroline": (lambda m, t: gyroline(t, *m), 2, True, False),
    "cogyroline": (lambda m, t: cogyroline(t, *m), 2, True, False),
    "dens_gyroline": (lambda m, t: dens_gyroline(t, *m), 2, True, True),
    "dens_cogyroline": (lambda m, t: dens_cogyroline(t, *m), 2, True, True),
    "riccati_residual": (lambda m, t: riccati_residual(*m), 3, False, False),
    "spectral_defining_residual": (
        lambda m, t: spectral_defining_residual(m[0], m[1], t, m[2]), 3, True, False),
}

# case -> (bad operand, the same as a trace-one matrix, expected error)
BAD_OPERANDS = {
    "not-hermitian": (np.array([[1.0, 1.0], [0.0, 1.0]]),
                      np.array([[0.5, 0.5], [0.0, 0.5]]), errors.NotHermitian),
    "indefinite": (np.diag([1.0, -1.0]), np.diag([1.5, -0.5]),
                   errors.NotPositiveDefinite),
    "nan-entry": (np.array([[np.nan, 0.0], [0.0, 1.0]]),
                  np.array([[np.nan, 0.0], [0.0, 1.0]]), errors.NotFinite),
    "inf-entry": (np.array([[np.inf, 0.0], [0.0, 1.0]]),
                  np.array([[np.inf, 0.0], [0.0, 1.0]]), errors.NotFinite),
    "mixed-size": (np.eye(3), np.eye(3) / 3, errors.DimensionMismatch),
}


def _good_operands(count: int, density: bool) -> list[np.ndarray]:
    mats = [A, B, X][:count]
    return [M / np.trace(M).real for M in mats] if density else list(mats)


def _cases():
    for name, (_, count, takes_t, _) in OPS.items():
        for case in BAD_OPERANDS:
            for pos in range(count):
                yield pytest.param(name, case, pos, T, id=f"{name}-{case}-operand{pos}")
        if takes_t:
            for bad_t in (np.nan, np.inf, -np.inf):
                yield pytest.param(name, "weight", None, bad_t,
                                   id=f"{name}-t={bad_t}")


@pytest.mark.parametrize("name, case, pos, t", list(_cases()))
def test_bad_input_raises_its_named_error(name, case, pos, t):
    call, count, _, density = OPS[name]
    operands = _good_operands(count, density)
    if case == "weight":
        expected = errors.WeightOutOfRange
    else:
        bad, bad_density, expected = BAD_OPERANDS[case]
        operands[pos] = bad_density if density else bad
    # a density operation reports a bad operand as NotDensity, caused by the
    # error the cone operation raises for the same matrix
    wrapped = density and expected not in (errors.WeightOutOfRange,
                                           errors.DimensionMismatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(errors.NotDensity if wrapped else expected) as info:
            call(operands, t)
    if wrapped:
        assert isinstance(info.value.__cause__, expected)


def test_valid_operands_pass_the_boundary():
    for name, (call, count, _, density) in OPS.items():
        out = call(_good_operands(count, density), T)
        assert np.all(np.isfinite(out)), name


@pytest.mark.parametrize("bad_t", [np.nan, np.inf])
def test_every_curve_parameter_must_be_finite(bad_t):
    rho = A / np.trace(A).real
    calls = [
        lambda: mean("metric", A, B, bad_t),
        lambda: mean("spectral", A, B, bad_t),
        lambda: powm(A, bad_t),
        lambda: cone_scalar(bad_t, A),
        lambda: dens_scalar(bad_t, rho),
    ]
    for call in calls:
        with pytest.raises(errors.WeightOutOfRange):
            call()


U = np.array([0.1, 0.2, 0.3])
V = np.array([-0.2, 0.1, 0.4])
UNIT_DET = np.array([[2.0, 0.5], [0.5, 0.625]])  # determinant 1


@pytest.mark.parametrize("bad_t", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", [
    lambda t: qubit_geo_mean(U, V, t),
    lambda t: qubit_spectral_mean(U, V, t),
    lambda t: gm2_det1(UNIT_DET, np.eye(2), t),
    lambda t: ball_scalar(t, U),
], ids=["qubit_geo_mean", "qubit_spectral_mean", "gm2_det1", "ball_scalar"])
def test_closed_forms_reject_a_non_finite_weight(call, bad_t):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(errors.WeightOutOfRange):
            call(bad_t)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("call", [
    require_in_ball,
    gamma_factor,
    lambda w: einstein_add(w, U),
    lambda w: rapidity_distance(U, w),
    bloch_to_density,
    lambda w: qubit_geo_mean(w, V, 0.5),
    lambda w: qubit_spectral_mean(U, w, 0.5),
], ids=["require_in_ball", "gamma_factor", "einstein_add", "rapidity_distance",
        "bloch_to_density", "qubit_geo_mean", "qubit_spectral_mean"])
def test_ball_vectors_must_be_finite(call, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(errors.NotFinite):
            call(np.array([bad, 0.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_polar_unitary_rejects_a_non_finite_matrix(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(errors.NotFinite):
            polar_unitary(np.array([[bad, 0.0], [0.0, 1.0]]))
