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
from gyromean.closedform2x2 import (
    det_shift_identity,
    gm2_det1,
    l_map,
    qubit_geo_mean,
    qubit_spectral_mean,
    relative_eigenvalue,
)
from gyromean.gyrocone import (
    cogyroline,
    cone_add,
    cone_scalar,
    cooperation,
    gyration,
    gyroline,
)
from gyromean.gyrodensity import dens_cogyroline, dens_gyroline, dens_scalar
from gyromean.kernel import (
    Loewner,
    congruence,
    expm,
    invm,
    loewner_compare,
    norm,
    polar_unitary,
    powm,
)
from gyromean.means import (
    geo_mean,
    karcher_residual,
    mean,
    riccati_residual,
    spectral_defining_residual,
    spectral_mean,
)
from gyromean.metrics import distance
from gyromean.order import weak_majorize
from gyromean.randgen import gen_random_pd, substream

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



def test_the_means_and_gyration_survive_operands_near_the_largest_square():
    # M M sits at the edge of the double range; spectral_mean is positively
    # homogeneous, so it rescales such operands by a power of two instead of
    # overflowing into NaN, and gyration's polar factor never forms M M*
    big = 1.3407807929942594e154
    M = big * np.eye(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_allclose(spectral_mean(M, M), M, rtol=1e-14)
        np.testing.assert_allclose(gyration(M, M, M), M, rtol=1e-14)
        np.testing.assert_allclose(spectral_mean(big * A, big * B, T) / big,
                                   spectral_mean(A, B, T), rtol=1e-12)
        np.testing.assert_allclose(gyration(big * A, big * B, X), gyration(A, B, X),
                                   rtol=1e-12)
        # in a stack, the ordinary item keeps the ordinary path
        got = spectral_mean(np.stack([A, big * A]), np.stack([B, big * B]), T)
        np.testing.assert_allclose(got[0], spectral_mean(A, B, T), rtol=1e-12)
        np.testing.assert_allclose(got[1] / big, spectral_mean(A, B, T), rtol=1e-12)


@pytest.mark.parametrize("a, b", [(1e-200, 1e-200), (1e-300, 1e-20), (1e300, 1e8)])
def test_gyration_does_not_depend_on_the_operands_scale(a, b):
    # the polar factor of A^{1/2} B^{1/2} is scale-free; M M* would underflow
    # at the small scales here and lose the smallest singular values to it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_allclose(gyration(a * A, b * B, X), gyration(A, B, X),
                                   rtol=1e-13)


# name -> (call(A, B, X), degree of homogeneity in a common scale of A, B, X)
SCALE_FREE = {
    "spectral_mean": (lambda A, B, X: spectral_mean(A, B, T), 1),
    "cogyroline": (lambda A, B, X: cogyroline(T, A, B), 1),
    "semimetric_op": (lambda A, B, X: distance("semimetric_op", A, B), 0),
    "semimetric_frob": (lambda A, B, X: distance("semimetric_frob", A, B), 0),
    "spectral_defining_residual": (
        lambda A, B, X: spectral_defining_residual(A, B, T, X), 0),
}


def _relative(x, y) -> float:
    return float(np.linalg.norm(np.asarray(x) - y) / np.linalg.norm(y))


@pytest.mark.parametrize("s", [1e-300, 1e-200, 1e-160, 1e154, 1e200, 1e300])
@pytest.mark.parametrize("name", list(SCALE_FREE))
def test_the_spectral_route_does_not_depend_on_the_operands_scale(name, s):
    # A^{-1/2} B^{-1/2} inside A^{-1} [+] B scales as 1/s and nears the ends
    # of the doubles at these scales, though each result is homogeneous in s;
    # in a stack, the ordinary item keeps the bits it has without the scaled one
    call, degree = SCALE_FREE[name]
    rng = substream(216, "boundary-scale")
    ops = [gen_random_pd(rng, 3) for _ in range(6)]
    at_one = call(*ops[:3])
    ordinary = call(*(np.stack([M, N]) for M, N in zip(ops[:3], ops[3:])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        single = call(*(s * M for M in ops[:3]))
        mixed = call(*(np.stack([s * M, N]) for M, N in zip(ops[:3], ops[3:])))
    assert _relative(single / s**degree, at_one) <= 1e-13
    assert _relative(mixed[0] / s**degree, at_one) <= 1e-13
    assert np.array_equal(mixed[1], ordinary[1])


@pytest.mark.parametrize("s", [1e-310, 1e-320])
def test_the_spectral_route_takes_operands_of_subnormal_scale(s):
    # A^{-1/2} B^{-1/2}, whose polar factor makes A^{-1} [+] B, scales as
    # 1/s and overflows here though the ratio of the scales is 1; each
    # operand's own scale sends the item through the rescale
    A, B = s * np.eye(2), s * np.diag([1.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert distance("semimetric_op", A, B) == pytest.approx(np.log(2.0), rel=1e-14)
        assert distance("semimetric_frob", A, B) == pytest.approx(np.log(2.0), rel=1e-14)
        for got in (spectral_mean(A, B), cogyroline(0.5, A, B)):
            np.testing.assert_allclose(got, s * np.diag([1.0, np.sqrt(2.0)]),
                                       rtol=1e-3, atol=1e-3 * s)


def test_the_spectral_route_raises_singular_past_its_condition_limit():
    # the singular values of A^{-1/2} B^{-1/2}, whose polar factor makes
    # A^{-1} # B, span 1.1e5 > PD_TOL**-0.5 here: kappa(A) kappa(B) = 1.2e10
    A = np.diag([1.0, 1.1e5])
    for call in (spectral_mean, lambda A, B: cogyroline(0.5, A, B),
                 lambda A, B: distance("semimetric_op", A, B)):
        with pytest.raises(errors.Singular):
            call(A, A)


def test_results_at_the_top_of_the_double_range_stay_finite():
    # A^2 and the spectral mean below are finite, just under the largest
    # double; the Hermitian part halves before it adds, and the mean's
    # A^{-1} [+] B scales both operands by 2**-1024, whose unscale is 1
    big = 1.3407807929942594e154
    M = big * np.eye(2)
    top = 1.7e308
    A_top, B_top = top * np.eye(2), top * np.array([[1.0, 0.15], [0.15, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_allclose(cone_add(M, M), big * big * np.eye(2), rtol=1e-14)
        np.testing.assert_allclose(cooperation(M, M), big * big * np.eye(2), rtol=1e-14)
        np.testing.assert_allclose(spectral_mean(A_top, B_top, T),
                                   top * spectral_mean(np.eye(2), B_top / top, T), rtol=1e-13)
        np.testing.assert_allclose(gyration(A_top, B_top, A_top), A_top,
                                   rtol=1e-13, atol=1e-13 * top)


SPREAD = np.diag([1e-2, 1.0, 1e2])  # kappa^200 = 1e800 leaves the double range
# A natural_330 (A/10) is about 1e-330 A, which underflows to the zero matrix
A3 = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.5]])


@pytest.mark.parametrize("filter_", ["error", "ignore"])
@pytest.mark.parametrize("call", [
    lambda: geo_mean(np.eye(3), SPREAD, 200.0),
    lambda: powm(SPREAD, 200.0),
    lambda: powm(SPREAD, -200.0),
    lambda: gyroline(200.0, np.eye(3), SPREAD),
    lambda: spectral_mean(np.eye(3), SPREAD, 200.0),
    lambda: cogyroline(200.0, np.eye(3), SPREAD),
    lambda: spectral_mean(A, A / 10, 330.0),
    lambda: cogyroline(330.0, A3, A3 / 10),
    lambda: invm(1e-320 * np.eye(2)),  # subnormal, yet relatively positive definite
    lambda: expm(np.diag([1000.0, 0.0])),
    lambda: cone_scalar(400.0, np.diag([0.1, 0.9])),  # underflows to a singular power
    # B A^{-1} B = 1e600 I; the rescale of mixed-scale operands must not hide it
    lambda: geo_mean(1e-200 * np.eye(2), 1e200 * np.eye(2), 2.0),
    lambda: cogyroline(2.0, 1e-200 * np.eye(3), 1e200 * np.eye(3)),
    lambda: geo_mean(1e200 * np.eye(3), 1e-200 * np.eye(3), 2.0),  # 1e-600 I
    # A^{-1} # X = diag(1e304, 1e304, 7e308), past the largest double
    lambda: spectral_defining_residual(np.diag([1e-300, 1e-300, 2e-310]), np.eye(3), T,
                                       1e308 * np.eye(3)),
], ids=["geo_mean", "powm", "powm-negative", "gyroline", "spectral_mean", "cogyroline",
        "spectral_mean-underflow", "cogyroline-underflow", "invm-subnormal", "expm",
        "cone_scalar-underflow", "geo_mean-mixed-scales",
        "cogyroline-mixed-scales", "geo_mean-mixed-scales-underflow",
        "spectral_defining_residual-mixed-scales"])
def test_a_result_outside_the_double_range_raises_not_finite(call, filter_):
    # the named error must not hang on the RuntimeWarning, which only pytest
    # turns into an error: with warnings ignored it is raised all the same
    with warnings.catch_warnings():
        warnings.simplefilter(filter_)
        with pytest.raises(errors.NotFinite):
            call()


def test_a_stack_names_the_item_whose_power_leaves_the_double_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.NotFinite, match=r"^item \(1,\): "):
            powm(np.stack([np.eye(3), SPREAD]), 200.0)
        with pytest.raises(errors.NotFinite, match=r"^item \(0,\): "):
            spectral_mean(np.stack([np.eye(3)] * 2), np.stack([SPREAD, np.eye(3)]), 200.0)
        with pytest.raises(errors.NotFinite, match=r"^item \(1,\): "):
            spectral_mean(np.stack([np.eye(2), A]), np.stack([np.eye(2), A / 10]), 330.0)


@pytest.mark.parametrize("s", [1e-200, 1e-300, 1e-310])
@pytest.mark.parametrize("op", [cone_add, cooperation], ids=["cone_add", "cooperation"])
def test_a_product_that_underflows_raises_not_finite(op, s):
    # A^{1/2} B A^{1/2} and (A # B)^2 are about s**2, below the smallest
    # subnormal; they were once the zero matrix, with no warning
    rng = substream(231, "boundary-underflow")
    A, B = gen_random_pd(rng, 3), gen_random_pd(rng, 3)
    for filter_ in ("error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(filter_)
            with pytest.raises(errors.NotFinite):
                op(s * A, s * B)
            with pytest.raises(errors.NotFinite, match=r"^item \(1,\): "):
                op(np.stack([A, s * A]), np.stack([B, s * B]))
    np.testing.assert_allclose(op(1e-150 * A, 1e-150 * B), 1e-300 * op(A, B), rtol=1e-12)


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_cooperation_of_operands_far_apart_in_scale_is_finite(n, swap):
    # (1e308 I) [+] (1e-310 I) = 1e-2 I, but A^{1/2} B^{-1/2}, about 1e309,
    # once overflowed; the operands are brought near 1 by powers of two
    rng = substream(237, "boundary-cooperation-scale", n)
    A, B, A2, B2 = (gen_random_pd(rng, n) for _ in range(4))
    a, b = (1e-310, 1e308) if swap else (1e308, 1e-310)
    ordinary = cooperation(np.stack([A, A2]), np.stack([B, B2]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        single = cooperation(a * np.eye(n), b * np.eye(n))
        mixed = cooperation(np.stack([A, a * np.eye(n)]), np.stack([B, b * np.eye(n)]))
    np.testing.assert_allclose(single, a * b * np.eye(n), rtol=1e-13, atol=0)
    np.testing.assert_allclose(mixed[1], single, rtol=1e-13, atol=0)
    assert np.array_equal(mixed[0], ordinary[0])
    # (1e300 I) [+] (1e300 I) = 1e600 I stays past the largest double
    huge = 1e300 * np.eye(n)
    for filter_ in ("error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(filter_)
            with pytest.raises(errors.NotFinite):
                cooperation(huge, huge)
            with pytest.raises(errors.NotFinite, match=r"^item \(1,\): "):
                cooperation(np.stack([A, huge]), np.stack([B, huge]))


def _congruence_operands():
    rng = substream(233, "boundary-congruence")
    return gen_random_pd(rng, 3), rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))


@pytest.mark.parametrize("s", [1e-160, 1e-200, 1e-300])
def test_a_congruence_that_underflows_raises_not_finite(s):
    # S X S* is about s**2: subnormal at 1e-160, and once the zero matrix
    # from there down, with no warning
    X, G = _congruence_operands()
    for filter_ in ("error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(filter_)
            with pytest.raises(errors.NotFinite, match="^the result underflows"):
                congruence(X, s * G)


def test_a_congruence_near_the_bottom_of_the_range_is_right():
    X, G = _congruence_operands()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_allclose(congruence(X, 1e-150 * G), 1e-300 * (G @ X @ G.conj().T),
                                   rtol=1e-12)
        # a zero or singular factor makes exact zeros, which underflow nothing
        assert np.array_equal(congruence(X, np.zeros((3, 3))), np.zeros((3, 3)))
        for s in (1.0, 1e-150):
            P = congruence(X, s * np.diag([1.0, 0.0, 0.0]))
            expected = np.zeros((3, 3), dtype=complex)
            expected[0, 0] = s * s * X[0, 0]
            np.testing.assert_allclose(P, expected, rtol=1e-15, atol=0)


TINY, HUGE = 1e-200 * np.eye(2), 1e200 * np.eye(2)


def _karcher_at(a, b):
    """karcher_residual at a A3, b SPREAD and their mean: X^{1/2} B^{-1} X^{1/2}
    is about (a/b)**0.7 1e2, past the largest double."""
    Am, Bm = a * A3, b * SPREAD
    return karcher_residual(Am, Bm, T, geo_mean(Am, Bm, T))


@pytest.mark.parametrize("call, where", [
    (lambda: cone_add(HUGE, HUGE), ""),
    (lambda: relative_eigenvalue(HUGE, TINY), ""),
    (lambda: relative_eigenvalue(TINY, HUGE), ""),
    (lambda: congruence(np.eye(2), [[np.nan, 0.0], [0.0, 1.0]]), ""),
    (lambda: congruence(HUGE, 1e100 * np.eye(2)), ""),
    (lambda: _karcher_at(1e154, 1e-300), ""),
    (lambda: _karcher_at(1e300, 1e-300), ""),
], ids=["cone_add", "relative_eigenvalue", "relative_eigenvalue-underflow",
        "congruence-nan", "congruence", "karcher_residual", "karcher_residual-extreme"])
def test_an_overflowing_intermediate_product_raises_not_finite(call, where):
    # A^{1/2} B A^{1/2}, the congruence S X S* and karcher_residual's
    # X^{1/2} B^{-1} X^{1/2} overflow here, and the largest eigenvalue 1e400
    # or 1e-400 of relative_eigenvalue's whitened B^{-1/2} A B^{-1/2} leaves
    # the doubles; each is made inside a guard, so the named error comes
    # before numpy can warn (or LAPACK fails on the overflowed product), and
    # also with warnings ignored
    for filter_ in ("error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(filter_)
            with pytest.raises(errors.NotFinite, match="^" + where + "the"):
                call()


def _log_ratios(A, B, a, b):
    """The log-eigenvalues of (aA)^{-1/2} (bB) (aA)^{-1/2}, from A^{-1} B at scale 1."""
    return np.log(np.sort(np.linalg.eigvals(np.linalg.solve(A, B)).real)) + np.log(b) - np.log(a)


def _log_sharp(A, B, a, b):
    """The log-eigenvalues of (aA)^{-1} # (bB), from A^{-1} # B at scale 1."""
    return np.log(np.linalg.eigvalsh(geo_mean(np.linalg.inv(A), B))) + (np.log(b) - np.log(a)) / 2


# name -> (call(A, B), the expected value of call(a A, b B) from A and B)
MIXED_SCALE = {
    "geo_mean": (lambda A, B: geo_mean(A, B, T),
                 lambda A, B, a, b: a**(1 - T) * b**T * geo_mean(A, B, T)),
    "gyroline": (lambda A, B: gyroline(T, A, B),
                 lambda A, B, a, b: a**(1 - T) * b**T * gyroline(T, A, B)),
    "cogyroline": (lambda A, B: cogyroline(T, A, B),
                   lambda A, B, a, b: a**(1 - T) * b**T * cogyroline(T, A, B)),
    "thompson": (lambda A, B: distance("thompson", A, B),
                 lambda A, B, a, b: np.max(np.abs(_log_ratios(A, B, a, b)))),
    "riemannian": (lambda A, B: distance("riemannian", A, B),
                   lambda A, B, a, b: np.linalg.norm(_log_ratios(A, B, a, b))),
    "spectral_mean": (lambda A, B: spectral_mean(A, B, T),
                      lambda A, B, a, b: a**(1 - T) * b**T * spectral_mean(A, B, T)),
    "semimetric_op": (lambda A, B: distance("semimetric_op", A, B),
                      lambda A, B, a, b: 2 * np.max(np.abs(_log_sharp(A, B, a, b)))),
    "semimetric_frob": (lambda A, B: distance("semimetric_frob", A, B),
                        lambda A, B, a, b: 2 * np.linalg.norm(_log_sharp(A, B, a, b))),
}


def _relative_at_any_scale(x, y) -> float:
    """``_relative`` with both sides divided by max |y| first, so that the
    norms neither overflow nor underflow."""
    m = np.max(np.abs(y))
    return _relative(np.asarray(x) / m, np.asarray(y) / m)


def _times_pow2(M, e: int):
    """M 2**e, exactly where the result is a normal double, with no factor
    past the doubles."""
    return M * 2.0**(e // 2) * 2.0**(e - e // 2)


@pytest.mark.parametrize("n", [2, 3])
# a = 2**ea and b = 2**eb about (1e-200, 1e200), (1e200, 1e-200),
# (1e-300, 1e300) and (1e-310, 1): powers of two, so that 2**-ea (a A) is
# exactly the operand the call receives
@pytest.mark.parametrize("ea, eb", [(-665, 665), (665, -665), (-997, 997), (-1030, 0)])
@pytest.mark.parametrize("name", list(MIXED_SCALE))
def test_operands_of_very_different_scales_give_the_finite_result(name, ea, eb, n):
    # A^{-1/2} B A^{-1/2} scales as b / a, which leaves the double range here
    # though each result is finite; the operands are brought near 1 by powers
    # of two and the result scaled back, and in a stack the ordinary item
    # keeps the bits it has without the extreme one
    call, expected = MIXED_SCALE[name]
    rng = substream(217, "boundary-mixed-scale", n)
    A, B, A2, B2 = (gen_random_pd(rng, n) for _ in range(4))
    a, b = 2.0**ea, 2.0**eb
    ordinary = call(np.stack([A, A2]), np.stack([B, B2]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        single = call(a * A, b * B)
        mixed = call(np.stack([a * A, A2]), np.stack([b * B, B2]))
        identity = call(a * np.eye(n), b * np.eye(n))
    # at a = 2**-1030, a A is subnormal and keeps only A's leading bits
    want = expected(_times_pow2(a * A, -ea), _times_pow2(b * B, -eb), a, b)
    assert _relative_at_any_scale(single, want) <= 1e-13
    assert _relative_at_any_scale(mixed[0], want) <= 1e-13
    assert np.array_equal(mixed[1], ordinary[1])
    assert _relative_at_any_scale(identity, expected(np.eye(n), np.eye(n), a, b)) <= 1e-13


@pytest.mark.parametrize("s", [1e-300, 1e-200, 1e200, 1e300])
def test_the_frobenius_norm_does_not_depend_on_the_operands_scale(s):
    # the squares of the entries underflow to 0 or overflow here, though the
    # norm is a finite double
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = norm(s * A, "frobenius")
    assert got == pytest.approx(s * norm(A, "frobenius"), rel=1e-14, abs=0)


@pytest.mark.parametrize("a, b", [(1e-200, 1e200), (1e200, 1e-200), (1e154, 1e-300)])
def test_the_riccati_residual_at_operands_of_very_different_scales(a, b):
    # X A^{-1} X - B scales as b at (a A, b B, sqrt(ab) X), and the squares of
    # its entries leave the doubles here, where an unscaled norm reads inf
    # (or warns) or 0.0; in a stack the ordinary item keeps the bits it has
    # without the scaled one
    rng = substream(5, "contract", 3)
    A3_, B3_ = gen_random_pd(rng, 3), gen_random_pd(rng, 3)
    X3 = 1.1 * geo_mean(A3_, B3_)  # residual 0.21 B
    ordinary = riccati_residual(A3_, B3_, X3)
    plain = riccati_residual(*(np.stack([M, M]) for M in (A3_, B3_, X3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        off = riccati_residual(a * A3_, b * B3_, np.sqrt(a * b) * X3)
        stacked = riccati_residual(np.stack([A3_, a * A3_]), np.stack([B3_, b * B3_]),
                                   np.stack([X3, np.sqrt(a * b) * X3]))
        Am, Bm = a * A3_, b * B3_
        at_mean = riccati_residual(Am, Bm, geo_mean(Am, Bm))
    assert off == pytest.approx(b * ordinary, rel=1e-12, abs=0)
    assert stacked[1] == pytest.approx(off, rel=1e-12, abs=0)
    assert stacked[0] == plain[0]
    assert at_mean <= 1e-13 * b * norm(B3_, "frobenius")


@pytest.mark.parametrize("X, Y, expected", [
    (-1e308, 1e308, Loewner.LE),
    (1e308, -1e308, Loewner.GE),
    (1e308, 1e308, Loewner.EQ),
])
def test_loewner_compare_at_the_top_of_the_double_range(X, Y, expected):
    # Y - X overflows here, but Y/2 - X/2, which the comparison is made on,
    # does not
    for filter_ in ("error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(filter_)
            assert loewner_compare(X * np.eye(2), Y * np.eye(2)) is expected


NAN_2X2 = np.array([[np.nan, 0.0], [0.0, 1.0]])
PAIR = np.stack([np.eye(2)] * 2)


@pytest.mark.parametrize("call, error, where", [
    (lambda: l_map(np.nan, 2.0), errors.WeightOutOfRange, ""),
    (lambda: l_map(0.5, np.inf), errors.NotFinite, ""),
    (lambda: l_map(0.5, np.nan), errors.NotFinite, ""),
    (lambda: l_map(np.array([0.5, np.inf]), np.array([2.0, 3.0])), errors.WeightOutOfRange,
     r"item \(1,\): "),
    (lambda: l_map(0.5, np.array([2.0, np.inf])), errors.NotFinite, r"item \(1,\): "),
    (lambda: det_shift_identity(np.nan, np.eye(2)), errors.NotFinite, ""),
    (lambda: det_shift_identity(1.0, NAN_2X2), errors.NotFinite, ""),
    (lambda: det_shift_identity(np.array([1.0, np.inf]), PAIR), errors.NotFinite,
     r"item \(1,\): "),
    (lambda: det_shift_identity(1.0, np.stack([np.eye(2), NAN_2X2])), errors.NotFinite,
     r"item \(1,\): "),
    (lambda: weak_majorize([np.nan, 1.0], [2.0, 0.0]), errors.NotFinite, ""),
    (lambda: weak_majorize([2.0, 1.0], [np.inf, 0.0], log_scale=True), errors.NotFinite,
     ""),
    (lambda: weak_majorize([[2.0, 1.0]] * 2, [[2.0, 1.0], [2.0, np.nan]]),
     errors.NotFinite, r"item \(1,\): "),
], ids=["l_map-t", "l_map-x-inf", "l_map-x-nan", "l_map-t-stack", "l_map-x-stack",
        "det_shift_identity-c", "det_shift_identity-X", "det_shift_identity-c-stack",
        "det_shift_identity-X-stack", "weak_majorize", "weak_majorize-log",
        "weak_majorize-stack"])
def test_a_non_finite_scalar_or_vector_raises_its_named_error(call, error, where):
    for filter_ in ("error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(filter_)
            with pytest.raises(error, match="^" + where):
                call()
