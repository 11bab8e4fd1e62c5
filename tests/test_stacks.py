"""The stack contract: an operation on a stack (..., n, n) acts item by item.

A stack of k operand sets gives what k single calls give (to rtol 1e-12;
only a single matrix's decomposition fixes eigenvector phases, so the last
bits may differ), keeps its leading shape, and a stack with one bad item
raises the named error the single call on that item raises.
"""

import numpy as np
import pytest

import gyromean as gm
from gyromean import errors
from gyromean import gyrodensity as gd
from gyromean.kernel import hermitian_part
from gyromean.randgen import gen_spread_pd, substream

DIMS = (2, 3, 4, 6)
ITEMS = 8


def _dens(m):
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


# name -> (call(operands, t), operand count, takes t, operands are densities)
OPS = {
    "geo_mean": (lambda m, t: gm.geo_mean(*m, t), 2, True, False),
    "spectral_mean": (lambda m, t: gm.spectral_mean(*m, t), 2, True, False),
    "mean-metric": (lambda m, t: gm.mean("metric", *m, t), 2, True, False),
    **{f"distance-{kind}": (lambda m, t, kind=kind: gm.distance(kind, *m), 2, False, False)
       for kind in gm.DISTANCE_KINDS},
    "midpoint_deviation": (
        lambda m, t: np.stack(gm.midpoint_deviation("semimetric_op", *m), axis=-1), 3,
        False, False),
    "sup_ratio": (lambda m, t: gm.sup_ratio(*m), 2, False, False),
    "riccati_residual": (lambda m, t: gm.riccati_residual(*m), 3, False, False),
    "karcher_residual": (lambda m, t: gm.karcher_residual(m[0], m[1], t, m[2]), 3, True,
                         False),
    "spectral_defining_residual": (
        lambda m, t: gm.spectral_defining_residual(m[0], m[1], t, m[2]), 3, True, False),
    "cone_add": (lambda m, t: gm.cone_add(*m), 2, False, False),
    "cone_scalar": (lambda m, t: gm.cone_scalar(t, *m), 1, True, False),
    "cone_neg": (lambda m, t: gm.cone_neg(*m), 1, False, False),
    "gyration_unitary": (lambda m, t: gm.gyration_unitary(*m), 2, False, False),
    "gyration": (lambda m, t: gm.gyration(*m), 3, False, False),
    "cooperation": (lambda m, t: gm.cooperation(*m), 2, False, False),
    "gyroline": (lambda m, t: gm.gyroline(t, *m), 2, True, False),
    "cogyroline": (lambda m, t: gm.cogyroline(t, *m), 2, True, False),
    "dens_add": (lambda m, t: gm.dens_add(*m), 2, False, True),
    "dens_scalar": (lambda m, t: gm.dens_scalar(t, *m), 1, True, True),
    "dens_neg": (lambda m, t: gm.dens_neg(*m), 1, False, True),
    "dens_gyration": (lambda m, t: gd.dens_gyration(*m), 3, False, True),
    "dens_gyroline": (lambda m, t: gm.dens_gyroline(t, *m), 2, True, True),
    "dens_cogyroline": (lambda m, t: gm.dens_cogyroline(t, *m), 2, True, True),
    "powm": (lambda m, t: gm.powm(*m, t), 1, True, False),
    "sqrtm": (lambda m, t: gm.sqrtm(*m), 1, False, False),
    "invm": (lambda m, t: gm.invm(*m), 1, False, False),
    "logm": (lambda m, t: gm.logm(*m), 1, False, False),
    "expm": (lambda m, t: gm.expm(*m), 1, False, False),
    "min_eig": (lambda m, t: gm.min_eig(*m), 1, False, False),
    "reconstruct": (lambda m, t: gm.eigh(*m).reconstruct(), 1, False, False),
    "polar_unitary": (lambda m, t: gm.polar_unitary(m[0] @ m[1]), 2, False, False),
    "equivalence_statements": (
        lambda m, t: np.stack(gm.equivalence_statements(*m), axis=-1), 2, False, False),
}


def _operands(count, dim, density, shape=(ITEMS,), seed=0):
    rng = substream(7, "stacks", dim, seed)
    size = int(np.prod(shape))
    mats = [np.array([gen_spread_pd(rng, dim, 1.2) for _ in range(size)])
            .reshape(*shape, dim, dim) for _ in range(count)]
    return [_dens(m) for m in mats] if density else mats


def _weights(shape):
    return np.linspace(-0.4, 1.3, int(np.prod(shape))).reshape(shape)


def _assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    if want.dtype == bool:
        assert np.array_equal(got, want)
        return
    floor = 1e-12 * max(1.0, float(np.max(np.abs(want))))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=floor)


def _per_item(call, operands, t):
    """The single calls, one per item, stacked in the items' leading shape."""
    lead = operands[0].shape[:-2]
    out = []
    for idx in np.ndindex(*lead):
        ti = t[idx] if isinstance(t, np.ndarray) else t
        out.append(np.asarray(call([m[idx] for m in operands], ti)))
    return np.array(out).reshape(lead + out[0].shape)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("name", list(OPS))
def test_a_stack_gives_what_single_calls_give(name, dim):
    call, count, takes_t, density = OPS[name]
    operands = _operands(count, dim, density)
    for t in ([0.3, _weights((ITEMS,))] if takes_t else [0.3]):
        _assert_close(np.asarray(call(operands, t)), _per_item(call, operands, t))


@pytest.mark.parametrize("name", list(OPS))
def test_a_stack_keeps_its_leading_shape(name):
    call, count, takes_t, density = OPS[name]
    operands = _operands(count, 3, density, shape=(2, 3))
    t = _weights((2, 3)) if takes_t else 0.3
    got = np.asarray(call(operands, t))
    assert got.shape[:2] == (2, 3)
    _assert_close(got, _per_item(call, operands, t))


BAD_ITEMS = {
    "indefinite": np.diag([1.0, -0.5, 0.5]),
    "not-hermitian": np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    "nan-entry": np.diag([np.nan, 1.0, 1.0]),
}


# the bad items an operation accepts, since they are valid input to it: a
# Hermitian function needs no definiteness, and polar_unitary takes any
# nonsingular matrix; every other bad item must raise
ACCEPTED = {
    "expm": {"indefinite"},
    "min_eig": {"indefinite"},
    "reconstruct": {"indefinite"},
    "polar_unitary": {"indefinite", "not-hermitian"},
}


def _bad_cases():
    for name, (_, count, _, _) in OPS.items():
        for case in BAD_ITEMS:
            for pos in range(count):
                yield pytest.param(name, case, pos, id=f"{name}-{case}-operand{pos}")


@pytest.mark.parametrize("name, case, pos", list(_bad_cases()))
def test_one_bad_item_raises_the_single_calls_error(name, case, pos):
    call, count, takes_t, density = OPS[name]
    operands = _operands(count, 3, density)
    bad = BAD_ITEMS[case] / 3.0 if density else BAD_ITEMS[case]
    operands[pos][4] = bad
    t = _weights((ITEMS,)) if takes_t else 0.3
    try:
        call([m[4] for m in operands], t[4] if takes_t else t)
    except errors.GyromeanError as exc:
        with pytest.raises(type(exc)):
            call(operands, t)
    else:
        assert case in ACCEPTED.get(name, ()), "the single call accepts a bad operand"
        call(operands, t)


def test_per_item_weights_are_checked():
    A, B = _operands(2, 3, False)
    with pytest.raises(errors.DimensionMismatch):
        gm.geo_mean(A, B, np.full(ITEMS + 1, 0.5))
    t = _weights((ITEMS,))
    t[4] = np.nan
    with pytest.raises(errors.WeightOutOfRange, match=r"item \(4,\)"):
        gm.geo_mean(A, B, t)


def test_operands_of_different_stack_shapes_are_refused():
    A, B = _operands(2, 3, False)
    with pytest.raises(errors.DimensionMismatch):
        gm.geo_mean(A, B[:4])
    with pytest.raises(errors.DimensionMismatch):
        gm.geo_mean(A, hermitian_part(B[0]))


# case -> (check(operands, x) with x in (0, 1] per item, operand count)
CHECKS = {
    "loewner_heinz": (lambda m, x: gm.order.check_loewner_heinz(*m), 3),
    "furuta": (lambda m, x: gm.order.check_furuta(m[0], m[1], 1 + 2 * x), 2),
    "ando_hiai": (lambda m, x: gm.order.check_ando_hiai(m[0], m[1], 1 + 2 * x), 2),
    "main_spectral_AH": (
        lambda m, x: gm.order.check_main_spectral_AH(m[0], m[1], x, 1 + 2 * x), 2),
    "power_chain": (lambda m, x: gm.order.check_power_chain(
        m[0], m[1], np.where(x > 0.5, 2.0, 3 * x)), 2),
    "equivalence_five": (lambda m, x: gm.order.check_equivalence_five(*m), 2),
    "contraction": (lambda m, x: gm.order.check_contraction(*m), 2),
    "bounds_spectral": (lambda m, x: gm.order.check_bounds_spectral(m[0], m[1], x), 2),
    "log_sum_condition": (lambda m, x: gm.order.check_log_sum_condition(*m), 2),
    "d_le_delta": (lambda m, x: gm.order.check_d_le_delta(*m), 2),
    "logmaj_mean": (lambda m, x: gm.order.check_logmaj_mean(m[0], m[1], x), 2),
}


@pytest.mark.parametrize("dim", (2, 4))
@pytest.mark.parametrize("case", list(CHECKS))
def test_a_stacked_check_gives_what_single_checks_give(case, dim):
    check, count = CHECKS[case]
    operands = _operands(count, dim, False, seed=1)
    # scaling the first two operands makes some premises hold and others fail
    for k in (0, 1):
        operands[k] = operands[k] * np.geomspace(0.01, 3.0, ITEMS)[:, None, None]
    x = np.linspace(0.15, 1.0, ITEMS)
    res = check(operands, x)
    singles = [check([m[i] for m in operands], x[i]) for i in range(ITEMS)]
    _assert_close(np.broadcast_to(res.margin, (ITEMS,)), [r.margin for r in singles])
    for field in ("premise_held", "conclusion_held"):
        assert np.array_equal(np.broadcast_to(getattr(res, field), (ITEMS,)),
                              [getattr(r, field) for r in singles]), field
