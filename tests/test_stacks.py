"""The stack contract: an operation on a stack (..., n, n) acts item by item.

A stack of k operand sets gives what k single calls give (to rtol 1e-12;
at n >= 3 only a single matrix's decomposition fixes eigenvector phases, so
the last bits may differ), keeps its leading shape, and a stack with one bad item
raises the named error the single call on that item raises.  The samplers
keep the same contract for a stack of generators, one per item
(``PerItemStack``): each item is what the single call on that item's
generator draws.  The library's ``GeneratorStack`` draws all items' values as
one block from one generator.
"""

import numpy as np
import pytest

import gyromean as gm
from gyromean import errors
from gyromean import gyrodensity as gd
from gyromean.kernel import hermitian_part
from gyromean import randgen as rg
from gyromean.randgen import GeneratorStack, gen_spread_pd, substream
from per_item_stack import PerItemStack
from triple_stacks import triple_stacks

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
    # the message reads as the single call's, behind the item's prefix
    with pytest.raises(errors.WeightOutOfRange,
                       match=r"^item \(4,\): curve parameter nan is not finite$"):
        gm.geo_mean(A, B, t)
    t[4] = 0.0
    with pytest.raises(errors.WeightOutOfRange,
                       match=r"^item \(4,\): no left inverse at t = 0$"):
        gm.mean_left_inverse("metric", A, B, t)


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


@pytest.mark.parametrize("log_scale", [False, True])
@pytest.mark.parametrize("shape", [(ITEMS,), (2, 3)], ids=["flat", "2x3"])
def test_weak_majorize_on_a_stack_gives_what_single_calls_give(shape, log_scale):
    rng = np.random.default_rng(17)
    x = -np.sort(-rng.uniform(0.1, 2.0, (*shape, 4)), axis=-1)
    y = -np.sort(-x * rng.uniform(0.6, 1.6, (*shape, 4)), axis=-1)
    y[(0,) * len(shape)] = x[(0,) * len(shape)]  # one majorization proper
    dom, tot = gm.weak_majorize(x, y, log_scale=log_scale)
    singles = [gm.weak_majorize(a, b, log_scale=log_scale)
               for a, b in zip(x.reshape(-1, 4), y.reshape(-1, 4))]
    assert dom.shape == tot.shape == shape
    assert dom.ravel().tolist() == [d for d, _ in singles]
    assert tot.ravel().tolist() == [t for _, t in singles]
    assert dom.any() and not dom.all() and tot.any()


def test_one_bad_vector_pair_raises_the_single_calls_error():
    x = np.tile([3.0, 2.0, 1.0], (ITEMS, 1))
    unsorted, negative = x.copy(), x.copy()
    unsorted[4] = [1.0, 2.0, 3.0]
    negative[4, -1] = -1.0
    with pytest.raises(ValueError, match=r"item \(4,\)"):
        gm.weak_majorize(x, unsorted)
    with pytest.raises(errors.NonPositiveEntry, match=r"item \(4,\)"):
        gm.weak_majorize(negative, x, log_scale=True)
    with pytest.raises(errors.LengthMismatch):
        gm.weak_majorize(x, x[:, :2])


# sampler -> (call(rng, n, t), bit for bit); t is one curve parameter per item
SAMPLERS = {
    "complex_gaussian": (lambda rng, n, t: rg.complex_gaussian(rng, (n, n)), True),
    "gen_random_pd": (lambda rng, n, t: rg.gen_random_pd(rng, n), True),
    "gen_random_pd-unit_det": (lambda rng, n, t: rg.gen_random_pd(rng, n, unit_det=True),
                               True),
    "gen_random_pd-cap": (lambda rng, n, t: rg.gen_random_pd(rng, n, cond_cap=1.5), True),
    "gen_random_hermitian": (lambda rng, n, t: rg.gen_random_hermitian(rng, n), True),
    "gen_random_unitary": (lambda rng, n, t: rg.gen_random_unitary(rng, n), True),
    "gen_commuting_pair": (lambda rng, n, t: rg.gen_commuting_pair(rng, n), True),
    "gen_spread_pd": (lambda rng, n, t: rg.gen_spread_pd(rng, n, 1.5), True),
    "gen_density": (lambda rng, n, t: rg.gen_density(rng, n), True),
    "gen_ball_vector": (lambda rng, n, t: rg.gen_ball_vector(rng, n), True),
    "gen_dominated_pair": (lambda rng, n, t: rg.gen_dominated_pair(rng, n), False),
    "gen_sharp_contracted_pair": (lambda rng, n, t: rg.gen_sharp_contracted_pair(rng, n),
                                  False),
    "gen_contraction_for": (
        lambda rng, n, t: rg.gen_contraction_for(rng, rg.gen_random_pd(rng, n)), False),
    "gen_spectral_premise_pair": (
        lambda rng, n, t: rg.gen_spectral_premise_pair(rng, n, t), False),
    "gen_log_sum_pair": (lambda rng, n, t: rg.gen_log_sum_pair(rng, n), False),
    "gen_psd_block_triple": (lambda rng, n, t: rg.gen_psd_block_triple(rng, n), False),
}


def _generators(name, n, k=5):
    return [substream(17, "sampler-stacks", name, n, j) for j in range(k)]


def _fields(out):
    return out if isinstance(out, tuple) else (out,)


def _assert_items(stacked, singles, exact):
    """Each stacked field, item by item, against the single calls' fields."""
    stacked = _fields(stacked)
    singles = [_fields(out) for out in singles]
    assert len(stacked) == len(singles[0])
    for field, items in zip(stacked, zip(*singles)):
        want = np.array(items)
        assert field.shape == want.shape
        if exact:
            assert np.array_equal(field, want)
        else:
            floor = 1e-13 * max(1.0, float(np.max(np.abs(want))))
            np.testing.assert_allclose(field, want, rtol=1e-13, atol=floor)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("name", list(SAMPLERS))
def test_a_generator_stack_draws_what_each_generator_draws(name, n):
    call, exact = SAMPLERS[name]
    t = np.array([0.1, 0.25, 0.5, 0.75, 0.9])
    gens = _generators(name, n)
    singles = [call(g, n, t[j]) for j, g in enumerate(gens)]
    stack = PerItemStack(_generators(name, n))
    _assert_items(call(stack, n, t), singles, exact)
    # each generator is left where the single call leaves it
    assert np.array_equal(stack.standard_normal(3), [g.standard_normal(3) for g in gens])


def test_a_generator_stack_draws_one_block_per_call():
    stack = GeneratorStack(substream(17, "library-stack"), 5)
    g = substream(17, "library-stack")
    for size in (None, 3, (2, 4)):
        shape = (5,) if size is None else (5, *np.atleast_1d(size))
        assert np.array_equal(stack.standard_normal(size), g.standard_normal(shape))
        assert np.array_equal(stack.uniform(-1.0, 2.0, size), g.uniform(-1.0, 2.0, shape))


def _kappa(A):
    w = np.linalg.eigvalsh(A)
    return w[..., -1] / w[..., 0]


@pytest.mark.parametrize("n", range(2, 9))
def test_gen_random_pd_meets_every_cap_by_construction(n):
    caps = (1.0001, 1.5, 2.0, 10.0, 50.0, 80.0, 1e3, 1000.0 * n + 1, 1e4, np.inf)
    for cap in caps:
        g = substream(17, "cap", n, cap)
        singles = [rg.gen_random_pd(g, n, cond_cap=cap) for _ in range(20)]
        stack = rg.gen_random_pd(GeneratorStack(substream(17, "cap-stack", n, cap), 500), n,
                                 cond_cap=cap)
        for kappa in (_kappa(np.array(singles)), _kappa(stack)):
            assert np.all((kappa >= 1.0) & (kappa <= cap)), (cap, kappa.max())


@pytest.mark.parametrize("n", range(2, 9))
def test_a_cap_above_the_bound_draws_the_bare_shift(n):
    # kappa(G G* + (tr(G G*)/(1000 n)) I) <= 1000 n + 1, so from there on the
    # cap does not move the shift
    for cap in ((1000 * n + 1) * (1 + 1e-9), 1e4, np.inf):
        for rng, ref in ((substream(3, "bare", n), substream(3, "bare", n)),
                         (GeneratorStack(substream(3, "bare", n), 6),
                          GeneratorStack(substream(3, "bare", n), 6))):
            G = rg.complex_gaussian(ref, (n, n))
            H = hermitian_part(G @ G.conj().mT)
            eps = 1e-3 * np.trace(H, axis1=-2, axis2=-1).real / n
            want = H + eps[..., None, None] * np.eye(n)
            assert np.array_equal(rg.gen_random_pd(rng, n, cond_cap=cap), want)
            # the draw after it continues the same generator
            assert np.array_equal(rng.standard_normal(3), ref.standard_normal(3))


# The ball and the 2x2 closed forms keep the same contract over vector stacks
# (..., 3) and 2x2 stacks (..., 2, 2).  Operand kinds: a ball vector, a
# unit-determinant 2x2 PD matrix, a 2x2 PD matrix, a 2x2 density matrix, a
# complex 2x2 matrix and a positive scalar.
def _vector_items(kind, rng):
    if kind == "ball":
        return rg.gen_ball_vector(rng)
    if kind == "unit-det":
        return rg.gen_random_pd(rng, 2, unit_det=True)
    if kind == "pd":
        return rg.gen_random_pd(rng, 2)
    if kind == "density":
        return _dens(rg.gen_random_pd(rng, 2))
    if kind == "matrix":
        return rg.complex_gaussian(rng, (2, 2))
    return float(np.exp(rng.uniform(-3.0, 3.0)))  # "positive"


# name -> (call(operands, t), operand kinds, takes t, bit for bit); the bit
# for bit ones use only + - * / and sqrt, which numpy rounds alike for a stack
# and for one item, while its vector loops of tanh, arctanh and powers may
# differ from the one-item loops in the last bit
BALL_OPS = {
    "require_in_ball": (lambda m, t: gm.ball.require_in_ball(*m), ("ball",), False, True),
    "gamma_factor": (lambda m, t: gm.gamma_factor(*m), ("ball",), False, True),
    "einstein_add": (lambda m, t: gm.einstein_add(*m), ("ball",) * 2, False, True),
    "mobius_add": (lambda m, t: gm.mobius_add(*m), ("ball",) * 2, False, True),
    "ball_scalar": (lambda m, t: gm.ball_scalar(t, *m), ("ball",), True, False),
    "einstein_gyration": (lambda m, t: gm.ball.einstein_gyration(*m), ("ball",) * 3, False,
                          True),
    "mobius_gyration": (lambda m, t: gm.ball.mobius_gyration(*m), ("ball",) * 3, False, True),
    "einstein_coaddition": (lambda m, t: gm.ball.einstein_coaddition(*m), ("ball",) * 2,
                            False, True),
    "rapidity_distance": (lambda m, t: gm.rapidity_distance(*m), ("ball",) * 2, False, False),
    "gyromidpoint": (lambda m, t: gm.gyromidpoint(*m), ("ball",) * 2, False, True),
    "bloch_to_density": (lambda m, t: gm.bloch_to_density(*m), ("ball",), False, True),
    "density_to_bloch": (lambda m, t: gm.density_to_bloch(*m), ("density",), False, True),
    "l_map": (lambda m, t: gm.closedform2x2.l_map(t, *m), ("positive",), True, False),
    "det2": (lambda m, t: gm.closedform2x2.det2(*m), ("matrix",), False, True),
    "det_shift_identity": (lambda m, t: gm.closedform2x2.det_shift_identity(t, *m),
                           ("matrix",), True, True),
    "relative_eigenvalue": (lambda m, t: gm.closedform2x2.relative_eigenvalue(*m),
                            ("pd",) * 2, False, False),
    "gm2_det1": (lambda m, t: gm.gm2_det1(*m, t), ("unit-det",) * 2, True, False),
    "sgm2": (lambda m, t: gm.sgm2(*m, t), ("pd",) * 2, True, False),
    "sgm2-unit-det": (lambda m, t: gm.sgm2(*m, t), ("unit-det",) * 2, True, False),
    "norm_product_check": (lambda m, t: gm.closedform2x2.norm_product_check(*m),
                           ("unit-det",) * 2, False, False),
    "midpoint_vector_check": (lambda m, t: gm.closedform2x2.midpoint_vector_check(*m),
                              ("ball",) * 2, False, True),
    "qubit_mean_eigenvalues": (
        lambda m, t: np.stack(gm.closedform2x2.qubit_mean_eigenvalues(*m), axis=-1),
        ("ball",) * 2, False, True),
    "qubit_geo_mean": (lambda m, t: gm.qubit_geo_mean(*m, t), ("ball",) * 2, True, False),
    "qubit_spectral_mean": (lambda m, t: gm.qubit_spectral_mean(*m, t), ("ball",) * 2, True,
                            False),
}


def _vector_operands(kinds, shape=(ITEMS,)):
    rng = substream(7, "vector-stacks", *kinds)
    size = int(np.prod(shape))
    out = []
    for kind in kinds:
        items = np.array([_vector_items(kind, rng) for _ in range(size)])
        out.append(items.reshape(shape + items.shape[1:]))
    return out


def _vector_per_item(call, operands, t, lead):
    """The single calls, one per item of the leading shape ``lead``."""
    out = [np.asarray(call([m[idx] for m in operands],
                           t[idx] if isinstance(t, np.ndarray) else t))
           for idx in np.ndindex(*lead)]
    return np.array(out).reshape(lead + out[0].shape)


@pytest.mark.parametrize("shape", [(ITEMS,), (2, 3)], ids=["flat", "2x3"])
@pytest.mark.parametrize("name", list(BALL_OPS))
def test_a_vector_or_2x2_stack_gives_what_single_calls_give(name, shape):
    call, kinds, takes_t, exact = BALL_OPS[name]
    operands = _vector_operands(kinds, shape)
    for t in ([0.3, _weights(shape)] if takes_t else [0.3]):
        got = np.asarray(call(operands, t))
        want = _vector_per_item(call, operands, t, shape)
        if exact:
            assert got.shape == want.shape
            assert np.array_equal(got, want)
        else:
            _assert_close(got, want)


# case -> the bad item for each operand kind it applies to; a determinant
# other than 1 is bad only for the operations that require unit determinants
BAD_VECTOR_ITEMS = {
    "nan-entry": {"ball": np.array([np.nan, 0.0, 0.0]),
                  "unit-det": np.array([[np.nan, 0.0], [0.0, 1.0]]),
                  "pd": np.array([[np.nan, 0.0], [0.0, 1.0]]),
                  "density": np.array([[np.nan, 0.0], [0.0, 0.5]])},
    "on-the-sphere": {"ball": np.array([0.6, 0.8 - 1e-13, 0.0])},
    "unit-det-missed": {"unit-det": 2.0 * np.eye(2)},
    "non-positive": {"positive": -1.0},
}
UNIT_DET_OPS = ("gm2_det1", "norm_product_check")


def _bad_vector_cases():
    for name, (_, kinds, takes_t, _) in BALL_OPS.items():
        for case, items in BAD_VECTOR_ITEMS.items():
            if case == "unit-det-missed" and name not in UNIT_DET_OPS:
                continue
            for pos, kind in enumerate(kinds):
                if kind in items:
                    yield pytest.param(name, case, pos, id=f"{name}-{case}-operand{pos}")
        if takes_t:
            yield pytest.param(name, "nan-weight", None, id=f"{name}-nan-weight")


@pytest.mark.parametrize("name, case, pos", list(_bad_vector_cases()))
def test_one_bad_vector_or_2x2_item_raises_the_single_calls_error(name, case, pos):
    call, kinds, takes_t, _ = BALL_OPS[name]
    operands = _vector_operands(kinds)
    t = _weights((ITEMS,))
    if case == "nan-weight":
        t[4] = np.nan
    else:
        operands[pos][4] = BAD_VECTOR_ITEMS[case][kinds[pos]]
    if not takes_t:
        t = 0.3
    try:
        call([m[4] for m in operands], t[4] if takes_t else t)
    except errors.GyromeanError as exc:
        with pytest.raises(type(exc), match=r"item \(4,\)"):
            call(operands, t)
    else:
        # det_shift_identity takes any c and l_map any t; every other bad
        # item must raise
        assert (name, case) in (("det_shift_identity", "nan-weight"),
                                ("l_map", "nan-weight")), "the single call accepts it"
        call(operands, t)


def _rowwise(op):
    """A one-vector operation mapped over the rows of stacked arguments."""
    return lambda *stacks: np.array([op(*row) for row in zip(*stacks)])


@pytest.mark.parametrize("name", ["einstein", "mobius"])
def test_the_stacked_ball_suites_give_the_per_triple_residuals(name):
    rng = substream(7, "ball-suite", name)
    a, b, c = triple_stacks(rg.gen_ball_vector(rng) for _ in range(3 * 40))
    stacked = gm.ball.ball_model(name)
    # the same model, evaluated one triple at a time with single-vector calls;
    # the suite cycles the same scalars over the triples in both
    per_triple = gm.gyroaxioms.GyroModel(
        identity=stacked.identity, add=_rowwise(stacked.add), neg=stacked.neg,
        scalar=lambda t, a: _rowwise(gm.ball_scalar)(np.broadcast_to(t, len(a)), a),
        gyr=_rowwise(stacked.gyr),
        residual=_rowwise(lambda x, y: float(np.linalg.norm(x - y))))
    got = gm.gyroaxioms.run_axiom_suite(stacked, a, b, c)
    want = gm.gyroaxioms.run_axiom_suite(per_triple, a, b, c)
    assert list(got) == list(want)
    np.testing.assert_allclose(list(got.values()), list(want.values()), rtol=1e-12, atol=1e-17)
