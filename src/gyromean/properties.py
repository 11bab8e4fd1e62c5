"""The randomized property campaign.

Every runner draws its inputs from per-(property, trial) substreams, records
the worst violation it sees, and leaves pass/fail policy to the registry.
Matrix-dimension coverage: properties cycle through ``config.dims`` across
trials, except the defining-equation residual properties, which run the full
trial count at every dimension.

Most runners draw every trial in turn, stack the draws by dimension
(``_stacks``) and evaluate each stack once, with per-trial scalars as arrays;
a stacked residual is the max over its stack.  Since the draws come from the
per-trial substreams, the stacking changes no input.
"""

from __future__ import annotations

import numpy as np

from . import ball as bl
from . import closedform2x2 as cf
from . import gyrocone as gc
from . import gyrodensity as gd
from .fixtures import contraction_converse_witness, triangle_measurements
from .gyroaxioms import run_axiom_suite
from .kernel import (
    _frobenius,
    _trace,
    hermitian_part,
    invm,
    logm,
    min_eig,
    powm,
    sqrtm,
)
from .means import (
    block_psd_margin,
    geo_mean,
    karcher_residual,
    mean,
    mean_left_inverse,
    riccati_residual,
    spectral_defining_residual,
    spectral_mean,
)
from .metrics import distance, midpoint_deviation, sup_ratio
from .order import (
    check_ando_hiai,
    check_bounds_spectral,
    check_contraction,
    check_d_le_delta,
    check_furuta,
    check_loewner_heinz,
    check_log_sum_condition,
    check_logmaj_mean,
    check_main_spectral_AH,
    check_power_chain,
    equivalence_statements,
    weak_majorize,
)
from .randgen import (
    complex_gaussian,
    gen_ball_vector,
    gen_commuting_pair,
    gen_contraction_for,
    gen_density,
    gen_dominated_pair,
    gen_log_sum_pair,
    gen_psd_block_triple,
    gen_random_hermitian,
    gen_random_pd,
    gen_random_unitary,
    gen_sharp_contracted_pair,
    gen_spectral_premise_pair,
    gen_spread_pd,
    substream,
)
from .registry import prop


def _cycle(seq, i):
    return seq[i % len(seq)]


def _top(x) -> float:
    """The largest of one or more per-trial values."""
    return float(np.max(x))


def _shortfall(x) -> float:
    """How far the smallest of any number of per-trial margins falls below zero."""
    return max(0.0, -float(np.min(x, initial=np.inf)))


def _premise_held(res) -> tuple[int, float]:
    """Premise-held count of a stacked check, and the worst shortfall among those."""
    held = np.broadcast_to(res.premise_held, np.shape(res.margin))
    return int(held.sum()), _shortfall(np.asarray(res.margin)[held])


def _relerr(X: np.ndarray, Y: np.ndarray) -> float:
    """Worst relative Frobenius error over a matrix or a stack of them."""
    return _top(_frobenius(X - Y) / np.maximum(1.0, _frobenius(Y)))


def _flag(ok, threshold: float) -> float:
    """Boolean sub-check (all per-trial flags must hold) encoded as a violation value."""
    return 0.0 if np.all(ok) else 2.0 * threshold


def _stacks(draws):
    """Stack per-trial draws by matrix dimension.

    ``draws`` yields one tuple per trial whose first entry is a matrix.  Each
    yielded tuple holds the same fields over one dimension's trials, in trial
    order: matrices as (k, d, d) stacks, scalars as (k,) arrays.
    """
    groups = {}
    for draw in draws:
        groups.setdefault(np.shape(draw[0]), []).append(draw)
    for members in groups.values():
        yield tuple(np.array(field) for field in zip(*members))


def _per(x) -> np.ndarray:
    """Per-trial scalars as factors of a matrix stack."""
    return np.asarray(x)[..., None, None]


def _ct(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return M.conj().mT


def _eye_like(M: np.ndarray) -> np.ndarray:
    return np.broadcast_to(np.eye(M.shape[-1]), M.shape)


def _pd_pair(config, pid, i, dim=None, unit_det=False):
    rng = substream(config.seed, pid, i)
    d = dim if dim is not None else _cycle(config.dims, i)
    A = gen_random_pd(rng, d, config.cond_cap, unit_det)
    B = gen_random_pd(rng, d, config.cond_cap, unit_det)
    return rng, d, A, B


# --------------------------------------------------------------------------
# weighted geometric mean
# --------------------------------------------------------------------------

@prop("geodesic-curve-identities", "geodesic-curve")
def _geo_identities(config):
    pid, thr = "geodesic-curve-identities", 1e-9

    def draw(i):
        rng, d, A, B = _pd_pair(config, pid, i)
        a, b = rng.uniform(0.2, 3.0, 2)
        U = gen_random_unitary(rng, d)
        return (A, B, _cycle(config.t_grid, i), a, b, U, *gen_commuting_pair(rng, d))

    worst = 0.0
    for A, B, t, a, b, U, Ac, Bc in _stacks(map(draw, range(config.trials))):
        G = geo_mean(A, B, t)
        worst = max(
            worst,
            _relerr(geo_mean(A, B, 0.0), A),
            _relerr(geo_mean(A, B, 1.0), B),
            _flag(min_eig(G) > 0, thr),
            _relerr(G, geo_mean(B, A, 1.0 - t)),
            _relerr(geo_mean(_per(a) * A, _per(b) * B, t),
                    _per(a ** (1 - t) * b ** t) * G),
            _relerr(geo_mean(_ct(U) @ A @ U, _ct(U) @ B @ U, t), _ct(U) @ G @ U),
            _relerr(geo_mean(Ac, Bc, t), powm(Ac, 1 - t) @ powm(Bc, t)),
        )
    return config.trials, config.trials, worst, thr, ""


@prop("riccati-residual", "riccati-equation")
def _riccati(config):
    pid, thr = "riccati-residual", 1e-9
    worst, n = 0.0, 0
    for d in config.dims:
        pairs = (_pd_pair(config, pid, i, dim=d)[2:] for i in range(config.trials))
        for A, B in _stacks(pairs):
            X = geo_mean(A, B, 0.5)
            worst = max(worst, _top(riccati_residual(A, B, X)
                                    / np.maximum(1.0, _frobenius(B))))
            n += len(A)
    return n, n, worst, thr, "relative Frobenius residual"


@prop("karcher-residual", "karcher-equation")
def _karcher(config):
    pid, thr = "karcher-residual", 1e-9
    grid = [t for t in config.t_grid if 0.0 <= t <= 1.0]
    draws = (_pd_pair(config, pid, i)[2:] + (_cycle(grid, i),)
             for i in range(config.trials))
    worst = 0.0
    for A, B, t in _stacks(draws):
        worst = max(worst, _top(karcher_residual(A, B, t, geo_mean(A, B, t))))
    return config.trials, config.trials, worst, thr, ""


@prop("block-psd-maximality", "geometric-mean-block-characterization")
def _block_max(config):
    pid, thr = "block-psd-maximality", 1e-9
    worst = _flag(block_psd_margin(np.eye(2), np.eye(2), 2 * np.eye(2)) < 0, thr)
    for i in range(config.trials):
        _, _, A, B = _pd_pair(config, pid, i)
        margin = block_psd_margin(A, B, geo_mean(A, B, 0.5))
        worst = max(worst, max(0.0, -margin))
        # strictly inflating the maximizer must leave the block cone
        worst = max(worst, _flag(
            block_psd_margin(A, B, 1.01 * geo_mean(A, B, 0.5)) < 0, thr))
    return config.trials, config.trials, worst, thr, ""


@prop("mean-bijection-roundtrip", "mean-bijection")
def _bijection(config):
    # C is produced forward from a moderate X, so the 1/t-power inversion
    # stays inside the well-conditioned regime for every grid value of t
    pid, thr = "mean-bijection-roundtrip", 1e-8
    grid = [t for t in config.t_grid if t > 0]
    draws = (_pd_pair(config, pid, i)[2:] + (_cycle(grid, i),)
             for i in range(config.trials))
    worst = 0.0
    for A, X, t in _stacks(draws):
        for kind in ("metric", "spectral"):
            C = mean(kind, A, X, t)
            recovered = mean_left_inverse(kind, A, C, t)
            worst = max(worst, _relerr(recovered, X),
                        _relerr(mean(kind, A, recovered, t), C))
    return config.trials, config.trials, worst, thr, ""


# --------------------------------------------------------------------------
# weighted spectral mean
# --------------------------------------------------------------------------

@prop("spectral-curve-identities", "spectral-curve")
def _spectral_identities(config):
    pid, thr = "spectral-curve-identities", 1e-9

    def draw(i):
        rng, d, A, B = _pd_pair(config, pid, i)
        return (A, B, _cycle(config.t_grid, i), *gen_commuting_pair(rng, d))

    worst = 0.0
    for A, B, t, Ac, Bc in _stacks(map(draw, range(config.trials))):
        # eigenvalues of the t=1/2 mean are the square roots of those of A B
        ev = np.linalg.eigvalsh(spectral_mean(A, B, 0.5))
        ev_ab = np.sqrt(np.sort(np.linalg.eigvals(A @ B).real, axis=-1))
        worst = max(
            worst,
            _relerr(spectral_mean(A, B, 0.0), A),
            _relerr(spectral_mean(A, B, 1.0), B),
            _flag(min_eig(spectral_mean(A, B, t)) > 0, thr),
            _relerr(spectral_mean(Ac, Bc, t), powm(Ac, 1 - t) @ powm(Bc, t)),
            _top(np.max(np.abs(ev - ev_ab), axis=-1) / np.maximum(1.0, ev_ab[..., -1])),
        )
    # the two means genuinely differ away from commutativity
    A = np.diag([4.0, 1.0]).astype(complex)
    B = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    differ = np.linalg.norm(geo_mean(A, B, 0.5) - spectral_mean(A, B, 0.5)) > 1e-3
    worst = max(worst, _flag(differ, thr))
    return config.trials, config.trials, worst, thr, ""


@prop("spectral-defining-residual", "spectral-defining-equation")
def _spectral_defining(config):
    pid, thr = "spectral-defining-residual", 1e-9
    worst, n = 0.0, 0
    for d in config.dims:
        draws = (_pd_pair(config, pid, i, dim=d)[2:] + (_cycle((0.25, 0.5, 0.75), i),)
                 for i in range(config.trials))
        for A, B, t in _stacks(draws):
            X = spectral_mean(A, B, t)
            worst = max(worst, _top(spectral_defining_residual(A, B, t, X)))
            n += len(A)
    return n, n, worst, thr, ""


@prop("spectral-mean-algebra", "spectral-mean-algebra")
def _spectral_algebra(config):
    pid, thr = "spectral-mean-algebra", 1e-9

    def draw(i):
        rng, d, A, B = _pd_pair(config, pid, i)
        a, b = rng.uniform(0.2, 3.0, 2)
        U = gen_random_unitary(rng, d)
        return (A, B, _cycle(config.t_grid, i), a, b, U, *rng.uniform(0.0, 1.0, 3))

    worst = 0.0
    for A, B, t, a, b, U, s, tt, u in _stacks(map(draw, range(config.trials))):
        S = spectral_mean(A, B, t)
        worst = max(
            worst,
            _relerr(spectral_mean(_per(a) * A, _per(b) * B, t),
                    _per(a ** (1 - t) * b ** t) * S),
            _relerr(spectral_mean(_ct(U) @ A @ U, _ct(U) @ B @ U, t), _ct(U) @ S @ U),
            _relerr(spectral_mean(B, A, 1.0 - t), S),
            _relerr(spectral_mean(invm(A), invm(B), t), invm(S)),
            _relerr(spectral_mean(spectral_mean(A, B, s), spectral_mean(A, B, u), tt),
                    spectral_mean(A, B, (1 - tt) * s + tt * u)),
        )
    return config.trials, config.trials, worst, thr, ""


@prop("spectral-mean-bounds", "spectral-mean-bounds")
def _spectral_bounds(config):
    pid, thr = "spectral-mean-bounds", 1e-8
    draws = (_pd_pair(config, pid, i)[2:] + (_cycle((0.25, 0.5, 0.75), i),)
             for i in range(config.trials))
    worst = 0.0
    for A, B, t in _stacks(draws):
        res = check_bounds_spectral(A, B, t, tol=config.tolerances)
        worst = max(worst, _shortfall(res.margin))
    return config.trials, config.trials, worst, thr, ""


# --------------------------------------------------------------------------
# semi-metric
# --------------------------------------------------------------------------

@prop("semimetric-axioms", "semimetric-axioms")
def _semimetric_axioms(config):
    pid, thr = "semimetric-axioms", 1e-8

    def draw(i):
        rng, d, A, B = _pd_pair(config, pid, i)
        return A, B, gen_random_hermitian(rng, d)

    worst = 0.0
    for A, B, H in _stacks(map(draw, range(config.trials))):
        dv = distance("semimetric_op", A, B)
        # identity of indiscernibles, probed at an adversarial near-equal pair
        B2 = A + 1e-6 * H / _per(_frobenius(H))
        worst = max(
            worst,
            _flag(dv >= 0, thr),
            _top(abs(dv - distance("semimetric_op", B, A))),
            _top(distance("semimetric_op", A, A.copy())),
            _flag(distance("semimetric_op", A, B2) > 1e-10, thr),
        )
    return config.trials, config.trials, worst, thr, ""


@prop("semimetric-invariance", "semimetric-invariance")
def _semimetric_invariance(config):
    pid, thr = "semimetric-invariance", 1e-8

    def draw(i):
        rng, d, A, B = _pd_pair(config, pid, i)
        alpha = float(rng.uniform(0.2, 5.0))
        U = gen_random_unitary(rng, d)
        Ac, Bc = gen_commuting_pair(rng, d)
        return A, B, alpha, U, Ac, Bc, float(rng.uniform(-2.0, 2.0))

    def dist(X, Y):
        return distance("semimetric_op", X, Y)

    worst = 0.0
    for A, B, alpha, U, Ac, Bc, t in _stacks(map(draw, range(config.trials))):
        dv = dist(A, B)
        worst = max(
            worst,
            _top(abs(dist(_per(alpha) * A, _per(alpha) * B) - dv)),
            _top(abs(dist(invm(A), invm(B)) - dv)),
            _top(abs(dist(U @ A @ _ct(U), U @ B @ _ct(U)) - dv)),
            # power scaling holds on commuting pairs
            _top(abs(dist(powm(Ac, t), powm(Bc, t)) - abs(t) * dist(Ac, Bc))),
        )
    return config.trials, config.trials, worst, thr, ""


@prop("spectral-midpoint", "spectral-midpoint")
def _spectral_midpoint(config):
    pid, thr = "spectral-midpoint", 1e-8
    draws = (_pd_pair(config, pid, i)[2:] + (_cycle(config.t_grid, i),)
             for i in range(config.trials))
    worst = 0.0
    for A, B, t in _stacks(draws):
        M = spectral_mean(A, B, 0.5)
        dv = distance("semimetric_op", A, B)
        St = spectral_mean(A, B, t)
        worst = max(
            worst,
            *map(_top, midpoint_deviation("semimetric_op", A, B, M)),
            _top(abs(distance("semimetric_op", A, St) - t * dv)),
            _top(abs(distance("semimetric_op", B, St) - (1 - t) * dv)),
        )
    return config.trials, config.trials, worst, thr, ""


@prop("riemannian-geodesic-midpoint", "geodesic-curve")
def _riemannian_midpoint(config):
    pid, thr = "riemannian-geodesic-midpoint", 1e-8
    worst = 0.0
    for A, B in _stacks(_pd_pair(config, pid, i)[2:] for i in range(config.trials)):
        worst = max(worst, *map(_top, midpoint_deviation(
            "riemannian", A, B, geo_mean(A, B, 0.5))))
    return config.trials, config.trials, worst, thr, ""


@prop("triangle-counterexample", "triangle-counterexample")
def _triangle(config):
    thr = 1e-5
    m = triangle_measurements(config.tolerances)
    worst = _flag(m["matched_variant"] is not None, thr)
    if m["matched_variant"] is not None:
        worst = max(worst, m["matched_error"])
    for kind in ("semimetric_op", "semimetric_frob"):
        worst = max(worst, _flag(m["variants"][kind]["triangle_gap"] > 0, thr))
    note = (f"matched {m['matched_variant']} at scale {m['matched_scale']}; "
            f"triangle gap (op) {m['variants']['semimetric_op']['triangle_gap']:.6f}")
    return 1, 1, worst, thr, note


@prop("semimetric-geodesic-question", "spectral-midpoint", asserted=False)
def _geodesic_question(config):
    pid = "semimetric-geodesic-question"

    def draw(i):
        rng, _, A, B = _pd_pair(config, pid, i)
        return (A, B, *rng.uniform(0.0, 1.0, 2))

    devs = []
    for A, B, s, t in _stacks(map(draw, range(config.trials))):
        lhs = distance("semimetric_op", spectral_mean(A, B, s),
                       spectral_mean(A, B, t))
        devs.append(abs(lhs - abs(s - t) * distance("semimetric_op", A, B)))
    devs = np.concatenate(devs)
    note = (f"|d(Ns,Nt) - |s-t| d| over samples: max {devs.max():.3e}, "
            f"mean {devs.mean():.3e} (open question; recorded, not asserted)")
    return config.trials, config.trials, float(devs.max()), np.inf, note


@prop("thompson-sup-ratio", "thompson-metric")
def _thompson(config):
    pid, thr = "thompson-sup-ratio", 1e-10
    worst = 0.0
    for A, B in _stacks(_pd_pair(config, pid, i)[2:] for i in range(config.trials)):
        dt = distance("thompson", A, B)
        m = np.maximum(np.log(sup_ratio(A, B)), np.log(sup_ratio(B, A)))
        worst = max(worst, _top(abs(dt - m) / np.maximum(1.0, dt)),
                    _top(abs(sup_ratio(A, A) - 1.0)))
    return config.trials, config.trials, worst, thr, ""


# --------------------------------------------------------------------------
# order inequalities
# --------------------------------------------------------------------------

def _battery_cap(config) -> float:
    # p-th powers raise conditioning to kappa**p; keep kappa**5 inside the
    # window where the 1e-8 eigenvalue slack is trustworthy
    return min(config.cond_cap, 80.0)


def _premise_battery(config, pid, make_inputs, run_check):
    """Trial count, premise-held count and worst shortfall of a conditional check.

    ``make_inputs(rng, d, i)`` draws one trial's inputs, a matrix first; the
    draws are stacked by dimension and ``run_check`` evaluates each stack once.
    """
    def draw(i):
        return make_inputs(substream(config.seed, pid, i), _cycle(config.dims, i), i)

    worst, held = 0.0, 0
    for inputs in _stacks(map(draw, range(config.trials))):
        count, shortfall = _premise_held(run_check(*inputs))
        held += count
        worst = max(worst, shortfall)
    return config.trials, held, worst


@prop("loewner-heinz", "loewner-heinz", min_premise=50)
def _loewner_heinz(config):
    pid, thr = "loewner-heinz", 1e-8
    grid = [t for t in config.t_grid if 0 < t < 1]

    def draw(i):
        rng = substream(config.seed, pid, i)
        d = _cycle(config.dims, i)
        A = gen_random_pd(rng, d, _battery_cap(config))
        G = complex_gaussian(rng, (d, d))
        B = A + hermitian_part(G @ G.conj().T)
        return A, B, gen_random_hermitian(rng, d), _cycle(grid, i)

    worst, held = 0.0, 0
    for A, B, H, s in _stacks(map(draw, range(config.trials))):
        inv_root = powm(A, -0.5)
        lam = np.linalg.eigvalsh(hermitian_part(inv_root @ H @ H @ inv_root))[..., -1]
        res = check_loewner_heinz(A, B, _per(0.99 / np.sqrt(lam)) * H, tol=config.tolerances)
        count, shortfall = _premise_held(res)
        # power monotonicity on the same dominated pairs
        monotone = min_eig(powm(B, s) - powm(A, s))[res.premise_held]
        held += count
        worst = max(worst, shortfall, _shortfall(monotone))
    return config.trials, held, worst, thr, ""


@prop("congruence-inversion-order", "congruence-inversion-order")
def _congruence_order(config):
    pid, thr = "congruence-inversion-order", 1e-8

    def draw(i):
        rng, d, X, P = _pd_pair(config, pid, i)
        return X, P, complex_gaussian(rng, (d, d))

    worst = 0.0
    for X, P, S in _stacks(map(draw, range(config.trials))):
        Y = X + P  # X <= Y by construction
        lhs = hermitian_part(S @ X @ _ct(S))
        rhs = hermitian_part(S @ Y @ _ct(S))
        worst = max(worst, _shortfall(min_eig(rhs - lhs)), _shortfall(min_eig(lhs)),
                    _shortfall(min_eig(invm(X) - invm(Y))))
    return config.trials, config.trials, worst, thr, ""


@prop("furuta", "furuta", min_premise=50)
def _furuta(config):
    pid, thr = "furuta", 1e-8
    def inputs(rng, d, i):
        A, B = gen_dominated_pair(rng, d)
        return A, B, _cycle(config.p_grid, i)
    n, held, worst = _premise_battery(
        config, pid, inputs, lambda A, B, p: check_furuta(A, B, p, tol=config.tolerances))
    return n, held, worst, thr, ""


@prop("ando-hiai", "ando-hiai", min_premise=50)
def _ando_hiai(config):
    pid, thr = "ando-hiai", 1e-8
    grid = [p for p in config.p_grid if p >= 1]
    def inputs(rng, d, i):
        A, B = gen_sharp_contracted_pair(rng, d)
        return A, B, _cycle(grid, i)
    n, held, worst = _premise_battery(
        config, pid, inputs,
        lambda A, B, p: check_ando_hiai(A, B, p, tol=config.tolerances))
    return n, held, worst, thr, ""


@prop("spectral-ando-hiai", "spectral-ando-hiai", min_premise=50)
def _spectral_ando_hiai(config):
    pid, thr = "spectral-ando-hiai", 1e-8
    grid_p = [p for p in config.p_grid if p >= 1]
    grid_t = [t for t in config.t_grid if 0 < t <= 1]
    def inputs(rng, d, i):
        t = _cycle(grid_t, i)
        A, B = gen_spectral_premise_pair(rng, d, t)
        return A, B, t, _cycle(grid_p, i)
    n, held, worst = _premise_battery(
        config, pid, inputs,
        lambda A, B, t, p: check_main_spectral_AH(A, B, t, p, tol=config.tolerances))
    return n, held, worst, thr, ""


@prop("power-chain", "power-chain", min_premise=50)
def _power_chain(config):
    pid, thr = "power-chain", 1e-8
    grid = [p for p in config.p_grid if p > 0]
    def inputs(rng, d, i):
        A, B = gen_sharp_contracted_pair(rng, d)
        # keep p = 2 in rotation so the displayed special case is exercised
        p = 2.0 if i % 3 == 0 else _cycle(grid, i)
        return A, B, p
    n, held, worst = _premise_battery(
        config, pid, inputs,
        lambda A, B, p: check_power_chain(A, B, p, tol=config.tolerances))
    return n, held, worst, thr, ""


@prop("five-way-equivalence", "five-way-equivalence", min_premise=50)
def _equivalence(config):
    # consistency must hold on generic pairs (usually all-false) and on
    # dominated pairs (all-true); the latter are counted as premise-held
    pid, thr = "five-way-equivalence", 1e-8

    def draw(i):
        rng = substream(config.seed, pid, i)
        d = _cycle(config.dims, i)
        return (*gen_dominated_pair(rng, d), gen_random_pd(rng, d, config.cond_cap),
                gen_random_pd(rng, d, config.cond_cap))

    worst, held = 0.0, 0
    for A, B, Ag, Bg in _stacks(map(draw, range(config.trials))):
        dominated = np.array(equivalence_statements(A, B, config.tolerances))
        generic = np.array(equivalence_statements(Ag, Bg, config.tolerances))
        for flags in (dominated, generic):
            # the five statements share one truth value on every pair
            worst = max(worst, _flag(flags.all(axis=0) | ~flags.any(axis=0), thr))
        held += int(dominated.all(axis=0).sum())
    return config.trials, held, worst, thr, "premise-held counts all-true samples"


@prop("contraction-lemma", "contraction-lemma", min_premise=50)
def _contraction(config):
    pid, thr = "contraction-lemma", 1e-8

    def make_inputs(rng, d, i):
        X = gen_random_pd(rng, d, config.cond_cap)
        return gen_contraction_for(rng, X, hermitian_only=True), X

    n, held, worst = _premise_battery(
        config, pid, make_inputs,
        lambda S, X: check_contraction(S, X, tol=config.tolerances))
    witness = contraction_converse_witness(config.tolerances)
    worst = max(worst, _flag(witness["converse_fails"], thr))
    return n, held, worst, thr, f"converse witness: {witness['sxs_vs_x']}"


@prop("sufficient-conditions", "sufficient-conditions", min_premise=50)
def _sufficient_conditions(config):
    pid, thr = "sufficient-conditions", 1e-8
    tol = config.tolerances
    grid_t = [t for t in config.t_grid if 0 < t <= 1]

    def draw(i):
        rng = substream(config.seed, pid, i)
        d = _cycle(config.dims, i)
        A = gen_random_pd(rng, d, config.cond_cap)
        B = gen_random_pd(rng, d, config.cond_cap)
        log_pair = gen_log_sum_pair(rng, d)
        return (A, B, *log_pair, *gen_spectral_premise_pair(rng, d, _cycle(grid_t, i)))

    def top_eig(H):
        return np.linalg.eigvalsh(H)[..., -1]

    worst, held = 0.0, 0
    co_counts = {"cond1": 0, "cond2": 0}
    for A, B, La, Lb, As, Bs in _stacks(map(draw, range(config.trials))):
        # (contractive inputs) implies (log-sum condition)
        A1 = 0.99 * A / _per(top_eig(A))
        B1 = 0.99 * B / _per(top_eig(B))
        worst = max(worst, 0.0, _top(top_eig(logm(A1) + logm(B1))))
        # (log-sum condition) implies the contracted geometric mean
        count, shortfall = _premise_held(check_log_sum_condition(La, Lb, tol=tol))
        held += count
        worst = max(worst, shortfall)
        # co-occurrence of the spectral condition with the other two
        co_counts["cond2"] += int(np.sum(top_eig(logm(As) + logm(Bs)) <= tol.loewner_tol))
        co_counts["cond1"] += int(np.sum((top_eig(As) <= 1 + tol.loewner_tol)
                                         & (top_eig(Bs) <= 1 + tol.loewner_tol)))
    note = (f"spectral-condition samples also satisfying: contractive {co_counts['cond1']}, "
            f"log-sum {co_counts['cond2']} of {config.trials} (recorded only)")
    return config.trials, held, worst, thr, note


@prop("spectral-bounds-premise-free", "spectral-mean-bounds")
def _bounds_fixture(config):
    # scalar sanity fixtures for the two-sided bound, including the
    # indefinite-bracket regime where only the inverse-free form applies
    thr = 1e-10
    worst = 0.0
    for a, b, t in ((4.0, 1.0, 0.5), (1.0, 1.0, 0.3), (0.25, 9.0, 0.75)):
        A = np.array([[a]], dtype=complex)
        B = np.array([[b]], dtype=complex)
        res = check_bounds_spectral(A, B, t)
        worst = max(worst, max(0.0, -res.margin))
    return 3, 3, worst, thr, ""


@prop("d-le-delta", "semimetric-riemannian-bound")
def _d_le_delta(config):
    pid, thr = "d-le-delta", 1e-9

    def draw(i):
        rng, d, A, B = _pd_pair(config, pid, i)
        return (A, B, *gen_commuting_pair(rng, d))

    worst = 0.0
    for A, B, Ac, Bc in _stacks(map(draw, range(config.trials))):
        res = check_d_le_delta(A, B, tol=config.tolerances)
        worst = max(worst, _shortfall(res.margin),
                    _top(abs(distance("semimetric_frob", Ac, Bc)
                             - distance("riemannian", Ac, Bc))))
    return config.trials, config.trials, worst, thr, "equality checked on commuting pairs"


@prop("logmaj-mean", "majorization-definitions")
def _logmaj(config):
    pid, thr = "logmaj-mean", 1e-8
    draws = (_pd_pair(config, pid, i)[2:] + (_cycle(config.t_grid, i),)
             for i in range(config.trials))
    worst = 0.0
    for A, B, t in _stacks(draws):
        res = check_logmaj_mean(A, B, t, tol=config.tolerances)
        worst = max(worst, _flag(res.conclusion_held, thr), _shortfall(res.margin))
    return config.trials, config.trials, worst, thr, ""


@prop("majorization-prefix-rules", "majorization-definitions")
def _majorization_rules(config):
    pid, thr = "majorization-prefix-rules", 1e-10
    dom, tot = weak_majorize([1.0, 1.0], [2.0, 0.0])
    worst = _flag(dom and tot, thr)
    dom, _ = weak_majorize([3.0, 1.0], [2.0, 2.0])
    worst = max(worst, _flag(not dom, thr))
    for i in range(config.trials):
        rng, d, A, P = _pd_pair(config, pid, i)
        wa = np.linalg.eigvalsh(A)[::-1]
        wb = np.linalg.eigvalsh(A + P)[::-1]
        dom, _ = weak_majorize(wa, wb)
        worst = max(worst, _flag(dom, thr))
        dom_log, _ = weak_majorize(wa, np.exp(1.0) * wa, log_scale=True)
        worst = max(worst, _flag(dom_log, thr))
    return config.trials + 2, config.trials + 2, worst, thr, ""


# --------------------------------------------------------------------------
# gyrogroup structure on the cone
# --------------------------------------------------------------------------

def _cone_triples(config, pid):
    """One triple per trial, grouped by dimension in trial order."""
    by_dim = {}
    for i in range(config.trials):
        rng = substream(config.seed, pid, i)
        d = _cycle(config.dims, i)
        # log-uniform spectra: the axiom identities chain several operations,
        # so sample conditioning is kept well inside the 1e-8 residual budget
        by_dim.setdefault(d, []).append(tuple(gen_spread_pd(rng, d, 2.0) for _ in range(3)))
    return by_dim


def _cone_axioms(config, axioms):
    """The worst residual of the given cone axioms over the shared sample set."""
    worst = 0.0
    for d, triples in _cone_triples(config, "cone-gyrogroup-axioms").items():
        report = run_axiom_suite(gc.cone_model(d, config.tolerances), triples,
                                 axioms=axioms)
        worst = max(worst, report.max_residual)
    return config.trials, config.trials, worst, 1e-8, ""


_G_AXIOMS = ("G1-left-identity", "G1-right-identity", "G2-left-inverse",
             "G2-right-inverse", "G3-gyroassociativity", "G4-identity-gyration",
             "G5-loop", "gyrocommutativity", "gyration-automorphism")
_V_AXIOMS = ("V1-unit", "V1-zero", "V1-negation", "V2-additive",
             "V3-multiplicative", "V4-gyration-scalar")


@prop("cone-gyrogroup-axioms", "gyrogroup-axioms")
def _cone_axioms_g(config):
    return _cone_axioms(config, _G_AXIOMS)


@prop("cone-gyrovector-axioms", "gyrovector-axioms")
def _cone_axioms_v(config):
    return _cone_axioms(config, _V_AXIOMS)


@prop("cone-operations", "cone-gyrovector-space")
def _cone_ops(config):
    pid, thr = "cone-operations", 1e-9

    def draw(i):
        rng = substream(config.seed, pid, i)
        d = _cycle(config.dims, i)
        A = gen_random_pd(rng, d, config.cond_cap)
        B = gen_random_pd(rng, d, config.cond_cap)
        t = float(rng.uniform(-2, 2))
        return (A, B, t, *gen_commuting_pair(rng, d))

    worst = 0.0
    for A, B, t, Ac, Bc in _stacks(map(draw, range(config.trials))):
        eye = _eye_like(A)
        worst = max(
            worst,
            _relerr(gc.cone_add(eye, B), B),
            _relerr(gc.cone_add(A, eye), A),
            _relerr(gc.cone_add(A, gc.cone_neg(A)), eye),
            _relerr(gc.cone_scalar(t, A), powm(A, t)),
            _relerr(gc.cone_add(Ac, Bc), Ac @ Bc),
        )
    # witness that the operation is neither commutative nor associative
    A = np.diag([4.0, 1.0]).astype(complex)
    B = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    C = np.array([[1.0, 0.5], [0.5, 3.0]], dtype=complex)
    worst = max(worst, _flag(
        np.linalg.norm(gc.cone_add(A, B) - gc.cone_add(B, A)) > 1e-3, thr))
    worst = max(worst, _flag(
        np.linalg.norm(gc.cone_add(A, gc.cone_add(B, C))
                       - gc.cone_add(gc.cone_add(A, B), C)) > 1e-3, thr))
    return config.trials, config.trials, worst, thr, ""


@prop("cone-gyration-unitarity", "cone-gyration")
def _cone_gyration(config):
    pid, thr = "cone-gyration-unitarity", 1e-10

    def draw(i):
        rng = substream(config.seed, pid, i)
        d = _cycle(config.dims, i)
        A, B, X = (gen_random_pd(rng, d, config.cond_cap) for _ in range(3))
        return (A, B, X, *gen_commuting_pair(rng, d))

    worst = 0.0
    for A, B, X, Ac, Bc in _stacks(map(draw, range(config.trials))):
        U = gc.gyration_unitary(A, B)
        worst = max(
            worst,
            _top(np.linalg.norm(U @ _ct(U) - _eye_like(U), axis=(-2, -1))),
            # polar relation A^{1/2} B^{1/2} = (A (+) B)^{1/2} U
            _relerr(sqrtm(gc.cone_add(A, B)) @ U, sqrtm(A) @ sqrtm(B)),
            _flag(min_eig(gc.gyration(A, B, X)) > 0, thr),
            _relerr(gc.gyration(Ac, Bc, X), X),
        )
    return config.trials, config.trials, worst, thr, ""


@prop("gyration-trace-invariance", "gyration-trace-invariance")
def _gyration_trace(config):
    pid, thr = "gyration-trace-invariance", 1e-9

    def draw(i):
        rng = substream(config.seed, pid, i)
        d = _cycle(config.dims, i)
        return tuple(gen_random_pd(rng, d, config.cond_cap) for _ in range(4))

    worst = 0.0
    for A, B, X, Y in _stacks(map(draw, range(config.trials))):
        gx, gy = gc.gyration(A, B, X), gc.gyration(A, B, Y)
        lhs = np.trace(gx @ _ct(gy), axis1=-2, axis2=-1)
        rhs = np.trace(X @ _ct(Y), axis1=-2, axis2=-1)
        worst = max(worst, _top(abs(lhs - rhs) / np.maximum(1.0, abs(rhs))))
    return config.trials, config.trials, worst, thr, ""


@prop("cooperation-commutativity", "cooperation")
def _cooperation(config):
    pid, thr = "cooperation-commutativity", 1e-9

    def draw(i):
        rng = substream(config.seed, pid, i)
        d = _cycle(config.dims, i)
        return tuple(gen_random_pd(rng, d, config.cond_cap) for _ in range(2))

    worst = 0.0
    for A, B in _stacks(map(draw, range(config.trials))):
        W = geo_mean(invm(A), B, 0.5)
        worst = max(
            worst,
            _relerr(gc.cooperation(A, B), gc.cooperation(B, A)),
            _relerr(gc.cooperation(A, _eye_like(A)), A),
            _relerr(gc.cooperation(gc.cone_neg(A), B), W @ W),
        )
    return config.trials, config.trials, worst, thr, ""


@prop("cone-gyrolines", "cone-gyrolines")
def _cone_gyrolines(config):
    pid, thr = "cone-gyrolines", 1e-9

    def draw(i):
        rng = substream(config.seed, pid, i)
        d = _cycle(config.dims, i)
        A = gen_random_pd(rng, d, config.cond_cap)
        B = gen_random_pd(rng, d, config.cond_cap)
        return A, B, float(rng.uniform(0.0, 1.0))

    worst = 0.0
    for A, B, t in _stacks(map(draw, range(config.trials))):
        worst = max(
            worst,
            _relerr(gc.gyroline(t, A, B), geo_mean(A, B, t)),
            _relerr(gc.cogyroline(t, A, B), spectral_mean(A, B, t)),
            _relerr(gc.gyroline(0.5, A, B), gc.cone_scalar(0.5, gc.cooperation(A, B))),
        )
    return config.trials, config.trials, worst, thr, ""


@prop("gyroline-translation", "gyroline-cogyroline-defs")
def _gyroline_translation(config):
    pid, thr = "gyroline-translation", 1e-8

    def draw(i):
        rng = substream(config.seed, pid, i)
        d = _cycle(config.dims, i)
        A, B, X = (gen_random_pd(rng, d, config.cond_cap) for _ in range(3))
        return A, B, X, float(rng.uniform(0.0, 1.0))

    worst = 0.0
    for A, B, X, t in _stacks(map(draw, range(config.trials))):
        lhs = gc.cone_add(X, gc.gyroline(t, A, B))
        rhs = gc.gyroline(t, gc.cone_add(X, A), gc.cone_add(X, B))
        worst = max(worst, _relerr(lhs, rhs))
    return config.trials, config.trials, worst, thr, ""


# --------------------------------------------------------------------------
# density matrices
# --------------------------------------------------------------------------

@prop("density-gyrovector-space", "density-gyrovector-space")
def _density_axioms(config):
    pid, thr = "density-gyrovector-space", 1e-8
    worst = 0.0
    by_dim = {}
    for i in range(config.trials):
        rng = substream(config.seed, pid, i)
        d = _cycle(config.dims, i)
        by_dim.setdefault(d, []).append(
            tuple(gen_density(rng, d) for _ in range(3)))
    for d, triples in sorted(by_dim.items()):
        report = run_axiom_suite(gd.density_model(d, config.tolerances), triples)
        worst = max(worst, report.max_residual)

    def element(i):
        rng = substream(config.seed, pid + "-elements", i)
        d = _cycle(config.dims, i)
        rho = gen_density(rng, d)
        sigma = gen_density(rng, d)
        return rho, sigma, float(rng.uniform(-2.0, 2.0))

    for rho, sigma, t in _stacks(map(element, range(min(config.trials, 50)))):
        identity = np.broadcast_to(gd.dens_identity(rho.shape[-1]), rho.shape)
        inv = invm(rho)
        worst = max(
            worst,
            _relerr(gd.dens_add(identity, sigma), sigma),
            _relerr(gd.dens_neg(rho), inv / _per(_trace(inv))),
            _top(abs(_trace(gd.dens_scalar(t, rho)) - 1.0)),
            _top(abs(_trace(gd.dens_add(rho, sigma)) - 1.0)),
        )
    return config.trials, config.trials, worst, thr, ""


@prop("density-gyrolines", "density-gyrolines")
def _density_gyrolines(config):
    pid, thr = "density-gyrolines", 1e-9

    def draw(i):
        rng = substream(config.seed, pid, i)
        d = _cycle(config.dims, i)
        rho = gen_density(rng, d)
        sigma = gen_density(rng, d)
        t = float(rng.uniform(0.0, 1.0))
        A = gen_random_pd(rng, d, config.cond_cap)
        return rho, sigma, t, A, gen_random_pd(rng, d, config.cond_cap)

    worst = 0.0
    for rho, sigma, t, A, B in _stacks(map(draw, range(config.trials))):
        # primitive-composition paths as oracles for the closed forms
        prim = gd.dens_add(rho, gd.dens_scalar(t, gd.dens_add(gd.dens_neg(rho), sigma)))
        coop = gd.dens_add(
            gd.dens_neg(rho),
            gd.dens_gyration(gd.dens_neg(rho), gd.dens_neg(sigma), sigma))
        prim_co = gd.dens_add(gd.dens_scalar(t, coop), rho)
        # trace projection commutes with the mean (joint homogeneity)
        G = geo_mean(A, B, t)
        worst = max(
            worst,
            _relerr(gd.dens_gyroline(t, rho, sigma), prim),
            _relerr(gd.dens_cogyroline(t, rho, sigma), prim_co),
            _relerr(gd.dens_gyroline(t, A / _per(_trace(A)), B / _per(_trace(B))),
                    G / _per(_trace(G))),
        )
    return config.trials, config.trials, worst, thr, ""


# --------------------------------------------------------------------------
# ball gyrogroups and the Bloch correspondence
# --------------------------------------------------------------------------

def _ball_triples(config, pid):
    triples = []
    for i in range(config.trials):
        rng = substream(config.seed, pid, i)
        triples.append(tuple(gen_ball_vector(rng) for _ in range(3)))
    return triples


@prop("einstein-ball-axioms", "ball-gyrogroups")
def _einstein_axioms(config):
    pid, thr = "einstein-ball-axioms", 1e-8
    report = run_axiom_suite(bl.ball_model("einstein"), _ball_triples(config, pid))
    return config.trials, config.trials, report.max_residual, thr, ""


@prop("mobius-ball-axioms", "ball-gyrogroups")
def _mobius_axioms(config):
    pid, thr = "mobius-ball-axioms", 1e-8
    report = run_axiom_suite(bl.ball_model("mobius"), _ball_triples(config, pid))
    return config.trials, config.trials, report.max_residual, thr, ""


@prop("gamma-factor-identity", "mean-eigenvalue-rewrite")
def _gamma_identity(config):
    pid, thr = "gamma-factor-identity", 1e-10
    worst = 0.0
    for i in range(config.trials):
        rng = substream(config.seed, pid, i)
        u, v = gen_ball_vector(rng), gen_ball_vector(rng)
        lhs = bl.gamma_factor(bl.einstein_add(u, v))
        rhs = bl.gamma_factor(u) * bl.gamma_factor(v) * (1.0 + float(u @ v))
        worst = max(worst, abs(lhs - rhs) / max(1.0, rhs))
    return config.trials, config.trials, worst, thr, ""


@prop("rapidity-metric", "mean-eigenvalue-rewrite")
def _rapidity(config):
    pid, thr = "rapidity-metric", 1e-12
    worst = 0.0
    for i in range(config.trials):
        rng = substream(config.seed, pid, i)
        u, v = gen_ball_vector(rng), gen_ball_vector(rng)
        worst = max(worst, abs(bl.rapidity_distance(u, v)
                               - bl.rapidity_distance(v, u)))
        worst = max(worst, bl.rapidity_distance(u, u.copy()))
        worst = max(worst, _flag(bl.rapidity_distance(u, v) >= 0, thr))
        origin = np.zeros(3)
        worst = max(worst, abs(bl.rapidity_distance(origin, v)
                               - np.arctanh(np.linalg.norm(v))))
    return config.trials, config.trials, worst, thr, ""


@prop("einstein-gyromidpoint", "gyromidpoint-norm-bound")
def _gyromidpoint(config):
    pid, thr = "einstein-gyromidpoint", 1e-10
    worst = 0.0
    asym_violations = 0
    for i in range(config.trials):
        rng = substream(config.seed, pid, i)
        u, v = gen_ball_vector(rng), gen_ball_vector(rng)
        m = bl.gyromidpoint(u, v)
        gyro_half = bl.ball_scalar(0.5, bl.einstein_coaddition(u, v))
        worst = max(worst, float(np.linalg.norm(m - gyro_half)))
        worst = max(worst, max(0.0, -cf.midpoint_vector_check(u, v)))
        lhs = 2.0 * bl.rapidity_distance(np.zeros(3), m)
        rhs = (bl.rapidity_distance(np.zeros(3), u)
               + bl.rapidity_distance(np.zeros(3), v))
        worst = max(worst, max(0.0, lhs - rhs))
        # the asymmetric-denominator variant of the bound, recorded only
        nu, nv, nm = (np.linalg.norm(x) for x in (u, v, m))
        asym_rhs = np.sqrt((1 + nu) * (1 + nv) / ((1 - nu) * (1 + nv)))
        if (1 + nm) / (1 - nm) > asym_rhs + 1e-10:
            asym_violations += 1
    note = (f"asymmetric-denominator variant violated on {asym_violations} of "
            f"{config.trials} samples (recorded only)")
    return config.trials, config.trials, worst, thr, note


@prop("bloch-correspondence", "qubit-state")
def _bloch(config):
    pid, thr = "bloch-correspondence", 1e-12
    worst = 0.0
    for i in range(config.trials):
        rng = substream(config.seed, pid, i)
        v = gen_ball_vector(rng)
        rho = bl.bloch_to_density(v)
        worst = max(worst, float(np.linalg.norm(bl.density_to_bloch(rho) - v)))
        worst = max(worst, abs(float(np.trace(rho).real) - 1.0))
        worst = max(worst, _flag(min_eig(rho) > 0, thr))
    worst = max(worst, float(np.linalg.norm(
        bl.bloch_to_density(np.zeros(3)) - np.eye(2) / 2)))
    return config.trials, config.trials, worst, thr, ""


@prop("qubit-eigenvalues", "qubit-eigenvalues")
def _qubit_eigs(config):
    pid, thr = "qubit-eigenvalues", 1e-12
    worst = 0.0
    for i in range(config.trials):
        rng = substream(config.seed, pid, i)
        v = gen_ball_vector(rng)
        rho = bl.bloch_to_density(v)
        nv = float(np.linalg.norm(v))
        w = np.linalg.eigvalsh(rho)
        worst = max(worst, abs(w[0] - (1 - nv) / 2), abs(w[1] - (1 + nv) / 2))
        det = float(np.linalg.det(rho).real)
        worst = max(worst, abs(det - (1 - nv**2) / 4))
        worst = max(worst, abs(det - 1 / (4 * bl.gamma_factor(v) ** 2)))
    return config.trials, config.trials, worst, thr, ""


@prop("qubit-inverse-normalization", "qubit-inverse-normalization")
def _qubit_inverse(config):
    pid, thr = "qubit-inverse-normalization", 1e-10
    worst = 0.0
    err_plain, err_square = 0.0, 0.0
    for i in range(config.trials):
        rng = substream(config.seed, pid, i)
        u = gen_ball_vector(rng)
        rho = bl.bloch_to_density(u)
        rho_neg = bl.bloch_to_density(-u)
        inv = invm(rho)
        worst = max(worst, _relerr(gd.dens_neg(rho), rho_neg))
        worst = max(worst, _relerr(inv / np.trace(inv).real, rho_neg))
        g = bl.gamma_factor(u)
        err_plain = max(err_plain, float(np.linalg.norm(inv / (4 * g) - rho_neg)))
        err_square = max(err_square, float(np.linalg.norm(inv / (4 * g**2) - rho_neg)))
    constant = "4*gamma^2" if err_square < err_plain else "4*gamma"
    note = (f"normalizing constant matching the inverse state: {constant} "
            f"(worst errors: 4*gamma {err_plain:.3e}, 4*gamma^2 {err_square:.3e})")
    return config.trials, config.trials, worst, thr, note


@prop("bloch-isomorphism", "qubit-state")
def _bloch_isomorphism(config):
    pid, thr = "bloch-isomorphism", 1e-10
    worst = 0.0
    for i in range(config.trials):
        rng = substream(config.seed, pid, i)
        u, v = gen_ball_vector(rng), gen_ball_vector(rng)
        t = float(rng.uniform(-2.0, 2.0))
        lhs = bl.bloch_to_density(bl.einstein_add(u, v))
        rhs = gd.dens_add(bl.bloch_to_density(u), bl.bloch_to_density(v))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
        lhs = bl.bloch_to_density(bl.ball_scalar(t, v))
        rhs = gd.dens_scalar(t, bl.bloch_to_density(v))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return config.trials, config.trials, worst, thr, ""


# --------------------------------------------------------------------------
# 2x2 closed forms
# --------------------------------------------------------------------------

@prop("lmap-identities", "difference-quotient-map")
def _lmap(config):
    # the difference quotient just outside the branch window carries
    # cancellation noise of order eps/|x-1| ~ 1e-9, which bounds how sharply
    # continuity across the switch can be asserted
    pid, thr = "lmap-identities", 1e-8
    worst = abs(cf.l_map(0.37, 1.0) - 0.37)
    worst = max(worst, abs(cf.l_map(0.5, 4.0) - 0.4))
    for i in range(config.trials):
        rng = substream(config.seed, pid, i)
        t = float(rng.uniform(-2.0, 2.0))
        x = float(np.exp(rng.uniform(-3.0, 3.0)))
        worst = max(worst, abs(cf.l_map(t, x) - cf.l_map(t, 1.0 / x)))
        # continuity across the branch switch
        eps = 1.0000001e-7
        worst = max(worst, abs(cf.l_map(t, 1.0 + eps) - cf.l_map(t, 1.0)))
    return config.trials, config.trials, worst, thr, ""


@prop("two-by-two-mean-combination", "two-by-two-mean-combination")
def _gm2(config):
    pid, thr = "two-by-two-mean-combination", 1e-9
    worst = 0.0
    for i in range(config.trials):
        rng = substream(config.seed, pid, i)
        A = gen_random_pd(rng, 2, config.cond_cap, unit_det=True)
        B = gen_random_pd(rng, 2, config.cond_cap, unit_det=True)
        t = _cycle((0.2, 0.5, 0.7), i)
        worst = max(worst, _relerr(cf.gm2_det1(A, B, t), geo_mean(A, B, t)))
        # midpoint rewrite and the value of the half-weight coefficient
        S = A + B
        sqrt_det = np.sqrt(cf.det2(S).real)
        worst = max(worst, _relerr(geo_mean(A, B, 0.5), S / sqrt_det))
        lam = cf.relative_eigenvalue(A, B)
        worst = max(worst, abs(cf.l_map(0.5, lam) - 1.0 / sqrt_det))
        # branch independence: both eigenvalues of A B^{-1} give one answer
        combo_lo = (cf.l_map(1 - t, 1 / lam) * A + cf.l_map(t, 1 / lam) * B)
        worst = max(worst, _relerr(cf.gm2_det1(A, B, t), combo_lo))
    return config.trials, config.trials, worst, thr, ""


@prop("two-by-two-spectral-closed-form", "two-by-two-spectral-closed-form")
def _sgm2(config):
    pid, thr = "two-by-two-spectral-closed-form", 1e-9
    worst = 0.0
    for i in range(config.trials):
        rng = substream(config.seed, pid, i)
        t = _cycle((0.3, 0.5, 0.8), i)
        A = gen_random_pd(rng, 2, config.cond_cap, unit_det=True)
        B = gen_random_pd(rng, 2, config.cond_cap, unit_det=True)
        worst = max(worst, _relerr(cf.sgm2(A, B, t), spectral_mean(A, B, t)))
        A = gen_random_pd(rng, 2, config.cond_cap)
        B = gen_random_pd(rng, 2, config.cond_cap)
        worst = max(worst, _relerr(cf.sgm2(A, B, t), spectral_mean(A, B, t)))
    return config.trials, config.trials, worst, thr, ""


@prop("det-shift-identity", "det-shift-identity")
def _det_shift(config):
    pid, thr = "det-shift-identity", 1e-12
    worst = cf.det_shift_identity(1.0, np.array([[0.0, 1.0], [1.0, 0.0]]))
    for i in range(config.trials):
        rng = substream(config.seed, pid, i)
        c = float(rng.uniform(-3.0, 3.0))
        X = complex_gaussian(rng, (2, 2))
        worst = max(worst, cf.det_shift_identity(c, X))
        worst = max(worst, cf.det_shift_identity(0.0, X))
    return config.trials, config.trials, worst, thr, ""


@prop("block-norm-bound", "block-norm-bound")
def _block_norm(config):
    pid, thr = "block-norm-bound", 1e-10
    worst = 0.0
    for i in range(config.trials):
        rng = substream(config.seed, pid, i)
        d = _cycle(config.dims, i)
        A, B, X = gen_psd_block_triple(rng, d, config.cond_cap)
        op = float(np.linalg.norm(X, ord=2))
        bound = np.sqrt(np.linalg.eigvalsh(A)[-1] * np.linalg.eigvalsh(B)[-1])
        worst = max(worst, max(0.0, op - bound))
    return config.trials, config.trials, worst, thr, ""


@prop("sum-norm-bound", "sum-norm-bound")
def _sum_norm(config):
    pid, thr = "sum-norm-bound", 1e-10
    worst = 0.0
    for i in range(config.trials):
        rng = substream(config.seed, pid, i)
        A = gen_random_pd(rng, 2, config.cond_cap, unit_det=True)
        B = gen_random_pd(rng, 2, config.cond_cap, unit_det=True)
        worst = max(worst, max(0.0, -cf.norm_product_check(A, B)))
        # rescaled form for general determinants
        A2 = gen_random_pd(rng, 2, config.cond_cap)
        B2 = gen_random_pd(rng, 2, config.cond_cap)
        a = np.sqrt(cf.det2(A2).real)
        b = np.sqrt(cf.det2(B2).real)
        S = A2 / a + B2 / b
        lhs = np.sqrt(a * b) * float(np.max(np.abs(np.linalg.eigvalsh(S))))
        rhs = np.sqrt(cf.det2(S).real
                      * np.max(np.abs(np.linalg.eigvalsh(A2)))
                      * np.max(np.abs(np.linalg.eigvalsh(B2))))
        worst = max(worst, max(0.0, lhs - rhs))
    return config.trials, config.trials, worst, thr, ""


@prop("qubit-mean-combination", "qubit-mean-combination")
def _qubit_geo(config):
    pid, thr = "qubit-mean-combination", 1e-9
    worst = 0.0
    for i in range(config.trials):
        rng = substream(config.seed, pid, i)
        u, v = gen_ball_vector(rng), gen_ball_vector(rng)
        t = _cycle((0.25, 0.5, 0.75), i)
        oracle = geo_mean(bl.bloch_to_density(u), bl.bloch_to_density(v), t)
        worst = max(worst, _relerr(cf.qubit_geo_mean(u, v, t), oracle))
        worst = max(worst, _relerr(cf.qubit_geo_mean(u, u.copy(), t),
                                   bl.bloch_to_density(u)))
    return config.trials, config.trials, worst, thr, ""


@prop("mu-eigenvalue-rewrite", "mean-eigenvalue-rewrite")
def _mu_rewrite(config):
    pid, thr = "mu-eigenvalue-rewrite", 1e-10
    worst = 0.0
    for i in range(config.trials):
        rng = substream(config.seed, pid, i)
        u, v = gen_ball_vector(rng), gen_ball_vector(rng)
        mu_hi, mu_lo = cf.qubit_mean_eigenvalues(u, v)
        worst = max(worst, abs(mu_hi * mu_lo - 1.0))
        d = bl.rapidity_distance(u, v)
        worst = max(worst, abs(mu_hi - np.exp(d)) / max(1.0, np.exp(d)))
        # they really are the spectrum of (2 g_u rho_u)(2 g_v rho_v)^{-1}
        A = 2 * bl.gamma_factor(u) * bl.bloch_to_density(u)
        B = 2 * bl.gamma_factor(v) * bl.bloch_to_density(v)
        spec = np.sort(np.linalg.eigvals(A @ invm(B)).real)
        worst = max(worst, float(np.max(np.abs(spec - np.sort([mu_hi, mu_lo])))))
    return config.trials, config.trials, worst, thr, ""


@prop("qubit-spectral-closed-form", "qubit-spectral-closed-form")
def _qubit_spectral(config):
    pid, thr = "qubit-spectral-closed-form", 1e-9
    worst = 0.0
    for i in range(config.trials):
        rng = substream(config.seed, pid, i)
        u, v = gen_ball_vector(rng), gen_ball_vector(rng)
        t = _cycle((0.25, 0.75, 0.5), i)
        oracle = spectral_mean(bl.bloch_to_density(u), bl.bloch_to_density(v), t)
        worst = max(worst, _relerr(cf.qubit_spectral_mean(u, v, t), oracle))
        worst = max(worst, _relerr(cf.qubit_spectral_mean(u, u.copy(), t),
                                   bl.bloch_to_density(u)))
    return config.trials, config.trials, worst, thr, ""


# --------------------------------------------------------------------------
# Frobenius-norm semi-metric variant
# --------------------------------------------------------------------------

@prop("frobenius-semimetric-properties", "frobenius-semimetric")
def _frobenius_semimetric(config):
    pid, thr = "frobenius-semimetric-properties", 1e-8

    def draw(i):
        rng, d, A, B = _pd_pair(config, pid, i)
        return A, B, float(rng.uniform(0.2, 5.0)), _cycle(config.t_grid, i)

    def dist(X, Y):
        return distance("semimetric_frob", X, Y)

    worst = 0.0
    for A, B, alpha, t in _stacks(map(draw, range(config.trials))):
        dv = dist(A, B)
        M = spectral_mean(A, B, 0.5)
        worst = max(
            worst,
            _top(abs(dv - dist(B, A))),
            _top(dist(A, A.copy())),
            _top(abs(dist(_per(alpha) * A, _per(alpha) * B) - dv)),
            _top(abs(dist(invm(A), invm(B)) - dv)),
            *map(_top, midpoint_deviation("semimetric_frob", A, B, M)),
            _top(abs(dist(A, spectral_mean(A, B, t)) - t * dv)),
        )
    return config.trials, config.trials, worst, thr, ""
