"""The randomized property campaign.

Each runner is registered with its id, anchor and threshold, receives its
``Trials`` from the registry and yields its violation values; the registry
reduces them to the record's worst violation and applies the pass/fail
policy.  A value at or below zero is no violation, so a runner yields the
negation of a margin that must stay nonnegative.  A runner whose record
differs from the defaults returns an ``Outcome``.  Trial i runs at dimension
``dims[i % len(dims)]``, except in the defining-equation residual
properties, which run every trial at every dimension.

Every runner draws each dimension's trials as one stack (``Trials.stacks``)
from that dimension's substream (seed, property, "dim=<d>"), evaluates the
stack once, with per-trial scalars as arrays, and yields one value per
stacked trial; the ball, qubit and 2x2 draws, which do not depend on the
dimension, make one stack in trial order.  Trial i is its row of its stack.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import ball as bl
from . import closedform2x2 as cf
from . import gyrocone as gc
from . import gyrodensity as gd
from .fixtures import contraction_converse_witness, triangle_measurements
from .gyroaxioms import GYROGROUP_AXIOMS, GYROVECTOR_AXIOMS, run_axiom_suite
from .kernel import (
    LOEWNER_TOL,
    _frobenius,
    _per,
    _top_eig,
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
)
from .registry import P_GRID, T_GRID, Outcome, prop


def _cycle(seq, i):
    """The grid value of trial i, or of each trial of an index array."""
    return np.take(seq, i % len(seq))


def _premise_held(res) -> tuple[int, np.ndarray]:
    """Premise-held count of a stacked check, and its negated margins on those."""
    held = np.broadcast_to(res.premise_held, np.shape(res.margin))
    return int(held.sum()), -np.asarray(res.margin)[held]


def _held(results):
    """Yield the negated premise-held margins of stacked checks; return the count."""
    held = 0
    for res in results:
        count, shortfalls = _premise_held(res)
        held += count
        yield shortfalls
    return Outcome(premise_held=held)


def _relerr(X: np.ndarray, Y: np.ndarray):
    """Relative Frobenius error of a matrix, or of each matrix of a stack."""
    return _frobenius(X - Y) / np.maximum(1.0, _frobenius(Y))


def _pd(rng, d, trials, count=2) -> tuple:
    """``count`` positive definite matrices at the campaign's condition cap."""
    return tuple(gen_random_pd(rng, d, trials.cond_cap) for _ in range(count))


def _in_trial_order(trials, dim, draw) -> tuple:
    """All trials drawn at dimension ``dim`` as one stack, in trial order."""
    return next(replace(trials, dims=(dim,)).stacks(draw))


def _ball_vectors(trials, count=2) -> tuple:
    """``count`` ball vectors per trial, as (trials, 3) stacks in trial order."""
    return _in_trial_order(
        trials, 3, lambda rng, d, i: tuple(gen_ball_vector(rng, d) for _ in range(count)))


def _ct(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return M.conj().mT


def _eye_like(M: np.ndarray) -> np.ndarray:
    return np.broadcast_to(np.eye(M.shape[-1]), M.shape)


# --------------------------------------------------------------------------
# weighted geometric mean
# --------------------------------------------------------------------------

@prop("geodesic-curve-identities", "geodesic-curve", 1e-9)
def _geo_identities(trials):
    def draw(rng, d, i):
        A, B = _pd(rng, d, trials)
        a, b = rng.uniform(0.2, 3.0, 2).T
        U = gen_random_unitary(rng, d)
        return (A, B, _cycle(T_GRID, i), a, b, U, *gen_commuting_pair(rng, d))

    for A, B, t, a, b, U, Ac, Bc in trials.stacks(draw):
        G = geo_mean(A, B, t)
        yield _relerr(geo_mean(A, B, 0.0), A)
        yield _relerr(geo_mean(A, B, 1.0), B)
        yield trials.flag(min_eig(G) > 0)
        yield _relerr(G, geo_mean(B, A, 1.0 - t))
        yield _relerr(geo_mean(_per(a) * A, _per(b) * B, t), _per(a ** (1 - t) * b ** t) * G)
        yield _relerr(geo_mean(_ct(U) @ A @ U, _ct(U) @ B @ U, t), _ct(U) @ G @ U)
        yield _relerr(geo_mean(Ac, Bc, t), powm(Ac, 1 - t) @ powm(Bc, t))


@prop("riccati-residual", "riccati-equation", 1e-9)
def _riccati(trials):
    for dim in trials.dims:
        for A, B in replace(trials, dims=(dim,)).stacks(lambda rng, d, i: _pd(rng, d, trials)):
            X = geo_mean(A, B, 0.5)
            yield riccati_residual(A, B, X) / np.maximum(1.0, _frobenius(B))
    return Outcome(samples=trials.count * len(trials.dims), note="relative Frobenius residual")


@prop("karcher-residual", "karcher-equation", 1e-9)
def _karcher(trials):
    for A, B, t in trials.stacks(lambda rng, d, i: (*_pd(rng, d, trials), _cycle(T_GRID, i))):
        yield karcher_residual(A, B, t, geo_mean(A, B, t))


@prop("block-psd-maximality", "geometric-mean-block-characterization", 1e-9)
def _block_max(trials):
    yield trials.flag(block_psd_margin(np.eye(2), np.eye(2), 2 * np.eye(2)) < 0)
    for A, B in trials.stacks(lambda rng, d, i: _pd(rng, d, trials)):
        G = geo_mean(A, B, 0.5)
        yield -block_psd_margin(A, B, G)
        # strictly inflating the maximizer must leave the block cone
        yield trials.flag(block_psd_margin(A, B, 1.01 * G) < 0)


@prop("mean-bijection-roundtrip", "mean-bijection", 1e-8)
def _bijection(trials):
    # C is produced forward from a moderate X, so the 1/t-power inversion
    # stays inside the well-conditioned regime for every grid value of t
    for A, X, t in trials.stacks(lambda rng, d, i: (*_pd(rng, d, trials), _cycle(T_GRID, i))):
        for kind in ("metric", "spectral"):
            C = mean(kind, A, X, t)
            recovered = mean_left_inverse(kind, A, C, t)
            yield _relerr(recovered, X)
            yield _relerr(mean(kind, A, recovered, t), C)


# --------------------------------------------------------------------------
# weighted spectral mean
# --------------------------------------------------------------------------

@prop("spectral-curve-identities", "spectral-curve", 1e-9)
def _spectral_identities(trials):
    def draw(rng, d, i):
        return (*_pd(rng, d, trials), _cycle(T_GRID, i), *gen_commuting_pair(rng, d))

    for A, B, t, Ac, Bc in trials.stacks(draw):
        # eigenvalues of the t=1/2 mean are the square roots of those of A B
        ev = np.linalg.eigvalsh(spectral_mean(A, B, 0.5))
        ev_ab = np.sqrt(np.sort(np.linalg.eigvals(A @ B).real, axis=-1))
        yield _relerr(spectral_mean(A, B, 0.0), A)
        yield _relerr(spectral_mean(A, B, 1.0), B)
        yield trials.flag(min_eig(spectral_mean(A, B, t)) > 0)
        yield _relerr(spectral_mean(Ac, Bc, t), powm(Ac, 1 - t) @ powm(Bc, t))
        yield np.max(np.abs(ev - ev_ab), axis=-1) / np.maximum(1.0, ev_ab[..., -1])
    # the two means genuinely differ away from commutativity
    A = np.diag([4.0, 1.0]).astype(complex)
    B = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    yield trials.flag(np.linalg.norm(geo_mean(A, B, 0.5) - spectral_mean(A, B, 0.5)) > 1e-3)


@prop("spectral-defining-residual", "spectral-defining-equation", 1e-9)
def _spectral_defining(trials):
    def draw(rng, d, i):
        return (*_pd(rng, d, trials), _cycle((0.25, 0.5, 0.75), i))

    for dim in trials.dims:
        for A, B, t in replace(trials, dims=(dim,)).stacks(draw):
            yield spectral_defining_residual(A, B, t, spectral_mean(A, B, t))
    return Outcome(samples=trials.count * len(trials.dims))


@prop("spectral-mean-algebra", "spectral-mean-algebra", 1e-9)
def _spectral_algebra(trials):
    def draw(rng, d, i):
        A, B = _pd(rng, d, trials)
        a, b = rng.uniform(0.2, 3.0, 2).T
        U = gen_random_unitary(rng, d)
        return (A, B, _cycle(T_GRID, i), a, b, U, *rng.uniform(0.0, 1.0, 3).T)

    for A, B, t, a, b, U, s, tt, u in trials.stacks(draw):
        S = spectral_mean(A, B, t)
        yield _relerr(spectral_mean(_per(a) * A, _per(b) * B, t),
                      _per(a ** (1 - t) * b ** t) * S)
        yield _relerr(spectral_mean(_ct(U) @ A @ U, _ct(U) @ B @ U, t), _ct(U) @ S @ U)
        yield _relerr(spectral_mean(B, A, 1.0 - t), S)
        yield _relerr(spectral_mean(invm(A), invm(B), t), invm(S))
        yield _relerr(spectral_mean(spectral_mean(A, B, s), spectral_mean(A, B, u), tt),
                      spectral_mean(A, B, (1 - tt) * s + tt * u))


@prop("spectral-mean-bounds", "spectral-mean-bounds", 1e-8)
def _spectral_bounds(trials):
    def draw(rng, d, i):
        return (*_pd(rng, d, trials), _cycle((0.25, 0.5, 0.75), i))

    for A, B, t in trials.stacks(draw):
        yield -check_bounds_spectral(A, B, t).margin


# --------------------------------------------------------------------------
# semi-metric
# --------------------------------------------------------------------------

@prop("semimetric-axioms", "semimetric-axioms", 1e-8)
def _semimetric_axioms(trials):
    for A, B, H in trials.stacks(
            lambda rng, d, i: (*_pd(rng, d, trials), gen_random_hermitian(rng, d))):
        dv = distance("semimetric_op", A, B)
        # identity of indiscernibles, probed at an adversarial near-equal pair
        B2 = A + 1e-6 * H / _per(_frobenius(H))
        yield trials.flag(dv >= 0)
        yield abs(dv - distance("semimetric_op", B, A))
        yield distance("semimetric_op", A, A.copy())
        yield trials.flag(distance("semimetric_op", A, B2) > 1e-10)


@prop("semimetric-invariance", "semimetric-invariance", 1e-8)
def _semimetric_invariance(trials):
    def draw(rng, d, i):
        A, B = _pd(rng, d, trials)
        alpha = rng.uniform(0.2, 5.0)
        U = gen_random_unitary(rng, d)
        Ac, Bc = gen_commuting_pair(rng, d)
        return A, B, alpha, U, Ac, Bc, rng.uniform(-2.0, 2.0)

    def dist(X, Y):
        return distance("semimetric_op", X, Y)

    for A, B, alpha, U, Ac, Bc, t in trials.stacks(draw):
        dv = dist(A, B)
        yield abs(dist(_per(alpha) * A, _per(alpha) * B) - dv)
        yield abs(dist(invm(A), invm(B)) - dv)
        yield abs(dist(U @ A @ _ct(U), U @ B @ _ct(U)) - dv)
        # power scaling holds on commuting pairs
        yield abs(dist(powm(Ac, t), powm(Bc, t)) - abs(t) * dist(Ac, Bc))


@prop("spectral-midpoint", "spectral-midpoint", 1e-8)
def _spectral_midpoint(trials):
    for A, B, t in trials.stacks(lambda rng, d, i: (*_pd(rng, d, trials), _cycle(T_GRID, i))):
        M = spectral_mean(A, B, 0.5)
        dv = distance("semimetric_op", A, B)
        St = spectral_mean(A, B, t)
        yield from midpoint_deviation("semimetric_op", A, B, M)
        yield abs(distance("semimetric_op", A, St) - t * dv)
        yield abs(distance("semimetric_op", B, St) - (1 - t) * dv)


@prop("riemannian-geodesic-midpoint", "geodesic-curve", 1e-8)
def _riemannian_midpoint(trials):
    for A, B in trials.stacks(lambda rng, d, i: _pd(rng, d, trials)):
        yield from midpoint_deviation("riemannian", A, B, geo_mean(A, B, 0.5))


@prop("triangle-counterexample", "triangle-counterexample", 1e-5)
def _triangle(trials):
    m = triangle_measurements()
    yield trials.flag(m["matched_variant"] is not None)
    if m["matched_variant"] is not None:
        yield m["matched_error"]
    for kind in ("semimetric_op", "semimetric_frob"):
        yield trials.flag(m["variants"][kind]["triangle_gap"] > 0)
    note = (f"matched {m['matched_variant']} at scale {m['matched_scale']}; "
            f"triangle gap (op) {m['variants']['semimetric_op']['triangle_gap']:.6f}")
    return Outcome(samples=1, note=note)


@prop("semimetric-geodesic-question", "spectral-midpoint", np.inf, asserted=False)
def _geodesic_question(trials):
    devs = []
    for A, B, s, t in trials.stacks(
            lambda rng, d, i: (*_pd(rng, d, trials), *rng.uniform(0.0, 1.0, 2).T)):
        lhs = distance("semimetric_op", spectral_mean(A, B, s),
                       spectral_mean(A, B, t))
        devs.append(abs(lhs - abs(s - t) * distance("semimetric_op", A, B)))
    devs = np.concatenate(devs)
    yield devs
    note = (f"|d(Ns,Nt) - |s-t| d| over samples: max {devs.max():.3e}, "
            f"mean {devs.mean():.3e} (open question; recorded, not asserted)")
    return Outcome(note=note)


@prop("thompson-sup-ratio", "thompson-metric", 1e-10)
def _thompson(trials):
    for A, B in trials.stacks(lambda rng, d, i: _pd(rng, d, trials)):
        dt = distance("thompson", A, B)
        m = np.maximum(np.log(sup_ratio(A, B)), np.log(sup_ratio(B, A)))
        yield abs(dt - m) / np.maximum(1.0, dt)
        yield abs(sup_ratio(A, A) - 1.0)


# --------------------------------------------------------------------------
# order inequalities
# --------------------------------------------------------------------------

@prop("loewner-heinz", "loewner-heinz", 1e-8, min_premise=50)
def _loewner_heinz(trials):
    # p-th powers raise conditioning to kappa**p; keep kappa**5 inside the
    # window where the 1e-8 eigenvalue slack is trustworthy
    cap = min(trials.cond_cap, 80.0)

    def draw(rng, d, i):
        A = gen_random_pd(rng, d, cap)
        G = complex_gaussian(rng, (d, d))
        B = A + hermitian_part(G @ G.conj().mT)
        return A, B, gen_random_hermitian(rng, d), _cycle(T_GRID, i)

    held = 0
    for A, B, H, s in trials.stacks(draw):
        inv_root = powm(A, -0.5)
        lam = np.linalg.eigvalsh(hermitian_part(inv_root @ H @ H @ inv_root))[..., -1]
        res = check_loewner_heinz(A, B, _per(0.99 / np.sqrt(lam)) * H)
        count, shortfalls = _premise_held(res)
        held += count
        yield shortfalls
        # power monotonicity on the same dominated pairs
        yield -min_eig(powm(B, s) - powm(A, s))[res.premise_held]
    return Outcome(premise_held=held)


@prop("congruence-inversion-order", "congruence-inversion-order", 1e-8)
def _congruence_order(trials):
    for X, P, S in trials.stacks(
            lambda rng, d, i: (*_pd(rng, d, trials), complex_gaussian(rng, (d, d)))):
        Y = X + P  # X <= Y by construction
        lhs = hermitian_part(S @ X @ _ct(S))
        rhs = hermitian_part(S @ Y @ _ct(S))
        yield -min_eig(rhs - lhs)
        yield -min_eig(lhs)
        yield -min_eig(invm(X) - invm(Y))


@prop("furuta", "furuta", 1e-8, min_premise=50)
def _furuta(trials):
    def draw(rng, d, i):
        return (*gen_dominated_pair(rng, d), _cycle(P_GRID, i))

    return _held(check_furuta(A, B, p) for A, B, p in trials.stacks(draw))


@prop("ando-hiai", "ando-hiai", 1e-8, min_premise=50)
def _ando_hiai(trials):
    def draw(rng, d, i):
        return (*gen_sharp_contracted_pair(rng, d), _cycle(P_GRID, i))

    return _held(check_ando_hiai(A, B, p) for A, B, p in trials.stacks(draw))


@prop("spectral-ando-hiai", "spectral-ando-hiai", 1e-8, min_premise=50)
def _spectral_ando_hiai(trials):
    def draw(rng, d, i):
        t = _cycle(T_GRID, i)
        return (*gen_spectral_premise_pair(rng, d, t), t, _cycle(P_GRID, i))

    return _held(check_main_spectral_AH(*inputs) for inputs in trials.stacks(draw))


@prop("power-chain", "power-chain", 1e-8, min_premise=50)
def _power_chain(trials):
    def draw(rng, d, i):
        # keep p = 2 in rotation so the displayed special case is exercised
        return (*gen_sharp_contracted_pair(rng, d), np.where(i % 3 == 0, 2.0, _cycle(P_GRID, i)))

    return _held(check_power_chain(A, B, p) for A, B, p in trials.stacks(draw))


@prop("five-way-equivalence", "five-way-equivalence", 1e-8, min_premise=50)
def _equivalence(trials):
    # consistency must hold on generic pairs (usually all-false) and on
    # dominated pairs (all-true); the latter are counted as premise-held
    def draw(rng, d, i):
        return (*gen_dominated_pair(rng, d), *_pd(rng, d, trials))

    held = 0
    for A, B, Ag, Bg in trials.stacks(draw):
        dominated = np.array(equivalence_statements(A, B))
        generic = np.array(equivalence_statements(Ag, Bg))
        for flags in (dominated, generic):
            # the five statements share one truth value on every pair
            yield trials.flag(flags.all(axis=0) | ~flags.any(axis=0))
        held += int(dominated.all(axis=0).sum())
    return Outcome(premise_held=held, note="premise-held counts all-true samples")


@prop("contraction-lemma", "contraction-lemma", 1e-8, min_premise=50)
def _contraction(trials):
    def draw(rng, d, i):
        X = gen_random_pd(rng, d, trials.cond_cap)
        return gen_contraction_for(rng, X), X

    out = yield from _held(check_contraction(S, X) for S, X in trials.stacks(draw))
    witness = contraction_converse_witness()
    yield trials.flag(witness["converse_fails"])
    return out._replace(note=f"converse witness: {witness['sxs_vs_x']}")


@prop("sufficient-conditions", "sufficient-conditions", 1e-8, min_premise=50)
def _sufficient_conditions(trials):
    def draw(rng, d, i):
        A, B = _pd(rng, d, trials)
        log_pair = gen_log_sum_pair(rng, d)
        return (A, B, *log_pair, *gen_spectral_premise_pair(rng, d, _cycle(T_GRID, i)))

    held = 0
    co_counts = {"cond1": 0, "cond2": 0}
    for A, B, La, Lb, As, Bs in trials.stacks(draw):
        # (contractive inputs) implies (log-sum condition)
        A1 = 0.99 * A / _per(_top_eig(A))
        B1 = 0.99 * B / _per(_top_eig(B))
        yield _top_eig(logm(A1) + logm(B1))
        # (log-sum condition) implies the contracted geometric mean
        count, shortfalls = _premise_held(check_log_sum_condition(La, Lb))
        held += count
        yield shortfalls
        # co-occurrence of the spectral condition with the other two
        co_counts["cond2"] += int(np.sum(_top_eig(logm(As) + logm(Bs)) <= LOEWNER_TOL))
        co_counts["cond1"] += int(np.sum((_top_eig(As) <= 1 + LOEWNER_TOL)
                                          & (_top_eig(Bs) <= 1 + LOEWNER_TOL)))
    note = (f"spectral-condition samples also satisfying: contractive {co_counts['cond1']}, "
            f"log-sum {co_counts['cond2']} of {trials.count} (recorded only)")
    return Outcome(premise_held=held, note=note)


@prop("spectral-bounds-premise-free", "spectral-mean-bounds", 1e-10)
def _bounds_fixture(trials):
    # scalar sanity fixtures for the two-sided bound, including the
    # indefinite-bracket regime where only the inverse-free form applies
    for a, b, t in ((4.0, 1.0, 0.5), (1.0, 1.0, 0.3), (0.25, 9.0, 0.75)):
        A = np.array([[a]], dtype=complex)
        B = np.array([[b]], dtype=complex)
        yield -check_bounds_spectral(A, B, t).margin
    return Outcome(samples=3)


@prop("d-le-delta", "semimetric-riemannian-bound", 1e-9)
def _d_le_delta(trials):
    for A, B, Ac, Bc in trials.stacks(
            lambda rng, d, i: (*_pd(rng, d, trials), *gen_commuting_pair(rng, d))):
        yield -check_d_le_delta(A, B).margin
        yield abs(distance("semimetric_frob", Ac, Bc) - distance("riemannian", Ac, Bc))
    return Outcome(note="equality checked on commuting pairs")


@prop("logmaj-mean", "majorization-definitions", 1e-8)
def _logmaj(trials):
    for A, B, t in trials.stacks(lambda rng, d, i: (*_pd(rng, d, trials), _cycle(T_GRID, i))):
        res = check_logmaj_mean(A, B, t)
        yield trials.flag(res.conclusion_held)
        yield -res.margin


@prop("majorization-prefix-rules", "majorization-definitions", 1e-10)
def _majorization_rules(trials):
    dom, tot = weak_majorize([1.0, 1.0], [2.0, 0.0])
    yield trials.flag(dom and tot)
    dom, _ = weak_majorize([3.0, 1.0], [2.0, 2.0])
    yield trials.flag(not dom)
    for A, P in trials.stacks(lambda rng, d, i: _pd(rng, d, trials)):
        wa = np.linalg.eigvalsh(A)[..., ::-1]
        wb = np.linalg.eigvalsh(A + P)[..., ::-1]
        yield trials.flag(weak_majorize(wa, wb)[0])
        yield trials.flag(weak_majorize(wa, np.exp(1.0) * wa, log_scale=True)[0])
    return Outcome(samples=trials.count + 2)


# --------------------------------------------------------------------------
# gyrogroup structure on the cone
# --------------------------------------------------------------------------

def _cone_axioms(trials, axioms):
    """Yield the residuals of the given cone axioms over the shared sample set."""
    def draw(rng, d, i):
        # log-uniform spectra: the axiom identities chain several operations,
        # so sample conditioning is kept well inside the 1e-8 residual budget
        return tuple(gen_spread_pd(rng, d, 2.0) for _ in range(3))

    for a, b, c in replace(trials, stream="cone-gyrogroup-axioms").stacks(draw):
        yield from run_axiom_suite(gc.cone_model(a.shape[-1]), a, b, c, axioms).values()


@prop("cone-gyrogroup-axioms", "gyrogroup-axioms", 1e-8)
def _cone_axioms_g(trials):
    return _cone_axioms(trials, GYROGROUP_AXIOMS)


@prop("cone-gyrovector-axioms", "gyrovector-axioms", 1e-8)
def _cone_axioms_v(trials):
    return _cone_axioms(trials, GYROVECTOR_AXIOMS)


@prop("cone-operations", "cone-gyrovector-space", 1e-9)
def _cone_ops(trials):
    def draw(rng, d, i):
        A, B = _pd(rng, d, trials)
        t = rng.uniform(-2, 2)
        return (A, B, t, *gen_commuting_pair(rng, d))

    for A, B, t, Ac, Bc in trials.stacks(draw):
        eye = _eye_like(A)
        yield _relerr(gc.cone_add(eye, B), B)
        yield _relerr(gc.cone_add(A, eye), A)
        yield _relerr(gc.cone_add(A, gc.cone_neg(A)), eye)
        yield _relerr(gc.cone_scalar(t, A), powm(A, t))
        yield _relerr(gc.cone_add(Ac, Bc), Ac @ Bc)
    # witness that the operation is neither commutative nor associative
    A = np.diag([4.0, 1.0]).astype(complex)
    B = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    C = np.array([[1.0, 0.5], [0.5, 3.0]], dtype=complex)
    yield trials.flag(np.linalg.norm(gc.cone_add(A, B) - gc.cone_add(B, A)) > 1e-3)
    yield trials.flag(np.linalg.norm(gc.cone_add(A, gc.cone_add(B, C))
                                     - gc.cone_add(gc.cone_add(A, B), C)) > 1e-3)


@prop("cone-gyration-unitarity", "cone-gyration", 1e-10)
def _cone_gyration(trials):
    for A, B, X, Ac, Bc in trials.stacks(
            lambda rng, d, i: (*_pd(rng, d, trials, 3), *gen_commuting_pair(rng, d))):
        U = gc.gyration_unitary(A, B)
        yield np.linalg.norm(U @ _ct(U) - _eye_like(U), axis=(-2, -1))
        # polar relation A^{1/2} B^{1/2} = (A (+) B)^{1/2} U
        yield _relerr(sqrtm(gc.cone_add(A, B)) @ U, sqrtm(A) @ sqrtm(B))
        yield trials.flag(min_eig(gc.gyration(A, B, X)) > 0)
        yield _relerr(gc.gyration(Ac, Bc, X), X)


@prop("gyration-trace-invariance", "gyration-trace-invariance", 1e-9)
def _gyration_trace(trials):
    for A, B, X, Y in trials.stacks(lambda rng, d, i: _pd(rng, d, trials, 4)):
        gx, gy = gc.gyration(A, B, X), gc.gyration(A, B, Y)
        lhs = np.trace(gx @ _ct(gy), axis1=-2, axis2=-1)
        rhs = np.trace(X @ _ct(Y), axis1=-2, axis2=-1)
        yield abs(lhs - rhs) / np.maximum(1.0, abs(rhs))


@prop("cooperation-commutativity", "cooperation", 1e-9)
def _cooperation(trials):
    for A, B in trials.stacks(lambda rng, d, i: _pd(rng, d, trials)):
        W = geo_mean(invm(A), B, 0.5)
        yield _relerr(gc.cooperation(A, B), gc.cooperation(B, A))
        yield _relerr(gc.cooperation(A, _eye_like(A)), A)
        yield _relerr(gc.cooperation(gc.cone_neg(A), B), W @ W)


@prop("cone-gyrolines", "cone-gyrolines", 1e-9)
def _cone_gyrolines(trials):
    for A, B, t in trials.stacks(
            lambda rng, d, i: (*_pd(rng, d, trials), rng.uniform(0.0, 1.0))):
        # the paper's definitions, composed from the public primitives
        L = gc.cone_add(A, gc.cone_scalar(t, gc.cone_add(gc.cone_neg(A), B)))
        Lc = gc.cone_add(gc.cone_scalar(t, gc.cooperation(gc.cone_neg(A), B)), A)
        yield _relerr(gc.gyroline(t, A, B), L)
        yield _relerr(gc.cogyroline(t, A, B), Lc)
        yield _relerr(gc.gyroline(0.5, A, B), gc.cone_scalar(0.5, gc.cooperation(A, B)))


@prop("gyroline-translation", "gyroline-cogyroline-defs", 1e-8)
def _gyroline_translation(trials):
    for A, B, X, t in trials.stacks(
            lambda rng, d, i: (*_pd(rng, d, trials, 3), rng.uniform(0.0, 1.0))):
        lhs = gc.cone_add(X, gc.gyroline(t, A, B))
        yield _relerr(lhs, gc.gyroline(t, gc.cone_add(X, A), gc.cone_add(X, B)))


# --------------------------------------------------------------------------
# density matrices
# --------------------------------------------------------------------------

@prop("density-gyrovector-space", "density-gyrovector-space", 1e-8)
def _density_axioms(trials):
    for a, b, c in trials.stacks(lambda rng, d, i: tuple(gen_density(rng, d) for _ in range(3))):
        yield from run_axiom_suite(gd.density_model(a.shape[-1]), a, b, c).values()

    def element(rng, d, i):
        rho = gen_density(rng, d)
        sigma = gen_density(rng, d)
        return rho, sigma, rng.uniform(-2.0, 2.0)

    elements = replace(trials, stream="density-gyrovector-space-elements",
                       count=min(trials.count, 50))
    for rho, sigma, t in elements.stacks(element):
        identity = np.broadcast_to(gd.dens_identity(rho.shape[-1]), rho.shape)
        inv = invm(rho)
        yield _relerr(gd.dens_add(identity, sigma), sigma)
        yield _relerr(gd.dens_neg(rho), inv / _per(_trace(inv)))
        yield abs(_trace(gd.dens_scalar(t, rho)) - 1.0)
        yield abs(_trace(gd.dens_add(rho, sigma)) - 1.0)


@prop("density-gyrolines", "density-gyrolines", 1e-9)
def _density_gyrolines(trials):
    def draw(rng, d, i):
        rho = gen_density(rng, d)
        sigma = gen_density(rng, d)
        t = rng.uniform(0.0, 1.0)
        return (rho, sigma, t, *_pd(rng, d, trials))

    for rho, sigma, t, A, B in trials.stacks(draw):
        # primitive-composition paths as oracles for the closed forms
        prim = gd.dens_add(rho, gd.dens_scalar(t, gd.dens_add(gd.dens_neg(rho), sigma)))
        coop = gd.dens_add(
            gd.dens_neg(rho),
            gd.dens_gyration(gd.dens_neg(rho), gd.dens_neg(sigma), sigma))
        prim_co = gd.dens_add(gd.dens_scalar(t, coop), rho)
        # trace projection commutes with the mean (joint homogeneity)
        G = geo_mean(A, B, t)
        yield _relerr(gd.dens_gyroline(t, rho, sigma), prim)
        yield _relerr(gd.dens_cogyroline(t, rho, sigma), prim_co)
        yield _relerr(gd.dens_gyroline(t, A / _per(_trace(A)), B / _per(_trace(B))),
                      G / _per(_trace(G)))


# --------------------------------------------------------------------------
# ball gyrogroups and the Bloch correspondence
# --------------------------------------------------------------------------

def _ball_axioms(trials, name):
    # the suite cycles its scalars by position, so the triples keep trial order
    yield from run_axiom_suite(bl.ball_model(name), *_ball_vectors(trials, 3)).values()


@prop("einstein-ball-axioms", "ball-gyrogroups", 1e-8)
def _einstein_axioms(trials):
    return _ball_axioms(trials, "einstein")


@prop("mobius-ball-axioms", "ball-gyrogroups", 1e-8)
def _mobius_axioms(trials):
    return _ball_axioms(trials, "mobius")


@prop("gamma-factor-identity", "mean-eigenvalue-rewrite", 1e-10)
def _gamma_identity(trials):
    u, v = _ball_vectors(trials)
    lhs = bl.gamma_factor(bl.einstein_add(u, v))
    rhs = bl.gamma_factor(u) * bl.gamma_factor(v) * (1.0 + np.vecdot(u, v))
    yield abs(lhs - rhs) / np.maximum(1.0, rhs)


@prop("rapidity-metric", "mean-eigenvalue-rewrite", 1e-12)
def _rapidity(trials):
    u, v = _ball_vectors(trials)
    yield abs(bl.rapidity_distance(u, v) - bl.rapidity_distance(v, u))
    yield bl.rapidity_distance(u, u.copy())
    yield trials.flag(bl.rapidity_distance(u, v) >= 0)
    yield abs(bl.rapidity_distance(np.zeros_like(v), v)
              - np.arctanh(np.linalg.norm(v, axis=-1)))


@prop("einstein-gyromidpoint", "gyromidpoint-norm-bound", 1e-10)
def _gyromidpoint(trials):
    u, v = _ball_vectors(trials)
    zero = np.zeros_like(u)
    m = bl.gyromidpoint(u, v)
    yield np.linalg.norm(m - bl.ball_scalar(0.5, bl.einstein_coaddition(u, v)), axis=-1)
    yield -cf.midpoint_vector_check(u, v)
    lhs = 2.0 * bl.rapidity_distance(zero, m)
    yield lhs - (bl.rapidity_distance(zero, u) + bl.rapidity_distance(zero, v))
    # the asymmetric-denominator variant of the bound, recorded only
    nu, nv, nm = (np.linalg.norm(x, axis=-1) for x in (u, v, m))
    asym_rhs = np.sqrt((1 + nu) * (1 + nv) / ((1 - nu) * (1 + nv)))
    asym_violations = np.count_nonzero((1 + nm) / (1 - nm) > asym_rhs + 1e-10)
    note = (f"asymmetric-denominator variant violated on {asym_violations} of "
            f"{trials.count} samples (recorded only)")
    return Outcome(note=note)


@prop("bloch-correspondence", "qubit-state", 1e-12)
def _bloch(trials):
    (v,) = _ball_vectors(trials, 1)
    rho = bl.bloch_to_density(v)
    yield np.linalg.norm(bl.density_to_bloch(rho) - v, axis=-1)
    yield abs(_trace(rho) - 1.0)
    yield trials.flag(min_eig(rho) > 0)
    yield np.linalg.norm(bl.bloch_to_density(np.zeros(3)) - np.eye(2) / 2)


@prop("qubit-eigenvalues", "qubit-eigenvalues", 1e-12)
def _qubit_eigs(trials):
    (v,) = _ball_vectors(trials, 1)
    rho = bl.bloch_to_density(v)
    nv = np.linalg.norm(v, axis=-1)
    w = np.linalg.eigvalsh(rho)
    yield abs(w[:, 0] - (1 - nv) / 2)
    yield abs(w[:, 1] - (1 + nv) / 2)
    det = np.linalg.det(rho).real
    yield abs(det - (1 - nv**2) / 4)
    yield abs(det - 1 / (4 * bl.gamma_factor(v) ** 2))


@prop("qubit-inverse-normalization", "qubit-inverse-normalization", 1e-10)
def _qubit_inverse(trials):
    (u,) = _ball_vectors(trials, 1)
    rho = bl.bloch_to_density(u)
    rho_neg = bl.bloch_to_density(-u)
    inv = invm(rho)
    yield _relerr(gd.dens_neg(rho), rho_neg)
    yield _relerr(inv / _per(_trace(inv)), rho_neg)
    g = _per(bl.gamma_factor(u))
    err_plain = float(np.max(_frobenius(inv / (4 * g) - rho_neg)))
    err_square = float(np.max(_frobenius(inv / (4 * g**2) - rho_neg)))
    constant = "4*gamma^2" if err_square < err_plain else "4*gamma"
    note = (f"normalizing constant matching the inverse state: {constant} "
            f"(worst errors: 4*gamma {err_plain:.3e}, 4*gamma^2 {err_square:.3e})")
    return Outcome(note=note)


@prop("bloch-isomorphism", "qubit-state", 1e-10)
def _bloch_isomorphism(trials):
    def draw(rng, d, i):
        return gen_ball_vector(rng, d), gen_ball_vector(rng, d), rng.uniform(-2.0, 2.0)

    u, v, t = _in_trial_order(trials, 3, draw)
    lhs = bl.bloch_to_density(bl.einstein_add(u, v))
    yield _frobenius(lhs - gd.dens_add(bl.bloch_to_density(u), bl.bloch_to_density(v)))
    lhs = bl.bloch_to_density(bl.ball_scalar(t, v))
    yield _frobenius(lhs - gd.dens_scalar(t, bl.bloch_to_density(v)))


# --------------------------------------------------------------------------
# 2x2 closed forms
# --------------------------------------------------------------------------

def _unit_det_pd(rng, trials, count=2) -> tuple:
    """``count`` unit-determinant 2x2 positive definite matrices."""
    return tuple(gen_random_pd(rng, 2, trials.cond_cap, unit_det=True) for _ in range(count))


@prop("lmap-identities", "difference-quotient-map", 1e-8)
def _lmap(trials):
    # the difference quotient just outside the branch window carries
    # cancellation noise of order eps/|x-1| ~ 1e-9, which bounds how sharply
    # continuity across the switch can be asserted
    yield abs(cf.l_map(0.37, 1.0) - 0.37)
    yield abs(cf.l_map(0.5, 4.0) - 0.4)
    t, x = _in_trial_order(
        trials, 2, lambda rng, d, i: (rng.uniform(-2.0, 2.0), np.exp(rng.uniform(-3.0, 3.0))))
    yield abs(cf.l_map(t, x) - cf.l_map(t, 1.0 / x))
    # continuity across the branch switch
    yield abs(cf.l_map(t, 1.0 + 1.0000001e-7) - cf.l_map(t, 1.0))


@prop("two-by-two-mean-combination", "two-by-two-mean-combination", 1e-9)
def _gm2(trials):
    A, B, t = _in_trial_order(
        trials, 2, lambda rng, d, i: (*_unit_det_pd(rng, trials), _cycle((0.2, 0.5, 0.7), i)))
    G = cf.gm2_det1(A, B, t)
    yield _relerr(G, geo_mean(A, B, t))
    # midpoint rewrite and the value of the half-weight coefficient
    S = A + B
    sqrt_det = np.sqrt(cf.det2(S).real)
    yield _relerr(geo_mean(A, B, 0.5), S / _per(sqrt_det))
    lam = cf.relative_eigenvalue(A, B)
    yield abs(cf.l_map(0.5, lam) - 1.0 / sqrt_det)
    # branch independence: both eigenvalues of A B^{-1} give one answer
    combo_lo = _per(cf.l_map(1 - t, 1 / lam)) * A + _per(cf.l_map(t, 1 / lam)) * B
    yield _relerr(G, combo_lo)


@prop("two-by-two-spectral-closed-form", "two-by-two-spectral-closed-form", 1e-9)
def _sgm2(trials):
    def draw(rng, d, i):
        return (_cycle((0.3, 0.5, 0.8), i), *_unit_det_pd(rng, trials), *_pd(rng, 2, trials))

    t, A, B, A2, B2 = _in_trial_order(trials, 2, draw)
    for X, Y in ((A, B), (A2, B2)):
        yield _relerr(cf.sgm2(X, Y, t), spectral_mean(X, Y, t))


@prop("det-shift-identity", "det-shift-identity", 1e-12)
def _det_shift(trials):
    yield cf.det_shift_identity(1.0, np.array([[0.0, 1.0], [1.0, 0.0]]))
    c, X = _in_trial_order(
        trials, 2, lambda rng, d, i: (rng.uniform(-3.0, 3.0), complex_gaussian(rng, (2, 2))))
    yield cf.det_shift_identity(c, X)
    yield cf.det_shift_identity(0.0, X)


@prop("block-norm-bound", "block-norm-bound", 1e-10)
def _block_norm(trials):
    for A, B, X in trials.stacks(
            lambda rng, d, i: gen_psd_block_triple(rng, d, trials.cond_cap)):
        op = np.linalg.norm(X, ord=2, axis=(-2, -1))
        yield op - np.sqrt(_top_eig(A) * _top_eig(B))


@prop("sum-norm-bound", "sum-norm-bound", 1e-10)
def _sum_norm(trials):
    A, B, A2, B2 = _in_trial_order(
        trials, 2, lambda rng, d, i: (*_unit_det_pd(rng, trials), *_pd(rng, 2, trials)))
    yield -cf.norm_product_check(A, B)
    # rescaled form for general determinants
    a = np.sqrt(cf.det2(A2).real)
    b = np.sqrt(cf.det2(B2).real)
    S = A2 / _per(a) + B2 / _per(b)
    lhs = np.sqrt(a * b) * _top_eig(S)
    rhs = np.sqrt(cf.det2(S).real * _top_eig(A2) * _top_eig(B2))
    yield lhs - rhs


@prop("qubit-mean-combination", "qubit-mean-combination", 1e-9)
def _qubit_geo(trials):
    u, v = _ball_vectors(trials)
    t = _cycle((0.25, 0.5, 0.75), np.arange(trials.count))
    oracle = geo_mean(bl.bloch_to_density(u), bl.bloch_to_density(v), t)
    yield _relerr(cf.qubit_geo_mean(u, v, t), oracle)
    yield _relerr(cf.qubit_geo_mean(u, u.copy(), t), bl.bloch_to_density(u))


@prop("mu-eigenvalue-rewrite", "mean-eigenvalue-rewrite", 1e-10)
def _mu_rewrite(trials):
    u, v = _ball_vectors(trials)
    mu_hi, mu_lo = cf.qubit_mean_eigenvalues(u, v)
    yield abs(mu_hi * mu_lo - 1.0)
    d = bl.rapidity_distance(u, v)
    yield abs(mu_hi - np.exp(d)) / np.maximum(1.0, np.exp(d))
    # they really are the spectrum of (2 g_u rho_u)(2 g_v rho_v)^{-1}
    A = 2 * _per(bl.gamma_factor(u)) * bl.bloch_to_density(u)
    B = 2 * _per(bl.gamma_factor(v)) * bl.bloch_to_density(v)
    spec = np.sort(np.linalg.eigvals(A @ invm(B)).real, axis=-1)
    yield np.max(np.abs(spec - np.stack([mu_lo, mu_hi], axis=-1)), axis=-1)


@prop("qubit-spectral-closed-form", "qubit-spectral-closed-form", 1e-9)
def _qubit_spectral(trials):
    u, v = _ball_vectors(trials)
    t = _cycle((0.25, 0.75, 0.5), np.arange(trials.count))
    oracle = spectral_mean(bl.bloch_to_density(u), bl.bloch_to_density(v), t)
    yield _relerr(cf.qubit_spectral_mean(u, v, t), oracle)
    yield _relerr(cf.qubit_spectral_mean(u, u.copy(), t), bl.bloch_to_density(u))


# --------------------------------------------------------------------------
# Frobenius-norm semi-metric variant
# --------------------------------------------------------------------------

@prop("frobenius-semimetric-properties", "frobenius-semimetric", 1e-8)
def _frobenius_semimetric(trials):
    def draw(rng, d, i):
        return (*_pd(rng, d, trials), rng.uniform(0.2, 5.0), _cycle(T_GRID, i))

    def dist(X, Y):
        return distance("semimetric_frob", X, Y)

    for A, B, alpha, t in trials.stacks(draw):
        dv = dist(A, B)
        M = spectral_mean(A, B, 0.5)
        yield abs(dv - dist(B, A))
        yield dist(A, A.copy())
        yield abs(dist(_per(alpha) * A, _per(alpha) * B) - dv)
        yield abs(dist(invm(A), invm(B)) - dv)
        yield from midpoint_deviation("semimetric_frob", A, B, M)
        yield abs(dist(A, spectral_mean(A, B, t)) - t * dv)
