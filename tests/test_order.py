"""Order-inequality checkers, the five-way equivalence, majorization."""

import numpy as np
import pytest

from gyromean import errors
from gyromean.kernel import Loewner, loewner_compare, logm, powm
from gyromean.means import geo_mean, spectral_mean
from gyromean.order import (
    check,
    check_bounds_spectral,
    check_contraction,
    check_equivalence_five,
    check_furuta,
    check_loewner_heinz,
    check_log_sum_condition,
    check_logmaj_mean,
    check_main_spectral_AH,
    check_power_chain,
    equivalence_statements,
    weak_majorize,
)
from gyromean.randgen import (
    gen_contraction_for,
    gen_dominated_pair,
    gen_log_sum_pair,
    gen_random_pd,
    gen_sharp_contracted_pair,
    gen_spectral_premise_pair,
    gen_spread_pd,
    substream,
)


def test_furuta_scalar_fixture():
    res = check_furuta(np.diag([2.0, 1.0]), np.eye(2), 1.0)
    assert res.premise_held and res.conclusion_held
    # A # B^{-1} = diag(sqrt(2), 1) >= I with margin 0 on the second eigenvalue
    assert res.margin == pytest.approx(0.0, abs=1e-12)


def test_furuta_random_dominated_pairs():
    rng = substream(401, "order-furuta")
    for p in (0.5, 1.0, 2.0, 5.0):
        A, B = gen_dominated_pair(rng, 3)
        res = check_furuta(A, B, p)
        assert res.premise_held
        assert res.conclusion_held, res.margin


def test_equivalence_scalar_fixtures():
    assert equivalence_statements(2 * np.eye(2), np.eye(2)) == (True,) * 5
    assert equivalence_statements(np.eye(2), 2 * np.eye(2)) == (False,) * 5


def test_equivalence_consistency_random():
    rng = substream(402, "order-equivalence")
    for i in range(40):
        if i % 2 == 0:
            A, B = gen_dominated_pair(rng, 3)
            expect_all = True
        else:
            A = gen_random_pd(rng, 3)
            B = gen_random_pd(rng, 3)
            expect_all = None
        flags = equivalence_statements(A, B)
        assert len(set(flags)) == 1
        if expect_all:
            assert all(flags)
        res = check_equivalence_five(A, B)
        assert res.conclusion_held


def test_contraction_lemma():
    rng = substream(403, "order-contraction")
    for _ in range(30):
        X = gen_random_pd(rng, 3)
        S = gen_contraction_for(rng, X)
        res = check_contraction(S, X)
        assert res.premise_held
        assert res.conclusion_held, res.margin


def test_contraction_converse_fails_on_fixture():
    # permutation S is a contraction, yet S X S <= X fails for generic X
    S = np.array([[0.0, 1.0], [1.0, 0.0]])
    X = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert loewner_compare(S, np.eye(2)) in (Loewner.LE, Loewner.EQ)
    assert loewner_compare(S @ X @ S, X) is Loewner.INCOMPARABLE


def test_ando_hiai_rescaled_premise():
    rng = substream(404, "order-ah")
    for p in (1.5, 2.0, 3.0):
        A, B = gen_sharp_contracted_pair(rng, 3)
        res = check(
            "ando_hiai", A, B, p)
        assert res.premise_held
        assert res.conclusion_held, res.margin


def test_power_chain_and_special_case():
    rng = substream(405, "order-chain")
    for p in (0.5, 1.0, 2.0, 3.0):
        A, B = gen_sharp_contracted_pair(rng, 3)
        res = check_power_chain(A, B, p)
        assert res.premise_held
        assert res.conclusion_held, res.margin
    # displayed special case at p = 2: A^3 # B <= A
    A, B = gen_sharp_contracted_pair(rng, 3)
    G = geo_mean(powm(A, 3.0), B, 0.5)
    assert loewner_compare(G, A, 1e-8) in (Loewner.LE, Loewner.EQ)


def test_spectral_ando_hiai_condition():
    rng = substream(406, "order-spec-ah")
    for t in (0.25, 0.5, 0.9):
        for p in (1.0, 2.0, 5.0):
            A, B = gen_spectral_premise_pair(rng, 3, t)
            res = check_main_spectral_AH(A, B, t, p)
            assert res.premise_held
            assert res.conclusion_held, (t, p, res.margin)


def test_loewner_heinz_construction():
    rng = substream(407, "order-lh")
    for _ in range(20):
        A = gen_spread_pd(rng, 3, 1.0)
        B = A + gen_spread_pd(rng, 3, 0.5)
        H = (lambda M: 0.5 * (M + M.conj().T))(
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        lam = np.linalg.eigvalsh(powm(A, -0.5) @ H @ H @ powm(A, -0.5))[-1]
        C = (0.99 / np.sqrt(lam)) * H
        res = check("loewner_heinz", A, B, C)
        assert res.premise_held
        assert res.conclusion_held, res.margin


def test_bounds_spectral_two_sided():
    rng = substream(408, "order-bounds")
    for t in (0.25, 0.5, 0.75):
        A = gen_random_pd(rng, 3)
        B = gen_random_pd(rng, 3)
        res = check_bounds_spectral(A, B, t)
        assert res.conclusion_held, res.margin
        # lower bound holds directly
        lower = 2.0 ** (1 + t) * powm(A + np.linalg.inv(B), -t) - np.linalg.inv(A)
        assert loewner_compare(lower, spectral_mean(A, B, t), 1e-8) in \
            (Loewner.LE, Loewner.EQ)


def test_log_sum_condition():
    rng = substream(409, "order-logsum")
    for _ in range(20):
        A, B = gen_log_sum_pair(rng, 3)
        assert np.linalg.eigvalsh(logm(A) + logm(B))[-1] <= 1e-10
        res = check_log_sum_condition(A, B)
        assert res.premise_held
        assert res.conclusion_held, res.margin
    # contractive inputs imply the log-sum condition
    A = 0.99 * gen_random_pd(rng, 3)
    A /= np.linalg.eigvalsh(A)[-1] / 0.9
    B = gen_random_pd(rng, 3)
    B /= np.linalg.eigvalsh(B)[-1] / 0.9
    assert np.linalg.eigvalsh(logm(A) + logm(B))[-1] <= 1e-10


def test_d_le_delta_check():
    rng = substream(410, "order-dd")
    A = gen_random_pd(rng, 4)
    B = gen_random_pd(rng, 4)
    res = check("d_le_delta", A, B)
    assert res.conclusion_held and res.margin >= -1e-10


def test_logmaj_mean():
    rng = substream(411, "order-logmaj")
    for t in (0.1, 0.3, 0.5, 0.9):
        A = gen_random_pd(rng, 4)
        B = gen_random_pd(rng, 4)
        res = check_logmaj_mean(A, B, t)
        assert res.conclusion_held, res.margin


def test_weak_majorize_fixtures():
    dom, totals = weak_majorize([1.0, 1.0], [2.0, 0.0])
    assert dom and totals
    dom, _ = weak_majorize([3.0, 1.0], [2.0, 2.0])
    assert not dom
    dom, totals = weak_majorize([2.0, 1.0], [4.0, 1.0])
    assert dom and not totals


def test_weak_majorize_log_scale():
    rng = substream(412, "order-wmaj")
    A = gen_random_pd(rng, 4)
    B = gen_random_pd(rng, 4)
    t = 0.3
    x = np.linalg.eigvalsh(geo_mean(A, B, t))[::-1]
    half = powm(B, t / 2)
    y = np.linalg.eigvalsh(half @ powm(A, 1 - t) @ half)[::-1]
    dom, totals = weak_majorize(x, y, log_scale=True)
    assert dom and totals


def test_weak_majorize_errors():
    with pytest.raises(errors.LengthMismatch):
        weak_majorize([1.0], [1.0, 2.0])
    with pytest.raises(errors.NonPositiveEntry):
        weak_majorize([1.0, -1.0], [1.0, 1.0], log_scale=True)
    with pytest.raises(ValueError):
        weak_majorize([1.0, 2.0], [2.0, 1.0])


# (eigh, svd) calls per check in a fresh memo: each distinct matrix is
# decomposed once (the square root of A for both gaps of loewner_heinz, the
# inverse of A for both bounds of bounds_spectral, and A and B once across
# the public calls of bounds_spectral), each gap's spectrum is that of one
# eigh, np.linalg.eigvalsh is never called, and the spectral mean's polar
# factor costs an svd
EIGENSOLVES = {
    "loewner_heinz": (lambda A, B: check_loewner_heinz(A, A + B, 0.1 * np.eye(3)), 6, 0),
    "bounds_spectral": (lambda A, B: check_bounds_spectral(A, B, 0.3), 9, 1),
}


@pytest.mark.parametrize("name", list(EIGENSOLVES))
def test_a_check_decomposes_each_matrix_once(name, monkeypatch):
    call, eighs, svds = EIGENSOLVES[name]
    rng = substream(217, "order-eigensolves")
    A, B = gen_random_pd(rng, 3), gen_random_pd(rng, 3)
    solves = {"eigh": 0, "eigvalsh": 0, "svd": 0}

    def counting(solver):
        solve = getattr(np.linalg, solver)

        def counted(M):
            solves[solver] += 1
            return solve(M)
        return counted

    for solver in solves:
        monkeypatch.setattr(np.linalg, solver, counting(solver))
    assert call(A, B).premise_held
    assert solves == {"eigh": eighs, "eigvalsh": 0, "svd": svds}


def test_unknown_case():
    with pytest.raises(errors.UnknownCase):
        check("golden_thompson", np.eye(2), np.eye(2))
