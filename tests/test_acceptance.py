"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  The full-campaign criteria reuse one default campaign run
(module-scoped) plus an independent second run for the determinism check.
Worst residuals are folded with ``np.maximum`` or ``np.max``, which keep a
NaN, so a NaN residual fails its criterion; Python's ``max(0.0, nan)`` is 0.0.
"""

import time

import numpy as np
import pytest

from gyromean import gyrocone, gyrodensity
from gyromean.ball import (
    ball_model,
    ball_scalar,
    bloch_to_density,
    einstein_add,
    gamma_factor,
)
from gyromean.closedform2x2 import (
    gm2_det1,
    l_map,
    qubit_geo_mean,
    qubit_mean_eigenvalues,
    qubit_spectral_mean,
    relative_eigenvalue,
    sgm2,
)
from gyromean.fixtures import TRIANGLE_REFERENCE, triangle_measurements
from gyromean.gyroaxioms import run_axiom_suite
from gyromean.gyrodensity import (
    dens_add,
    dens_cogyroline,
    dens_gyration,
    dens_gyroline,
    dens_neg,
    dens_scalar,
)
from gyromean.harness import CampaignConfig, run_campaign
from gyromean.means import (
    geo_mean,
    riccati_residual,
    spectral_defining_residual,
    spectral_mean,
)
from gyromean.metrics import distance
from gyromean.order import weak_majorize
from gyromean.randgen import (
    gen_ball_vector,
    gen_commuting_pair,
    gen_density,
    gen_random_pd,
    gen_spread_pd,
    substream,
)
from triple_stacks import triple_stacks

DIMS = (2, 3, 4, 6)
T_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)

BATTERY_PROPERTIES = (
    "loewner-heinz",
    "furuta",
    "ando-hiai",
    "spectral-ando-hiai",
    "power-chain",
    "contraction-lemma",
    "spectral-mean-bounds",
    "five-way-equivalence",
)


def _verdict(number: int, description: str, ok: bool, extra: str = ""):
    line = f"{'PASS' if ok else 'FAIL'}: criterion {number} - {description}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def default_campaign():
    t0 = time.perf_counter()
    report = run_campaign(CampaignConfig())
    elapsed = time.perf_counter() - t0
    return report, elapsed


def test_criterion_1_counterexample_reproduction():
    t0 = time.perf_counter()
    m = triangle_measurements()
    elapsed = time.perf_counter() - t0
    ok = m["matched_variant"] is not None and m["matched_error"] <= 1e-5
    for kind in ("semimetric_op", "semimetric_frob"):
        ok = ok and m["variants"][kind]["triangle_gap"] > 0
    ok = ok and elapsed < 1.0
    _verdict(1, "semi-metric counterexample values and triangle failure", ok,
             f"{m['matched_variant']} at scale {m['matched_scale']}, "
             f"worst error {m['matched_error']:.2e} vs {TRIANGLE_REFERENCE}, "
             f"{elapsed:.2f}s")


def test_criterion_2_defining_equation_residuals():
    t0 = time.perf_counter()
    worst = 0.0
    for dim in DIMS:
        for i in range(200):
            rng = substream(4242, "acceptance-residuals", dim, i)
            A = gen_random_pd(rng, dim)
            B = gen_random_pd(rng, dim)
            X = geo_mean(A, B, 0.5)
            worst = np.maximum(worst, riccati_residual(A, B, X) / np.linalg.norm(B))
            for t in (0.25, 0.5, 0.75):
                S = spectral_mean(A, B, t)
                worst = np.maximum(worst,
                                   spectral_defining_residual(A, B, t, S)
                                   / max(1.0, np.linalg.norm(S)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    _verdict(2, "Riccati and spectral defining residuals below 1e-9 relative",
             ok, f"worst {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_spectral_midpoint_theorem():
    worst = 0.0
    for i in range(200):
        rng = substream(4242, "acceptance-midpoint", i)
        dim = DIMS[i % len(DIMS)]
        A = gen_random_pd(rng, dim)
        B = gen_random_pd(rng, dim)
        d = distance("semimetric_op", A, B)
        M = spectral_mean(A, B, 0.5)
        worst = np.maximum(worst, abs(distance("semimetric_op", A, M) - d / 2))
        worst = np.maximum(worst, abs(distance("semimetric_op", B, M) - d / 2))
        t = T_GRID[i % len(T_GRID)]
        St = spectral_mean(A, B, t)
        worst = np.maximum(worst, abs(distance("semimetric_op", A, St) - t * d))
        worst = np.maximum(worst, abs(distance("semimetric_op", B, St) - (1 - t) * d))
    ok = worst < 1e-8
    _verdict(3, "spectral mean is the semi-metric midpoint, with weighted division",
             ok, f"worst deviation {worst:.2e}")


def test_criterion_4_inequality_battery(default_campaign):
    report, _ = default_campaign
    by_id = {r.property_id: r for r in report.records}
    ok = True
    details = []
    for pid in BATTERY_PROPERTIES:
        rec = by_id[pid]
        ok = ok and rec.passed and rec.premise_held >= 50
        details.append(f"{pid}: {rec.premise_held} held, "
                       f"worst {rec.max_violation:.1e}")
    _verdict(4, "order-inequality battery with >= 50 premise-held samples each",
             ok, "; ".join(details))


def test_criterion_5_semimetric_riemannian_bound():
    worst_gap, worst_eq, logmaj_ok = 0.0, 0.0, True
    for i in range(200):
        rng = substream(4242, "acceptance-dledelta", i)
        dim = DIMS[i % len(DIMS)]
        A = gen_random_pd(rng, dim)
        B = gen_random_pd(rng, dim)
        worst_gap = np.maximum(worst_gap, distance("semimetric_frob", A, B)
                               - distance("riemannian", A, B))
        Ac, Bc = gen_commuting_pair(rng, dim)
        worst_eq = np.maximum(worst_eq, abs(distance("semimetric_frob", Ac, Bc)
                                            - distance("riemannian", Ac, Bc)))
        t = T_GRID[i % len(T_GRID)]
        x = np.linalg.eigvalsh(geo_mean(A, B, t))[::-1]
        from gyromean.kernel import hermitian_part, powm
        half = powm(B, t / 2)
        y = np.linalg.eigvalsh(hermitian_part(half @ powm(A, 1 - t) @ half))[::-1]
        dom, totals = weak_majorize(x, y, log_scale=True)
        logmaj_ok = logmaj_ok and dom and totals
    ok = worst_gap <= 1e-10 and worst_eq < 1e-9 and logmaj_ok
    _verdict(5, "semi-metric bounded by the Riemannian metric; log-majorization",
             ok, f"worst gap {worst_gap:.2e}, commuting mismatch {worst_eq:.2e}")


def test_criterion_6_gyro_axiom_suites():
    worst_line = 0.0
    residuals = []
    # cone triples across dimensions
    by_dim = {}
    for i in range(100):
        rng = substream(4242, "acceptance-cone", i)
        d = DIMS[i % len(DIMS)]
        by_dim.setdefault(d, []).extend(gen_spread_pd(rng, d, 2.0) for _ in range(3))
    for d, items in by_dim.items():
        residuals += run_axiom_suite(gyrocone.cone_model(d), *triple_stacks(items)).values()
    # density triples, each drawn from its own substream
    rngs = (substream(4242, "acceptance-dens", i) for i in range(100))
    stacks = triple_stacks(gen_density(rng, 3) for rng in rngs for _ in range(3))
    residuals += run_axiom_suite(gyrodensity.density_model(3), *stacks).values()
    # both ball models
    stacks = triple_stacks(gen_ball_vector(substream(4242, "acceptance-ball", i, k))
                           for i in range(100) for k in range(3))
    for name in ("einstein", "mobius"):
        residuals += run_axiom_suite(ball_model(name), *stacks).values()
    # gyroline / cogyroline identifications
    for i in range(60):
        rng = substream(4242, "acceptance-lines", i)
        d = DIMS[i % len(DIMS)]
        A, B = gen_spread_pd(rng, d, 1.5), gen_spread_pd(rng, d, 1.5)
        t = float(rng.uniform(0, 1))
        # the paper's definitions, composed from the public primitives
        neg_a = gyrocone.cone_neg(A)
        line = gyrocone.cone_add(A, gyrocone.cone_scalar(t, gyrocone.cone_add(neg_a, B)))
        coline = gyrocone.cone_add(
            gyrocone.cone_scalar(t, gyrocone.cooperation(neg_a, B)), A)
        worst_line = np.maximum(worst_line, np.linalg.norm(
            gyrocone.gyroline(t, A, B) - line))
        worst_line = np.maximum(worst_line, np.linalg.norm(
            gyrocone.cogyroline(t, A, B) - coline))
        rho, sigma = gen_density(rng, d), gen_density(rng, d)
        prim = dens_add(rho, dens_scalar(t, dens_add(dens_neg(rho), sigma)))
        worst_line = np.maximum(worst_line, np.linalg.norm(
            dens_gyroline(t, rho, sigma) - prim))
        coop = dens_add(dens_neg(rho),
                        dens_gyration(dens_neg(rho), dens_neg(sigma), sigma))
        worst_line = np.maximum(worst_line, np.linalg.norm(
            dens_cogyroline(t, rho, sigma) - dens_add(dens_scalar(t, coop), rho)))
    # np.max keeps a NaN residual, which then fails the comparison
    worst_suite = np.max(residuals)
    ok = worst_suite < 1e-8 and worst_line < 1e-9
    _verdict(6, "gyro axiom suites and gyroline identifications", ok,
             f"worst axiom residual {worst_suite:.2e}, "
             f"worst line residual {worst_line:.2e}")


def test_criterion_7_closed_form_agreement():
    worst, worst_branch = 0.0, 0.0
    for i in range(500):
        rng = substream(4242, "acceptance-closed", i)
        t = (0.2, 0.35, 0.5, 0.75, 0.9)[i % 5]
        # unit-determinant linear combination
        A = gen_random_pd(rng, 2, unit_det=True)
        B = gen_random_pd(rng, 2, unit_det=True)
        oracle = geo_mean(A, B, t)
        worst = np.maximum(worst, np.linalg.norm(gm2_det1(A, B, t) - oracle)
                           / np.linalg.norm(oracle))
        lam = relative_eigenvalue(A, B)
        other = l_map(1 - t, 1 / lam) * A + l_map(t, 1 / lam) * B
        worst_branch = np.maximum(worst_branch,
                                  np.linalg.norm(gm2_det1(A, B, t) - other))
        # spectral closed form, unit-determinant and general variants
        oracle = spectral_mean(A, B, t)
        worst = np.maximum(worst, np.linalg.norm(sgm2(A, B, t) - oracle)
                           / np.linalg.norm(oracle))
        A2 = float(rng.uniform(0.5, 4.0)) * A
        B2 = float(rng.uniform(0.5, 4.0)) * B
        oracle = spectral_mean(A2, B2, t)
        worst = np.maximum(worst, np.linalg.norm(sgm2(A2, B2, t) - oracle)
                           / np.linalg.norm(oracle))
        # qubit means
        u, v = gen_ball_vector(rng), gen_ball_vector(rng)
        rho_u, rho_v = bloch_to_density(u), bloch_to_density(v)
        oracle = geo_mean(rho_u, rho_v, t)
        worst = np.maximum(worst, np.linalg.norm(qubit_geo_mean(u, v, t) - oracle)
                           / np.linalg.norm(oracle))
        hi, lo = qubit_mean_eigenvalues(u, v)
        ga, gb = gamma_factor(u), gamma_factor(v)
        worst_branch = np.maximum(worst_branch, np.linalg.norm(
            (l_map(1 - t, hi) - l_map(1 - t, lo)) * (ga / gb) ** t * rho_u
            + (l_map(t, hi) - l_map(t, lo)) * (gb / ga) ** (1 - t) * rho_v))
        oracle = spectral_mean(rho_u, rho_v, t)
        worst = np.maximum(worst, np.linalg.norm(qubit_spectral_mean(u, v, t) - oracle)
                           / np.linalg.norm(oracle))
    ok = worst < 1e-9 and worst_branch < 1e-10
    _verdict(7, "closed forms agree with the general path on 500 fixtures", ok,
             f"worst relative error {worst:.2e}, "
             f"branch dependence {worst_branch:.2e}")


def test_criterion_8_bloch_isomorphism():
    worst_iso, worst_spec = 0.0, 0.0
    for i in range(300):
        rng = substream(4242, "acceptance-bloch", i)
        u, v = gen_ball_vector(rng), gen_ball_vector(rng)
        t = float(rng.uniform(-2, 2))
        worst_iso = np.maximum(worst_iso, np.linalg.norm(
            bloch_to_density(einstein_add(u, v))
            - dens_add(bloch_to_density(u), bloch_to_density(v))))
        worst_iso = np.maximum(worst_iso, np.linalg.norm(
            bloch_to_density(ball_scalar(t, v))
            - dens_scalar(t, bloch_to_density(v))))
        rho = bloch_to_density(v)
        nv = np.linalg.norm(v)
        w = np.linalg.eigvalsh(rho)
        worst_spec = np.max([worst_spec, abs(w[0] - (1 - nv) / 2),
                             abs(w[1] - (1 + nv) / 2),
                             abs(np.linalg.det(rho).real - (1 - nv**2) / 4)])
    ok = worst_iso < 1e-10 and worst_spec < 1e-12
    _verdict(8, "Bloch map intertwines ball and density operations", ok,
             f"worst isomorphism residual {worst_iso:.2e}, "
             f"worst spectral error {worst_spec:.2e}")


def test_criterion_9_campaign_determinism(default_campaign):
    first, elapsed = default_campaign
    second = run_campaign(CampaignConfig(), jobs=2)
    identical = first.canonical_json() == second.canonical_json()
    ok = identical and first.passed and second.passed and elapsed < 5.0
    _verdict(9, "byte-identical reports across runs and thread counts", ok,
             f"campaign {elapsed:.1f}s, "
             f"{sum(r.passed for r in first.records)}/{len(first.records)} "
             f"properties pass")
