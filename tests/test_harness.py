"""Random generation, campaign determinism, reports, counterexamples."""

import collections
import hashlib
import json

import numpy as np
import pytest

from gyromean import closedform2x2, gyrocone, kernel, properties, registry
from gyromean.harness import (
    CampaignConfig,
    Report,
    reproduce_counterexamples,
    run_campaign,
)
from gyromean.kernel import HERMITICITY_TOL, LOEWNER_TOL, PD_TOL
from gyromean.randgen import GeneratorStack, gen_random_pd, substream
from gyromean.registry import (
    REQUIRED_ANCHORS,
    T_GRID,
    PropertyRecord,
    Trials,
    all_properties,
    prop,
    run_property,
)

SMALL = CampaignConfig(seed=11, trials=8, dims=(2, 3))


def test_substreams_draw_what_philox_with_their_key_draws():
    digest = hashlib.blake2b(b"harness-key\x1f3\x1f", digest_size=8).digest()
    derived = 901 ^ int.from_bytes(digest, "little")
    rng = substream(901, "harness-key", 3)
    ref = np.random.Generator(np.random.Philox(key=derived))
    assert np.array_equal(rng.standard_normal(64), ref.standard_normal(64))
    assert np.array_equal(rng.integers(0, 2**63, 16), ref.integers(0, 2**63, 16))


def test_gen_random_pd_is_pd_and_conditioned():
    rng = substream(901, "harness-pd")
    for dim in (2, 4, 6):
        A = gen_random_pd(rng, dim, cond_cap=1e4)
        w = np.linalg.eigvalsh(A)
        assert w[0] > 0
        assert w[-1] / w[0] <= 1e4
        np.testing.assert_allclose(A, A.conj().T)


def test_gen_random_pd_unit_det():
    rng = substream(902, "harness-unitdet")
    A = gen_random_pd(rng, 3, unit_det=True)
    assert abs(np.linalg.det(A).real - 1.0) < 1e-9


def test_gen_random_pd_determinism():
    a = gen_random_pd(substream(42, "x", 0), 4)
    b = gen_random_pd(substream(42, "x", 0), 4)
    assert np.array_equal(a, b)
    c = gen_random_pd(substream(42, "x", 1), 4)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("cap", [1.0, 0.5, -1.0, float("nan")])
def test_gen_random_pd_refuses_a_cap_no_matrix_meets(cap):
    with pytest.raises(ValueError, match="cond_cap must exceed 1"):
        gen_random_pd(substream(903, "harness-cap"), 3, cond_cap=cap)


def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(trials=0)
    with pytest.raises(ValueError):
        CampaignConfig(dims=())
    with pytest.raises(ValueError):
        CampaignConfig(dims=(1,))
    with pytest.raises(ValueError):
        CampaignConfig(dims=(9,))
    with pytest.raises(ValueError):
        CampaignConfig(cond_cap=1.0)
    for cap in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            CampaignConfig(cond_cap=cap)
    with pytest.raises(ValueError):
        CampaignConfig(seed=-1)
    # a value of the wrong kind is refused, not truncated
    for bad in ({"trials": 2.5}, {"trials": True}, {"seed": 1.5}, {"seed": -0.5},
                {"seed": True}, {"dims": (2.7,)}, {"dims": (3, 2.0)},
                {"dims": (True, 3)}, {"cond_cap": "1e4"}, {"cond_cap": True}):
        with pytest.raises(ValueError):
            CampaignConfig(**bad)
    config = CampaignConfig(seed=np.uint64(2**63), trials=np.int64(5), dims=(np.int32(3),))
    assert (config.seed, config.trials, config.dims) == (2**63, 5, (3,))
    assert type(config.seed) is int and type(config.trials) is int


@pytest.mark.parametrize("dims, count", [((2, 3), 7), ((3, 2, 3), 8), ((4,), 3),
                                         ((4, 2, 3), 2)])
def test_each_dimension_stack_draws_from_its_own_substream(dims, count):
    trials = Trials(5, count, dims, 1e4, 1e-9, "stacks-contract")
    calls = []

    def draw(rng, d, i):
        calls.append(d)
        return (gen_random_pd(rng, d), properties._cycle(T_GRID, i), 0.5,
                rng.uniform(), i)

    # trial i runs at dims[i % len(dims)]; its dimension's trials are drawn at
    # once on the substream (seed, stream, "dim=<d>"), and trial i is its row
    per_dim = {}
    for i in range(count):
        per_dim.setdefault(dims[i % len(dims)], []).append(i)
    want = [draw(GeneratorStack(substream(5, "stacks-contract", f"dim={d}"), len(i)), d,
                 np.array(i))
            for d, i in per_dim.items()]
    del calls[:]
    stacks = list(trials.stacks(draw))
    # one draw per dimension, in order of first appearance
    assert calls == list(per_dim)
    assert len(stacks) == len(per_dim)
    for fields, draws, i in zip(stacks, want, per_dim.values()):
        assert len(fields) == len(draws)
        assert np.array_equal(fields[-1], i)
        for got, expected in zip(fields, draws):
            assert got.shape[0] == len(i)
            assert np.array_equal(got, np.broadcast_to(expected, got.shape))


def test_a_campaign_builds_one_substream_per_dimension_stack(monkeypatch):
    drawn = []

    def counted(seed, *coords):
        drawn.append(coords)
        return substream(seed, *coords)

    monkeypatch.setattr(registry, "substream", counted)
    run_campaign(SMALL)
    # one per (stream, dimension) stack; one per trial made 472.  The two cone
    # axiom properties share the "cone-gyrogroup-axioms" samples, so draw
    # each of its stacks twice
    assert len(drawn) == 97
    assert {d for _, d in drawn} == {"dim=2", "dim=3"}
    repeated = {c: n for c, n in collections.Counter(drawn).items() if n > 1}
    assert repeated == {("cone-gyrogroup-axioms", "dim=2"): 2,
                        ("cone-gyrogroup-axioms", "dim=3"): 2}


def test_registry_covers_every_anchor():
    anchors = {spec.anchor for spec in all_properties()}
    missing = [a for a in REQUIRED_ANCHORS if a not in anchors]
    assert not missing


def test_campaign_report_structure():
    report = run_campaign(SMALL)
    ids = [r.property_id for r in report.records]
    assert len(ids) == len(set(ids))
    assert "anchor-coverage" in ids
    coverage = next(r for r in report.records if r.property_id == "anchor-coverage")
    assert coverage.passed
    parsed = json.loads(report.to_json())
    assert parsed["config"]["seed"] == 11
    assert {p["property_id"] for p in parsed["properties"]} == set(ids)
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0].startswith("property_id,anchor,")
    assert len(csv_text.splitlines()) == len(ids) + 1


def test_campaign_determinism_across_runs_and_jobs():
    a = run_campaign(SMALL, jobs=1)
    b = run_campaign(CampaignConfig(seed=11, trials=8, dims=(2, 3)), jobs=3)
    assert a.canonical_json() == b.canonical_json()
    # the timestamped serialization differs only in the timestamp field
    da = json.loads(a.to_json())
    db = json.loads(b.to_json())
    da.pop("timestamp"), db.pop("timestamp")
    assert da == db


def test_campaign_seed_changes_results():
    a = run_campaign(SMALL)
    b = run_campaign(CampaignConfig(seed=12, trials=8, dims=(2, 3)))
    assert a.canonical_json() != b.canonical_json()


def test_reproduce_counterexamples():
    report = reproduce_counterexamples()
    assert report.passed
    by_id = {r.property_id: r for r in report.records}
    assert by_id["triangle-inequality-failure"].passed
    assert by_id["contraction-converse-witness"].passed
    for key in ("triangle-value-1", "triangle-value-2", "triangle-value-3"):
        assert by_id[key].max_violation < 1e-5


def test_unasserted_property_serializes_with_null_threshold():
    report = run_campaign(SMALL)
    rec = next(r for r in report.records
               if r.property_id == "semimetric-geodesic-question")
    assert not rec.asserted
    assert rec.passed  # recorded only, never fails the campaign
    parsed = json.loads(report.to_json())
    row = next(p for p in parsed["properties"]
               if p["property_id"] == "semimetric-geodesic-question")
    assert row["threshold"] is None


# every registered property's pass threshold, written out so that a drifting
# @prop threshold fails here
THRESHOLDS = {
    **dict.fromkeys((
        "ando-hiai", "cone-gyrogroup-axioms", "cone-gyrovector-axioms",
        "congruence-inversion-order", "contraction-lemma", "density-gyrovector-space",
        "einstein-ball-axioms", "five-way-equivalence", "frobenius-semimetric-properties",
        "furuta", "gyroline-translation", "lmap-identities", "loewner-heinz",
        "logmaj-mean", "mean-bijection-roundtrip", "mobius-ball-axioms", "power-chain",
        "riemannian-geodesic-midpoint", "semimetric-axioms", "semimetric-invariance",
        "spectral-ando-hiai", "spectral-mean-bounds", "spectral-midpoint",
        "sufficient-conditions"), 1e-8),
    **dict.fromkeys((
        "block-psd-maximality", "cone-gyrolines", "cone-operations",
        "cooperation-commutativity", "d-le-delta", "density-gyrolines",
        "geodesic-curve-identities", "gyration-trace-invariance", "karcher-residual",
        "qubit-mean-combination", "qubit-spectral-closed-form", "riccati-residual",
        "spectral-curve-identities", "spectral-defining-residual",
        "spectral-mean-algebra", "two-by-two-mean-combination",
        "two-by-two-spectral-closed-form"), 1e-9),
    **dict.fromkeys((
        "bloch-isomorphism", "block-norm-bound", "cone-gyration-unitarity",
        "einstein-gyromidpoint", "gamma-factor-identity", "majorization-prefix-rules",
        "mu-eigenvalue-rewrite", "qubit-inverse-normalization",
        "spectral-bounds-premise-free", "sum-norm-bound", "thompson-sup-ratio"), 1e-10),
    **dict.fromkeys((
        "bloch-correspondence", "det-shift-identity", "qubit-eigenvalues",
        "rapidity-metric"), 1e-12),
    "triangle-counterexample": 1e-5,
    "semimetric-geodesic-question": float("inf"),
}


def test_each_property_alone_gives_its_campaign_record_and_threshold():
    records = {r.property_id: r for r in run_campaign(SMALL).records}
    assert {spec.property_id for spec in all_properties()} == set(THRESHOLDS)
    for spec in all_properties():
        record = records[spec.property_id]
        assert run_property(spec, SMALL) == record, spec.property_id
        assert record.threshold == THRESHOLDS[spec.property_id], spec.property_id


def test_the_eigensolve_memo_changes_no_record(monkeypatch):
    solves = []
    solve = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda M: solves.append(M.shape) or solve(M))
    with_memo = [run_property(spec, SMALL) for spec in all_properties()]
    held = len(solves)
    # a memo of no entries keeps nothing, so every solve is made anew
    monkeypatch.setattr(kernel, "MEMO_SIZE", 0)
    assert [run_property(spec, SMALL) for spec in all_properties()] == with_memo
    assert len(solves) - held > held


def test_a_property_decomposes_each_stack_once(monkeypatch):
    # cone-gyrogroup-axioms chains cone_add and gyration on the same operands;
    # without the memo it makes 47 eigensolves and 8 SVDs on the small config
    # (its 2x2 items are decomposed and polar-factored in closed form, without
    # LAPACK), and with it a spectrum read of an operand hits the operand's
    # decomposition
    spec = next(s for s in all_properties() if s.property_id == "cone-gyrogroup-axioms")
    solves = {"eigh": 0, "svd": 0}

    def counting(solver):
        solve = getattr(np.linalg, solver)

        def counted(M):
            solves[solver] += 1
            return solve(M)
        return counted

    for solver in solves:
        monkeypatch.setattr(np.linalg, solver, counting(solver))
    run_property(spec, SMALL)
    assert solves == {"eigh": 11, "svd": 3}


def test_a_campaign_solves_only_what_it_reads(monkeypatch):
    # (calls, items) of each LAPACK solver over the small campaign: every
    # spectrum costs one eigh, a repeated one costs nothing within a property,
    # whether it was decomposed or only its eigenvalues read; the eigvalsh
    # calls are direct reads in properties and randgen, none the kernel's;
    # the polar factor costs an svd; a 1x1 or 2x2 spectrum or polar factor
    # costs no LAPACK solve
    counts = {"eigh": [0, 0], "eigvalsh": [0, 0], "svd": [0, 0]}

    def counting(solver):
        solve = getattr(np.linalg, solver)

        def counted(M):
            counts[solver][0] += 1
            counts[solver][1] += int(np.prod(M.shape[:-2]))
            return solve(M)
        return counted

    for solver in counts:
        monkeypatch.setattr(np.linalg, solver, counting(solver))
    run_campaign(SMALL)
    assert counts == {"eigh": [344, 1405], "eigvalsh": [15, 64], "svd": [65, 268]}


def test_registration_needs_a_positive_threshold_and_a_new_id():
    def runner(trials):
        return 0.0

    with pytest.raises(TypeError):
        prop("unregistered-property", "furuta")(runner)
    with pytest.raises(ValueError):
        prop("unregistered-property", "furuta", 0.0)(runner)
    with pytest.raises(ValueError):
        prop("furuta", "furuta", 1e-8)(runner)
    assert "unregistered-property" not in {s.property_id for s in all_properties()}


def test_config_records_the_fixed_grids_and_tolerances():
    config = CampaignConfig().to_dict()
    assert config["t_grid"] == [0.1, 0.25, 0.5, 0.75, 0.9]
    assert config["p_grid"] == [1.0, 1.5, 2.0, 3.0, 5.0]
    assert config["tolerances"] == {
        "hermiticity_tol": HERMITICITY_TOL, "pd_tol": PD_TOL, "loewner_tol": LOEWNER_TOL}
    assert (HERMITICITY_TOL, PD_TOL, LOEWNER_TOL) == (1e-10, 1e-10, 1e-8)


# (samples, premise_held) of every record on the small config that differs
# from one sample per trial with the premise held on each: a runner that
# drops its Outcome fails here
COUNTS = {
    "majorization-prefix-rules": (10, 10),
    "riccati-residual": (16, 16),
    "spectral-defining-residual": (16, 16),
    "spectral-bounds-premise-free": (3, 3),
    "triangle-counterexample": (1, 1),
    "anchor-coverage": (49, 49),
}


def test_record_counts_on_the_small_config():
    for record in run_campaign(SMALL).records:
        assert ((record.samples, record.premise_held)
                == COUNTS.get(record.property_id, (8, 8))), record.property_id


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("module, name, property_id", [
    (properties, "sup_ratio", "thompson-sup-ratio"),
    (closedform2x2, "gm2_det1", "two-by-two-mean-combination"),
    (gyrocone, "gyroline", "cone-gyrolines"),
    # a NaN axiom residual: the cone model's residual is a Frobenius norm (a
    # NaN gyration would raise NotFinite in the next cone_add instead)
    (gyrocone, "_frobenius", "cone-gyrogroup-axioms"),
])
def test_a_nan_violation_fails_its_record(monkeypatch, module, name, property_id):
    computed = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: computed(*args) * np.nan)
    spec = next(s for s in all_properties() if s.property_id == property_id)
    record = run_property(spec, SMALL)
    assert np.isnan(record.max_violation)
    assert not record.passed
    report = Report(config=SMALL.to_dict(), records=(record,), passed=record.passed)
    row = _strict_json(report.to_json())["properties"][0]
    assert row["max_violation"] is None and row["passed"] is False


def test_non_finite_values_serialize_as_null_or_raise():
    record = PropertyRecord("p", "furuta", 1, 1, float("nan"), float("inf"), False)
    assert record.to_dict()["max_violation"] is None
    assert record.to_dict()["threshold"] is None
    with pytest.raises(ValueError):
        Report(config={"cond_cap": float("inf")}, records=(), passed=True).to_json()
