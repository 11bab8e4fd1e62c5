"""Command-line interface: file formats, subcommands, exit codes."""

import hashlib
import json

import numpy as np
import pytest

from gyromean.cli import build_parser, main, verify_config
from gyromean.harness import CampaignConfig, reproduce_counterexamples, run_campaign
from gyromean.matrixio import (
    MatrixFormatError,
    load_matrix,
    matrix_to_payload,
    payload_to_matrix,
    save_matrix,
)
from gyromean.means import geo_mean, spectral_mean
from gyromean.metrics import distance
from gyromean.randgen import gen_random_pd, substream


@pytest.fixture()
def matrices(tmp_path):
    A = np.array([[4.0, 1.0], [1.0, 4.0]])
    B = np.array([[2.0, 0.0], [0.0, 8.0]])
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_matrix(pa, A)
    save_matrix(pb, B)
    return A, B, str(pa), str(pb)


def test_matrix_roundtrip_real_and_complex(tmp_path):
    real = np.array([[1.0, 2.0], [2.0, 5.0]])
    path = tmp_path / "real.json"
    save_matrix(path, real)
    payload = json.loads(path.read_text())
    assert payload["complex"] is False
    np.testing.assert_allclose(load_matrix(path), real)

    cplx = np.array([[1.0, 1j], [-1j, 2.0]])
    path = tmp_path / "cplx.json"
    save_matrix(path, cplx)
    payload = json.loads(path.read_text())
    assert payload["complex"] is True
    np.testing.assert_allclose(load_matrix(path), cplx)


def test_matrix_payload_validation():
    with pytest.raises(MatrixFormatError):
        payload_to_matrix({"dim": 2, "complex": False, "rows": [[1.0]]})
    with pytest.raises(MatrixFormatError):
        payload_to_matrix({"dim": 2, "complex": True,
                           "rows": [[1.0, 0.0], [0.0, 1.0]]})
    with pytest.raises(MatrixFormatError):
        matrix_to_payload(np.zeros((2, 3)))


def test_compute_geo(matrices, tmp_path, capsys):
    A, B, pa, pb = matrices
    out = tmp_path / "out.json"
    code = main(["compute", "--op", "geo", "--a", pa, "--b", pb,
                 "--t", "0.5", "--out", str(out)])
    assert code == 0
    np.testing.assert_allclose(load_matrix(out), geo_mean(A, B, 0.5), atol=1e-12)


def test_compute_spectral_stdout(matrices, capsys):
    A, B, pa, pb = matrices
    assert main(["compute", "--op", "spectral", "--a", pa, "--b", pb,
                 "--t", "0.25"]) == 0
    payload = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(payload_to_matrix(payload),
                               spectral_mean(A, B, 0.25), atol=1e-12)


def test_compute_scalar_ops(matrices, capsys):
    A, B, pa, pb = matrices
    for op, kind in (("thompson", "thompson"), ("riemannian", "riemannian"),
                     ("semimetric-op", "semimetric_op"),
                     ("semimetric-frob", "semimetric_frob")):
        assert main(["compute", "--op", op, "--a", pa, "--b", pb]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(distance(kind, A, B))


def test_compute_gyr_requires_x(matrices, capsys):
    _, _, pa, pb = matrices
    assert main(["compute", "--op", "gyr", "--a", pa, "--b", pb]) == 2
    assert main(["compute", "--op", "gyr", "--a", pa, "--b", pb,
                 "--x", pa]) == 0


def test_compute_coop(matrices, capsys):
    _, _, pa, pb = matrices
    assert main(["compute", "--op", "coop", "--a", pa, "--b", pb]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 2


def test_compute_missing_file(tmp_path, matrices):
    _, _, pa, _ = matrices
    assert main(["compute", "--op", "geo", "--a", pa,
                 "--b", str(tmp_path / "nope.json")]) == 2


def test_compute_rejects_non_pd(tmp_path, matrices):
    _, _, pa, _ = matrices
    bad = tmp_path / "bad.json"
    save_matrix(bad, np.diag([1.0, -1.0]))
    assert main(["compute", "--op", "geo", "--a", pa, "--b", str(bad)]) == 2


def test_geodesic_cone(matrices, capsys):
    A, B, pa, pb = matrices
    assert main(["geodesic", "--kind", "gyroline", "--a", pa, "--b", pb,
                 "--samples", "3", "--space", "cone"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [p["t"] for p in payload["points"]] == [0.0, 0.5, 1.0]
    np.testing.assert_allclose(payload_to_matrix(payload["points"][0]["matrix"]),
                               A, atol=1e-10)
    np.testing.assert_allclose(payload_to_matrix(payload["points"][2]["matrix"]),
                               B, atol=1e-10)


def test_geodesic_density(tmp_path, capsys):
    rho = np.diag([0.8, 0.2])
    sigma = np.diag([0.5, 0.5])
    pr, ps = tmp_path / "rho.json", tmp_path / "sigma.json"
    save_matrix(pr, rho)
    save_matrix(ps, sigma)
    assert main(["geodesic", "--kind", "cogyroline", "--a", str(pr),
                 "--b", str(ps), "--samples", "3", "--space", "density"]) == 0
    payload = json.loads(capsys.readouterr().out)
    mid = payload_to_matrix(payload["points"][1]["matrix"])
    np.testing.assert_allclose(mid, np.diag([2 / 3, 1 / 3]), atol=1e-12)
    # density space rejects non-density inputs
    assert main(["geodesic", "--kind", "gyroline", "--a", str(pr),
                 "--b", str(pr)[:-5] + "x.json", "--samples", "2",
                 "--space", "density"]) == 2


@pytest.mark.parametrize("kind, solves", [("gyroline", {"eigh": 3, "svd": 0}),
                                           ("cogyroline", {"eigh": 3, "svd": 1})])
def test_a_density_geodesic_solves_its_pair_once(kind, solves, tmp_path, capsys,
                                                 monkeypatch):
    # the pre-check's spectra of rho and sigma are the ones every point reads,
    # and the whitened step (gyroline) or A^{-1} # B and its polar factor
    # (cogyroline) are the same at every t
    rng = substream(227, "cli-density-geodesic")
    paths = []
    for name in ("rho", "sigma"):
        A = gen_random_pd(rng, 3)
        paths.append(tmp_path / f"{name}.json")
        save_matrix(paths[-1], A / np.trace(A).real)
    counts = {"eigh": 0, "svd": 0}
    for solver in counts:
        solve = getattr(np.linalg, solver)

        def counted(M, solver=solver, solve=solve):
            counts[solver] += 1
            return solve(M)
        monkeypatch.setattr(np.linalg, solver, counted)
    assert main(["geodesic", "--kind", kind, "--a", str(paths[0]), "--b", str(paths[1]),
                 "--samples", "9", "--space", "density"]) == 0
    assert len(json.loads(capsys.readouterr().out)["points"]) == 9
    assert counts == solves


def test_geodesic_rejects_bad_samples(matrices):
    _, _, pa, pb = matrices
    assert main(["geodesic", "--kind", "gyroline", "--a", pa, "--b", pb,
                 "--samples", "0", "--space", "cone"]) == 2


def test_verify_writes_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(["verify", "--seed", "5", "--trials", "8", "--dims", "2,3",
                 "--report", str(report_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    payload = json.loads(report_path.read_text())
    assert payload["passed"] is True
    assert payload["config"]["seed"] == 5


def test_verify_csv_format(tmp_path, capsys):
    report_path = tmp_path / "report.csv"
    assert main(["verify", "--seed", "5", "--trials", "8", "--dims", "2",
                 "--report", str(report_path), "--format", "csv"]) == 0
    header = report_path.read_text().splitlines()[0]
    assert header.startswith("property_id,anchor,samples,premise_held")


def test_verify_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GYROMEAN_SEED", "77")
    report_path = tmp_path / "report.json"
    assert main(["verify", "--trials", "8", "--dims", "2",
                 "--report", str(report_path)]) == 0
    assert json.loads(report_path.read_text())["config"]["seed"] == 77


def test_verify_rejects_a_seed_variable_that_is_not_an_integer(capsys, monkeypatch):
    # a bad GYROMEAN_SEED is an input error (2), not a property violation (1)
    monkeypatch.setenv("GYROMEAN_SEED", "abc")
    assert main(["verify", "--trials", "1", "--dims", "2"]) == 2
    assert capsys.readouterr().err == "error: GYROMEAN_SEED must be an integer, got 'abc'\n"


def test_verify_defaults_are_the_campaign_defaults(monkeypatch):
    monkeypatch.delenv("GYROMEAN_SEED", raising=False)
    args = build_parser().parse_args(["verify"])
    assert verify_config(args) == CampaignConfig()


def test_verify_rejects_bad_dims(capsys):
    assert main(["verify", "--trials", "8", "--dims", "2,banana"]) == 2
    assert main(["verify", "--trials", "8", "--dims", "1,2"]) == 2


@pytest.mark.parametrize("cap", ["inf", "nan", "1"])
def test_verify_rejects_a_cond_cap_a_report_cannot_hold(cap, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["verify", "--trials", "1", "--dims", "2", "--cond-cap", cap,
                 "--report", str(report_path)]) == 2
    assert not report_path.exists()


def test_verify_meets_a_small_cond_cap_at_a_larger_dimension(capsys):
    # the sampler meets any cap above 1 by construction, with no resampling
    assert main(["verify", "--seed", "99", "--trials", "60", "--dims", "7,2",
                 "--cond-cap", "50"]) == 0
    assert capsys.readouterr().out.splitlines()[-2] == "PASS: 59/59 properties"


def _sha_line(report) -> str:
    return f"canonical JSON sha256 {hashlib.sha256(report.canonical_json().encode()).hexdigest()}"


def test_verify_prints_the_canonical_sha256_after_the_summary(capsys):
    assert main(["verify", "--seed", "5", "--trials", "8", "--dims", "2,3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == "PASS: 59/59 properties"
    assert lines[-1] == _sha_line(run_campaign(CampaignConfig(seed=5, trials=8, dims=(2, 3))))


def test_counterexample_command(tmp_path, capsys):
    report_path = tmp_path / "ce.json"
    assert main(["counterexample", "--report", str(report_path)]) == 0
    payload = json.loads(report_path.read_text())
    assert payload["passed"] is True
    ids = {p["property_id"] for p in payload["properties"]}
    assert "triangle-inequality-failure" in ids
    assert "contraction-converse-witness" in ids
    assert capsys.readouterr().out.splitlines()[-1] == _sha_line(reproduce_counterexamples())
