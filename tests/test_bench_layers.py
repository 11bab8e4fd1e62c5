"""tools/bench_layers.py at a tiny repeat: its timings, summaries and files."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PATH = ROOT / "tools" / "bench_layers.py"
SPEC = importlib.util.spec_from_file_location("bench_layers", PATH)
bench_layers = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_layers)


def _run(us: float, env=None):
    return {"us": {"kernel.eigh": {"2": us, "8": 10 * us}}, "env": env or {"cores": 2}}


def test_measure_times_every_layer_at_each_n():
    out = bench_layers.measure(dims=(1, 2), repeat=1, batches=1)
    assert {"kernel.boundary", "kernel.eigh", "kernel.powm", "kernel.logm",
            "means.geo_mean", "metrics.thompson", "gyro.gyration",
            "gyro.dens_cogyroline"} <= set(out)
    for name, per_n in out.items():
        assert set(per_n) == {"1", "2"}, name
        assert all(0 < us < 1e6 for us in per_n.values()), name


def test_the_operand_pool_outlasts_a_solver_memo():
    from gyromean.kernel import MEMO_SIZE

    sets = bench_layers.operand_sets(3, seed=0)
    assert len(sets) == bench_layers.POOL > MEMO_SIZE
    assert len({s["A"].tobytes() for s in sets}) == len(sets)
    # exactly Hermitian, as the package's own samplers make them
    A = sets[0]["A"]
    assert (A == A.conj().T).all()


def test_summary_keeps_medians_quartiles_values_and_env():
    runs = [_run(us) for us in (2.0, 1.0, 4.0, 3.0, 5.0)]
    out = bench_layers.summary(runs, "change", repeat=10, batches=3, seed=0)
    cell = out["layers"]["kernel.eigh"]["2"]
    assert cell["values"] == [2.0, 1.0, 4.0, 3.0, 5.0]
    assert (cell["q1"], cell["median"], cell["q3"]) == (2.0, 3.0, 4.0)
    assert out["layers"]["kernel.eigh"]["8"]["median"] == 30.0
    assert out["runs"] == 5 and out["env"] == {"cores": 2}
    runs[1]["env"] = {"cores": 4}
    assert bench_layers.summary(runs, "x", 10, 3, 0)["env"][1] == {"cores": 4}


def test_compare_prints_medians_change_and_pairs_won():
    base = [_run(us) for us in (10.0, 10.0, 10.0)]
    change = [_run(us) for us in (8.0, 12.0, 8.0)]
    lines = bench_layers.compare(base, change)
    assert lines[0] == "kernel.eigh n=2: 10.0 -> 8.0 us (-20.0%), faster in 2 of 3 pairs"
    assert lines[1].startswith("kernel.eigh n=8: 100.0 -> 80.0 us")


def test_a_tiny_series_writes_one_file_per_checkout(tmp_path, capsys):
    assert bench_layers.main(["--runs", "5", "--repeat", "1", "--batches", "1",
                              "--dims", "2", "--out", str(tmp_path),
                              f"here={ROOT}"]) == 0
    data = json.loads((tmp_path / "BENCH_layers-here.json").read_text(encoding="utf-8"))
    assert data["runs"] == 5 and data["label"] == "here"
    assert len(data["layers"]["means.geo_mean"]["2"]["values"]) == 5
    env = data["env"] if isinstance(data["env"], dict) else data["env"][0]
    assert env["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert {"cores", "blas", "blas_kernel", "numpy"} <= set(env)
    assert "wrote" in capsys.readouterr().out


def test_too_few_runs_or_no_checkout_is_refused(tmp_path):
    with pytest.raises(SystemExit):
        bench_layers.main(["--runs", "4", f"here={ROOT}"])
    with pytest.raises(SystemExit):
        bench_layers.main(["--runs", "5"])
    with pytest.raises(SystemExit):
        bench_layers.main([f"nowhere={tmp_path}"])
