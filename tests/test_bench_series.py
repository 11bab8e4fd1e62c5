"""tools/bench_series.py on synthetic perfbench runs (no subprocess)."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_series.py"
SPEC = importlib.util.spec_from_file_location("bench_series", PATH)
bench_series = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_series)


def _run(wall_s, ops_per_s, factor, correct=True, env=None, sha=None, rounds=None):
    return {
        "correct": correct,
        "attempted": 10,
        "failed": 0 if correct else 1,
        "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                    "ops_per_s": {"value": ops_per_s, "unit": "1/s"}},
        "env": env or {"cores": 2},
        "calibration_factor": factor,
        "canonical_sha256": sha,
        "rounds": rounds,
    }


def test_calibration_factor_is_read_off_the_timed_runs_line():
    lines = [
        "setup: unscaled 0.081835 s, calibration factor 0.6212",
        "unscaled wall_s 0.0108794, ops_per_s 1378.75, op_p50_us 288.297; "
        "calibration factor 0.4640",
        "env {}",
    ]
    assert bench_series.calibration_factor(lines) == pytest.approx(0.464)
    assert bench_series.calibration_factor(lines[:1]) is None


def test_summary_keeps_medians_quartiles_values_and_factors():
    runs = [_run(w, 1 / w, f) for w, f in
            [(2.0, 1.0), (1.0, 1.1), (4.0, 0.9), (3.0, 5.0), (5.0, 1.0)]]
    out = bench_series.summary(runs, "change", "campaign", 42, 30)
    wall = out["metrics"]["wall_s"]
    assert wall["values"] == [2.0, 1.0, 4.0, 3.0, 5.0]
    assert (wall["q1"], wall["median"], wall["q3"]) == (2.0, 3.0, 4.0)
    assert wall["unit"] == "s"
    # the stray factor of run 4 is on record
    assert out["calibration_factors"] == [1.0, 1.1, 0.9, 5.0, 1.0]
    assert out["runs"] == 5 and out["correct"] and out["failed"] == 0
    assert out["env"] == {"cores": 2}


def test_summary_lists_each_env_when_they_differ_and_counts_failures():
    runs = [_run(1.0, 1.0, 1.0), _run(1.0, 1.0, 1.0, correct=False, env={"cores": 4})]
    out = bench_series.summary(runs, "x", "ops-n2", 11, 30)
    assert out["env"] == [{"cores": 2}, {"cores": 4}]
    assert not out["correct"] and out["failed"] == 1


def test_win_counts_follow_the_declared_direction():
    base = [_run(w, o, 1.0) for w, o in [(2.0, 10.0), (2.0, 10.0), (2.0, 10.0)]]
    change = [_run(w, o, 1.0) for w, o in [(1.0, 12.0), (3.0, 12.0), (2.0, 8.0)]]
    counts = bench_series.win_counts(base, change)
    # wall_s is better lower: one win, one loss, one tie
    assert counts["wall_s"] == (1, 3)
    # ops_per_s is better higher
    assert counts["ops_per_s"] == (2, 3)
    # only the metrics the runs carry are counted
    assert set(counts) == {"wall_s", "ops_per_s"}


def test_canonical_sha_is_read_off_the_campaign_checks():
    lines = [
        "check canonical JSON byte-identical: ok",
        "canonical JSON sha256 70276bcae8758963 (2 campaigns)",
        "self-test: a 1e-6 relative perturbation of one record is caught",
    ]
    assert bench_series.canonical_sha(lines) == "70276bcae8758963"
    # the ops workloads print no hash
    assert bench_series.canonical_sha(lines[:1] + lines[2:]) is None


def test_summary_keeps_each_runs_hash_and_pairs_are_compared():
    base = [_run(1.0, 1.0, 1.0, sha="aa11") for _ in range(2)]
    out = bench_series.summary(base, "parent", "campaign", 42, 30)
    assert out["canonical_sha256"] == ["aa11", "aa11"]
    assert bench_series.same_reports(base, [_run(1.0, 1.0, 1.0, sha="aa11")] * 2)
    moved = [_run(1.0, 1.0, 1.0, sha="aa11"), _run(1.0, 1.0, 1.0, sha="bb22")]
    assert bench_series.same_reports(base, moved) is False
    # a run that printed no hash cannot match one that did
    assert bench_series.same_reports(base, [_run(1.0, 1.0, 1.0)]) is False
    ops = [_run(1.0, 1.0, 1.0)]
    assert bench_series.same_reports(ops, ops) is None


def test_completed_rounds_are_read_off_an_op_mix_or_a_campaign_run():
    mix = [
        "op.geo_mean: p50 21.4 us",
        "11264 rounds, 352 reference-checked",
        "unscaled wall_s 0.00266, ops_per_s 5637.1, op_p50_us 14.2; "
        "calibration factor 0.9830",
    ]
    assert bench_series.completed_rounds(mix) == 11264
    campaign = [
        "check canonical JSON byte-identical: ok",
        "canonical JSON sha256 70276bcae8758963 (49 campaigns)",
        "unscaled campaign walls 0.601, 0.598 s",
    ]
    assert bench_series.completed_rounds(campaign) == 49
    # the traced runs print neither line
    assert bench_series.completed_rounds(mix[:1] + mix[2:]) is None


def test_summary_keeps_each_runs_rounds_and_prints_them_beside_peak_rss():
    runs = [_run(1.0, 1.0, 1.0, rounds=r) for r in (11000, 12000, 11500)]
    for run, rss in zip(runs, (48.0, 51.0, 49.5)):
        run["metrics"]["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    assert bench_series.summary(runs, "change", "ops-n2", 42, 30)["rounds"] == [
        11000, 12000, 11500]
    assert bench_series.rss_and_rounds("change", runs) == (
        "peak_rss_mb: change median 49.5 MB at median 11500 rounds [11000, 12000, 11500]")
    runs[1]["rounds"] = None
    assert "at median None rounds" in bench_series.rss_and_rounds("change", runs)
