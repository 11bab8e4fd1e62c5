"""tools/seed_sweep.py on two seeds of a tiny config."""

import functools
import importlib.util
import json
from pathlib import Path

from gyromean.harness import CampaignConfig, run_campaign

PATH = Path(__file__).resolve().parent.parent / "tools" / "seed_sweep.py"
SPEC = importlib.util.spec_from_file_location("seed_sweep", PATH)
seed_sweep = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(seed_sweep)

TINY = CampaignConfig(trials=2, dims=(2,))


def test_a_sweep_records_each_propertys_worst_headroom_and_its_seed():
    result = seed_sweep.sweep(range(3, 5), TINY)
    assert result["seeds"] == [3, 4] and result["campaigns"] == 2
    assert result["config"] == {"trials": 2, "dims": [2], "cond_cap": 1e4}
    reports = {seed: {r.property_id: r for r in
                      run_campaign(CampaignConfig(seed=seed, trials=2, dims=(2,))).records}
               for seed in (3, 4)}
    assert set(result["properties"]) == set(reports[3])
    for pid, row in result["properties"].items():
        assert row["failed_seeds"] == []
        headrooms = {seed: seed_sweep._headroom(records[pid])
                     for seed, records in reports.items()}
        if row["worst_headroom"] is None:
            # the recorded-only property and the coverage record have none
            assert set(headrooms.values()) == {None}, pid
            continue
        assert row["threshold"] == reports[3][pid].threshold
        assert row["worst_headroom"] == max(headrooms.values()) <= 1.0
        assert headrooms[row["worst_seed"]] == row["worst_headroom"]
        assert row["worst_seed"] == min(s for s, h in headrooms.items()
                                        if h == row["worst_headroom"])


def test_main_writes_the_sweep_and_exits_0_when_every_seed_passes(tmp_path, monkeypatch):
    monkeypatch.setattr(seed_sweep, "sweep", functools.partial(seed_sweep.sweep, config=TINY))
    out = tmp_path / "sweep.json"
    assert seed_sweep.main(["--seeds", "3:5", "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8")) == json.loads(
        json.dumps(seed_sweep.sweep(range(3, 5))))
