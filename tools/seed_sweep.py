"""Run the campaign over a range of seeds and write each property's worst headroom.

Usage (from the repository root):

    python3 tools/seed_sweep.py --seeds 0:200 --out bench/SWEEP_seeds-0-199.json

``--seeds A:B`` runs the seeds A, A+1, ..., B-1, each as a campaign with the
default config except for the seed.  For every asserted property with a
finite threshold the output records its worst headroom,
``max_violation / threshold`` (above 1 fails the record), the seed of that
worst value (the first such seed on a tie), and the seeds at which the record
failed.  A NaN violation counts as failing and as a headroom of null.  The
tool exits 1 if any record failed at any seed.  The output is the same for
the same arguments on every run: it holds no timing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gyromean.harness import CampaignConfig, run_campaign  # noqa: E402


def _headroom(record) -> float | None:
    """max_violation / threshold, or None where it is not a number."""
    if not (record.asserted and 0.0 < record.threshold < math.inf):
        return None
    value = record.max_violation / record.threshold
    return None if math.isnan(value) else value


def sweep(seeds: range, config: CampaignConfig = CampaignConfig()) -> dict:
    """Each property's worst headroom and its seed over the campaigns of ``seeds``.

    Every seed runs ``config`` with its seed replaced.
    """
    properties = {}
    for seed in seeds:
        report = run_campaign(dataclasses.replace(config, seed=seed))
        for record in report.records:
            row = properties.setdefault(record.property_id, {
                "threshold": None, "worst_headroom": None, "worst_seed": None,
                "failed_seeds": []})
            if not record.passed:
                row["failed_seeds"].append(seed)
            headroom = _headroom(record)
            if headroom is None:
                continue
            row["threshold"] = record.threshold
            if row["worst_headroom"] is None or headroom > row["worst_headroom"]:
                row["worst_headroom"], row["worst_seed"] = headroom, seed
    return {
        "config": {"trials": config.trials, "dims": list(config.dims),
                   "cond_cap": config.cond_cap},
        "seeds": [seeds.start, seeds.stop - 1],
        "campaigns": len(seeds),
        "properties": properties,
    }


def _seed_range(text: str) -> range:
    start, sep, stop = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"{text!r} is not A:B")
    seeds = range(int(start), int(stop))
    if not seeds:
        raise argparse.ArgumentTypeError(f"{text!r} holds no seed")
    return seeds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", type=_seed_range, required=True, metavar="A:B")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    result = sweep(args.seeds)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    rows = result["properties"].items()
    failing = sum(len(row["failed_seeds"]) for _, row in rows)
    worst = max((row["worst_headroom"], pid) for pid, row in rows
                if row["worst_headroom"] is not None)
    print(f"{result['campaigns']} campaigns, {failing} failing records; "
          f"closest to its threshold: {worst[1]} at {worst[0]:.3g}; wrote {args.out}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
