"""Campaign configuration, execution, and machine-readable reports.

A campaign runs every registered property on seeded substreams and produces
an immutable report whose JSON serialization is byte-identical across runs
and thread counts for a fixed (seed, config) -- only the timestamp field
varies, and it is excluded from canonical serialization.
"""

from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

from . import __version__ as VERSION
from .fixtures import (
    TRIANGLE_REFERENCE,
    TRIANGLE_REFERENCE_TOL,
    contraction_converse_witness,
    triangle_measurements,
)
from .kernel import DEFAULT_TOL, TolerancePolicy
from .registry import (
    EXTRA_ANCHORS,
    P_GRID,
    REQUIRED_ANCHORS,
    T_GRID,
    PropertyRecord,
    all_properties,
    run_property,
)

DEFAULT_SEED = 42
DEFAULT_TRIALS = 200
DEFAULT_DIMS = (2, 3, 4, 6)
DEFAULT_COND_CAP = 1e4


@dataclass(frozen=True)
class CampaignConfig:
    """Validated knobs of a verification campaign.

    The grids and the tolerances (``DEFAULT_TOL``) are fixed; ``to_dict``
    records them with the knobs.
    """

    seed: int = DEFAULT_SEED
    trials: int = DEFAULT_TRIALS
    dims: tuple = DEFAULT_DIMS
    cond_cap: float = DEFAULT_COND_CAP

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        dims = tuple(int(d) for d in self.dims)
        if not dims:
            raise ValueError("dims must be nonempty")
        if any(d < 2 or d > 8 for d in dims):
            raise ValueError("dims must lie in [2, 8]")
        if not 1 < self.cond_cap < float("inf"):
            raise ValueError("cond_cap must be finite and exceed 1")
        object.__setattr__(self, "dims", dims)

    def to_dict(self) -> dict:
        return {
            "seed": int(self.seed),
            "trials": int(self.trials),
            "dims": list(self.dims),
            "cond_cap": float(self.cond_cap),
            "t_grid": list(T_GRID),
            "p_grid": list(P_GRID),
            "tolerances": asdict(DEFAULT_TOL),
        }


@dataclass(frozen=True)
class Report:
    """Immutable campaign outcome with deterministic serialization."""

    config: dict
    records: tuple
    passed: bool
    version: str = VERSION
    timestamp: str = ""

    def to_dict(self, include_timestamp: bool = True) -> dict:
        out = {
            "version": self.version,
            "passed": self.passed,
            "config": self.config,
            "properties": [r.to_dict() for r in self.records],
        }
        if include_timestamp:
            out["timestamp"] = self.timestamp
        return out

    def to_json(self, include_timestamp: bool = True) -> str:
        return json.dumps(self.to_dict(include_timestamp), sort_keys=True,
                          indent=2, allow_nan=False) + "\n"

    def canonical_json(self) -> str:
        """Serialization with the timestamp removed; byte-stable per config."""
        return self.to_json(include_timestamp=False)

    def to_csv(self) -> str:
        buf = io.StringIO()
        fields = ["property_id", "anchor", "samples", "premise_held",
                  "max_violation", "threshold", "passed", "asserted", "note"]
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for r in self.records:
            row = r.to_dict()
            row["max_violation"] = repr(row["max_violation"])
            row["threshold"] = repr(row["threshold"])
            writer.writerow(row)
        return buf.getvalue()

    def failures(self) -> list:
        return [r for r in self.records if not r.passed]


def _coverage_record(records) -> PropertyRecord:
    covered = {r.anchor for r in records}
    missing = [a for a in REQUIRED_ANCHORS if a not in covered]
    unknown = sorted(covered - set(REQUIRED_ANCHORS) - set(EXTRA_ANCHORS))
    ok = not missing and not unknown
    note = ""
    if missing:
        note = f"missing anchors: {', '.join(missing)}"
    if unknown:
        note += ("; " if note else "") + f"unknown anchors: {', '.join(unknown)}"
    return PropertyRecord(
        property_id="anchor-coverage",
        anchor=REQUIRED_ANCHORS[0],
        samples=len(REQUIRED_ANCHORS),
        premise_held=len(REQUIRED_ANCHORS) - len(missing),
        max_violation=float(len(missing) + len(unknown)),
        threshold=0.0,
        passed=ok,
        asserted=True,
        note=note or "every required anchor is exercised",
    )


def run_campaign(config: CampaignConfig | None = None, jobs: int = 1) -> Report:
    """Execute every registered property and assemble the report.

    ``jobs`` only controls concurrency of execution; substream derivation
    makes the outcome independent of scheduling, so reports are identical
    for any job count.
    """
    config = config or CampaignConfig()
    specs = all_properties()
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(lambda s: run_property(s, config), specs))
    else:
        records = [run_property(s, config) for s in specs]
    records.sort(key=lambda r: r.property_id)
    records.append(_coverage_record(records))
    passed = all(r.passed for r in records)
    return Report(
        config=config.to_dict(),
        records=tuple(records),
        passed=passed,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )


def reproduce_counterexamples(tol: TolerancePolicy = DEFAULT_TOL) -> Report:
    """Re-measure the two golden counterexamples and report the outcome."""
    m = triangle_measurements(tol)
    records = []
    matched = m["matched_variant"]
    for idx, name in enumerate(("d(A,B)", "d(B,C)", "d(A,C)")):
        if matched is None:
            value, err = float("nan"), float("inf")
        else:
            value = m["matched_scale"] * m["variants"][matched]["values"][idx]
            err = abs(value - TRIANGLE_REFERENCE[idx])
        records.append(PropertyRecord(
            property_id=f"triangle-value-{idx + 1}",
            anchor="triangle-counterexample",
            samples=1,
            premise_held=1,
            max_violation=err,
            threshold=TRIANGLE_REFERENCE_TOL,
            passed=err <= TRIANGLE_REFERENCE_TOL,
            note=(f"{name} = {value!r}, reference {TRIANGLE_REFERENCE[idx]}, "
                  f"variant {matched} at scale {m['matched_scale']}"),
        ))
    gaps = {k: v["triangle_gap"] for k, v in m["variants"].items()}
    records.append(PropertyRecord(
        property_id="triangle-inequality-failure",
        anchor="triangle-counterexample",
        samples=2,
        premise_held=2,
        max_violation=0.0 if all(g > 0 for g in gaps.values()) else 1.0,
        threshold=0.5,
        passed=all(g > 0 for g in gaps.values()),
        note=(f"d(A,C) - d(A,B) - d(B,C): operator {gaps['semimetric_op']:.6f}, "
              f"frobenius {gaps['semimetric_frob']:.6f} (both positive)"),
    ))
    witness = contraction_converse_witness(tol)
    records.append(PropertyRecord(
        property_id="contraction-converse-witness",
        anchor="contraction-lemma",
        samples=1,
        premise_held=1,
        max_violation=0.0 if witness["converse_fails"] else 1.0,
        threshold=0.5,
        passed=witness["converse_fails"],
        note=(f"S <= I holds; S X S vs X is {witness['sxs_vs_x']}"),
    ))
    return Report(
        config={"fixture": "golden-counterexamples"},
        records=tuple(records),
        passed=all(r.passed for r in records),
        timestamp=datetime.now(timezone.utc).isoformat(),
    )
