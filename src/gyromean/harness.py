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
import numbers
from dataclasses import dataclass
from datetime import datetime, timezone

from . import __version__ as VERSION
from .defaults import DEFAULT_COND_CAP, DEFAULT_DIMS, DEFAULT_SEED, DEFAULT_TRIALS
from .fixtures import (
    TRIANGLE_REFERENCE,
    TRIANGLE_REFERENCE_TOL,
    contraction_converse_witness,
    triangle_measurements,
)
from .kernel import HERMITICITY_TOL, LOEWNER_TOL, PD_TOL
from .registry import (
    EXTRA_ANCHORS,
    P_GRID,
    REQUIRED_ANCHORS,
    T_GRID,
    PropertyRecord,
    all_properties,
    run_property,
)


def _is_int(x) -> bool:
    """Whether x is an integer; a bool is not one."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """Whether x is a real number; a bool is not one."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


@dataclass(frozen=True)
class CampaignConfig:
    """Validated knobs of a verification campaign.

    The grids and the tolerances (``kernel.HERMITICITY_TOL``, ``PD_TOL`` and
    ``LOEWNER_TOL``) are fixed; ``to_dict`` records them with the knobs.
    """

    seed: int = DEFAULT_SEED
    trials: int = DEFAULT_TRIALS
    dims: tuple = DEFAULT_DIMS
    cond_cap: float = DEFAULT_COND_CAP

    def __post_init__(self):
        if not (_is_int(self.seed) and 0 <= self.seed < 2**64):
            raise ValueError("seed must be an unsigned 64-bit integer")
        if not (_is_int(self.trials) and self.trials >= 1):
            raise ValueError("trials must be an integer of at least 1")
        dims = tuple(self.dims)
        if not dims:
            raise ValueError("dims must be nonempty")
        if not all(_is_int(d) and 2 <= d <= 8 for d in dims):
            raise ValueError("dims must be integers in [2, 8]")
        if not (_is_real(self.cond_cap) and 1 < self.cond_cap < float("inf")):
            raise ValueError("cond_cap must be a finite number exceeding 1")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "dims", tuple(int(d) for d in dims))

    def to_dict(self) -> dict:
        return {
            "seed": int(self.seed),
            "trials": int(self.trials),
            "dims": list(self.dims),
            "cond_cap": float(self.cond_cap),
            "t_grid": list(T_GRID),
            "p_grid": list(P_GRID),
            "tolerances": {"hermiticity_tol": HERMITICITY_TOL, "pd_tol": PD_TOL,
                           "loewner_tol": LOEWNER_TOL},
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
        # imported here: a serial campaign loads no pool machinery
        from concurrent.futures import ThreadPoolExecutor

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


def _fixture_record(property_id, anchor, samples, violation, threshold, note):
    """A record of a golden fixture, which passes at or below its threshold."""
    return PropertyRecord(property_id=property_id, anchor=anchor, samples=samples,
                          premise_held=samples, max_violation=violation,
                          threshold=threshold, passed=violation <= threshold, note=note)


def reproduce_counterexamples() -> Report:
    """Re-measure the two golden counterexamples and report the outcome."""
    m = triangle_measurements()
    records = []
    matched = m["matched_variant"]
    for idx, name in enumerate(("d(A,B)", "d(B,C)", "d(A,C)")):
        if matched is None:
            value, err = float("nan"), float("inf")
        else:
            value = m["matched_scale"] * m["variants"][matched]["values"][idx]
            err = abs(value - TRIANGLE_REFERENCE[idx])
        records.append(_fixture_record(
            f"triangle-value-{idx + 1}", "triangle-counterexample", 1, err,
            TRIANGLE_REFERENCE_TOL, f"{name} = {value!r}, reference {TRIANGLE_REFERENCE[idx]}, "
                                    f"variant {matched} at scale {m['matched_scale']}"))
    gaps = {k: v["triangle_gap"] for k, v in m["variants"].items()}
    records.append(_fixture_record(
        "triangle-inequality-failure", "triangle-counterexample", 2,
        0.0 if all(g > 0 for g in gaps.values()) else 1.0, 0.5,
        f"d(A,C) - d(A,B) - d(B,C): operator {gaps['semimetric_op']:.6f}, "
        f"frobenius {gaps['semimetric_frob']:.6f} (both positive)"))
    witness = contraction_converse_witness()
    records.append(_fixture_record(
        "contraction-converse-witness", "contraction-lemma", 1,
        0.0 if witness["converse_fails"] else 1.0, 0.5,
        f"S <= I holds; S X S vs X is {witness['sxs_vs_x']}"))
    return Report(
        config={"fixture": "golden-counterexamples"},
        records=tuple(records),
        passed=all(r.passed for r in records),
        timestamp=datetime.now(timezone.utc).isoformat(),
    )
