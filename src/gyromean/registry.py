"""Property registry for the verification campaign.

Each registered property verifies one statement (or a small family sharing a
source anchor) over seeded random samples.  Its runner yields violation
values; ``run_property`` reduces all of them at once to the record's worst
violation, which a NaN among them turns into NaN, failing the record.  The
campaign requires every canonical anchor to be covered; a missing anchor is a
structural failure of the harness itself, independent of any numerical
outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .randgen import substream

# Canonical anchors, one per source statement the campaign must exercise.
REQUIRED_ANCHORS = (
    # two-variable means
    "geometric-mean-block-characterization",
    "geodesic-curve",
    "riccati-equation",
    "karcher-equation",
    "mean-bijection",
    # spectral mean and the semi-metric
    "spectral-curve",
    "spectral-defining-equation",
    "spectral-mean-algebra",
    "spectral-mean-bounds",
    "semimetric-axioms",
    "semimetric-invariance",
    "spectral-midpoint",
    "triangle-counterexample",
    # order inequalities
    "loewner-heinz",
    "congruence-inversion-order",
    "furuta",
    "contraction-lemma",
    "power-chain",
    "five-way-equivalence",
    "spectral-ando-hiai",
    "ando-hiai",
    "sufficient-conditions",
    # gyrogroups and gyrolines
    "gyrogroup-axioms",
    "cooperation",
    "gyrovector-axioms",
    "ball-gyrogroups",
    "cone-gyrovector-space",
    "cone-gyration",
    "density-gyrovector-space",
    "gyroline-cogyroline-defs",
    "cone-gyrolines",
    "density-gyrolines",
    "gyration-trace-invariance",
    # 2x2 closed forms and qubits
    "difference-quotient-map",
    "two-by-two-mean-combination",
    "block-norm-bound",
    "sum-norm-bound",
    "det-shift-identity",
    "two-by-two-spectral-closed-form",
    "qubit-state",
    "qubit-eigenvalues",
    "qubit-inverse-normalization",
    "qubit-mean-combination",
    "mean-eigenvalue-rewrite",
    "qubit-spectral-closed-form",
    "gyromidpoint-norm-bound",
    # Frobenius variant and majorization
    "frobenius-semimetric",
    "majorization-definitions",
    "semimetric-riemannian-bound",
)

# Anchors that may appear in addition to the required ones.
EXTRA_ANCHORS = ("thompson-metric",)

# the curve parameters and powers the properties cycle through: the t grid
# lies in (0, 1), the p grid in [1, 5]
T_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)
P_GRID = (1.0, 1.5, 2.0, 3.0, 5.0)


def _json_float(x) -> float | None:
    """``x`` as a float, or None (JSON null) when it is NaN or infinite."""
    x = float(x)
    return x if np.isfinite(x) else None


@dataclass(frozen=True)
class PropertyRecord:
    """One row of a campaign report."""

    property_id: str
    anchor: str
    samples: int
    premise_held: int
    max_violation: float
    threshold: float
    passed: bool
    asserted: bool = True
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "property_id": self.property_id,
            "anchor": self.anchor,
            "samples": int(self.samples),
            "premise_held": int(self.premise_held),
            # a NaN violation, or the infinite threshold of a recorded-only
            # property, is null: the report stays strict JSON
            "max_violation": _json_float(self.max_violation),
            "threshold": _json_float(self.threshold),
            "passed": bool(self.passed),
            "asserted": bool(self.asserted),
            "note": self.note,
        }


@dataclass(frozen=True)
class PropertySpec:
    property_id: str
    anchor: str
    runner: Callable
    threshold: float
    asserted: bool = True
    min_premise: int = 0


class Outcome(NamedTuple):
    """What a runner returns when its record differs from the defaults.

    By default a record counts one sample per trial, holds its premise on
    every sample and carries no note.
    """

    samples: int | None = None
    premise_held: int | None = None
    note: str = ""


@dataclass(frozen=True)
class Trials:
    """The seeded trials of one property under one campaign config.

    Trial i draws from the substream (seed, stream, i) at dimension
    ``dims[i % len(dims)]``; the stream is the property id.  Iterating yields ``(rng, d, i)`` per trial, in trial order;
    ``dataclasses.replace`` gives the same trials at one dimension, on
    another stream or in another number.
    """

    seed: int
    count: int
    dims: tuple
    cond_cap: float
    threshold: float
    stream: str

    def __iter__(self):
        for i in range(self.count):
            yield substream(self.seed, self.stream, i), self.dims[i % len(self.dims)], i

    def stacks(self, draw):
        """Every trial's ``draw(rng, d, i)``, stacked by matrix dimension.

        Each draw is a tuple whose first entry is a matrix.  Each yielded tuple
        holds the same fields over one dimension's trials, in trial order:
        matrices as (k, d, d) stacks, scalars as (k,) arrays.
        """
        groups = {}
        for rng, d, i in self:
            fields = draw(rng, d, i)
            groups.setdefault(np.shape(fields[0]), []).append(fields)
        for members in groups.values():
            yield tuple(np.array(field) for field in zip(*members))

    def flag(self, ok) -> float:
        """A boolean sub-check (every entry of ``ok`` must hold) as a violation value."""
        return 0.0 if np.all(ok) else 2.0 * self.threshold


_REGISTRY: dict[str, PropertySpec] = {}


def prop(property_id: str, anchor: str, threshold: float, asserted: bool = True,
         min_premise: int = 0):
    """Register a campaign property runner with its pass threshold.

    Called with the property's ``Trials``, the runner gives a generator: it
    yields the violation values, as floats or as arrays with one value per
    stacked item, and returns an ``Outcome`` carrying what differs from the
    defaults, if anything does.
    """
    if anchor not in REQUIRED_ANCHORS and anchor not in EXTRA_ANCHORS:
        raise ValueError(f"unknown anchor {anchor!r} for property {property_id!r}")
    if not float(threshold) > 0:
        raise ValueError(f"threshold of {property_id!r} must be positive")
    if property_id in _REGISTRY:
        raise ValueError(f"duplicate property id {property_id!r}")

    def register(fn):
        _REGISTRY[property_id] = PropertySpec(property_id, anchor, fn, float(threshold),
                                              asserted, min_premise)
        return fn

    return register


def all_properties() -> list[PropertySpec]:
    from . import properties  # noqa: F401  (populates the registry on import)

    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def _drain(runner) -> tuple[float, Outcome]:
    """A runner's worst violation and its outcome.

    The worst violation is the largest yielded value, or 0 if none is larger;
    it is NaN if any yielded value is NaN.
    """
    values = [0.0]
    while True:
        try:
            values.append(next(runner))
        except StopIteration as stop:
            # + 0.0 turns a largest value of -0.0 into 0.0, which serializes alike
            return float(np.hstack(values).max()) + 0.0, stop.value or Outcome()


def run_property(spec: PropertySpec, config) -> PropertyRecord:
    worst, out = _drain(spec.runner(Trials(config.seed, config.trials, config.dims,
                                           config.cond_cap, spec.threshold,
                                           spec.property_id)))
    samples = config.trials if out.samples is None else out.samples
    premise_held = samples if out.premise_held is None else out.premise_held
    note, passed = out.note, True
    if spec.asserted:
        passed = bool(worst <= spec.threshold)
        # the premise quota cannot exceed what the trial budget allows
        if premise_held < min(spec.min_premise, config.trials):
            passed = False
            note = (note + "; " if note else "") + (
                f"sampler starvation: only {premise_held} premise-held samples")
    return PropertyRecord(
        property_id=spec.property_id,
        anchor=spec.anchor,
        samples=int(samples),
        premise_held=int(premise_held),
        max_violation=worst,
        threshold=spec.threshold,
        passed=passed,
        asserted=spec.asserted,
        note=note,
    )
