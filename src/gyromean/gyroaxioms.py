"""Generic gyrogroup / gyrovector-space axiom checker.

One suite serves all three concrete models (positive definite cone, invertible
density matrices, Einstein and Mobius balls): a model supplies its identity,
operations, gyration, and a residual measuring how far two elements differ.
Gyrations are compared as maps, by their action on probe elements, not by
comparing any particular matrix representation.  The suite evaluates each
axiom once over the whole stack of sample triples, so a model's operations
act on stacks of elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable

import numpy as np

AXIOM_NAMES = (
    "G1-left-identity",
    "G1-right-identity",
    "G2-left-inverse",
    "G2-right-inverse",
    "G3-gyroassociativity",
    "G4-identity-gyration",
    "G5-loop",
    "gyrocommutativity",
    "gyration-automorphism",
    "V1-unit",
    "V1-zero",
    "V1-negation",
    "V2-additive",
    "V3-multiplicative",
    "V4-gyration-scalar",
)
DEFAULT_SCALARS = ((0.3, 0.8), (-0.7, 1.6), (2.0, -0.4))


@dataclass
class GyroModel:
    """Concrete carrier of the gyro operations, acting on stacks of elements."""

    name: str
    identity: object
    add: Callable
    neg: Callable
    scalar: Callable
    gyr: Callable  # gyr(a, b, x)
    residual: Callable  # residual(x, y) -> one value per stacked element


@dataclass
class AxiomReport:
    """Per-axiom worst residual over the sample set."""

    model: str
    samples: int
    residuals: dict = field(default_factory=dict)
    threshold: float = 1e-8

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0

    @property
    def passed(self) -> bool:
        return self.max_residual < self.threshold

    def worst(self):
        name = max(self.residuals, key=self.residuals.get)
        return name, self.residuals[name]


def run_axiom_suite(model: GyroModel, triples, scalars=None,
                    threshold: float = 1e-8, axioms=AXIOM_NAMES) -> AxiomReport:
    """Evaluate (G1)-(G5), gyrocommutativity and (V1)-(V4) on sample triples.

    The triples are stacked, and each axiom is one expression over the whole
    stack; its residual is the max over the stack.

    Parameters
    ----------
    model : GyroModel
        Its operations take stacks of elements (leading axis: the sample);
        its scalar multiplication takes one weight per sample and its
        residual returns one value per sample.
    triples : list of (a, b, c)
        Sample elements of the carrier, all of one shape.
    scalars : list of (s, t), optional
        Scalar pairs, cycled over the triples; defaults to a fixed grid.
    threshold : float
        Pass iff every evaluated axiom's max residual stays below this.
    axioms : iterable of str
        The axioms to evaluate, a subset of ``AXIOM_NAMES``.
    """
    if not triples:
        raise ValueError("axiom suite needs at least one sample triple")
    unknown = set(axioms) - set(AXIOM_NAMES)
    if unknown:
        raise ValueError(f"unknown axioms {sorted(unknown)}")
    if scalars is None:
        scalars = DEFAULT_SCALARS
    a, b, c = (np.stack([np.asarray(x) for x in column]) for column in zip(*triples))
    pairs = np.array([scalars[i % len(scalars)] for i in range(len(a))], dtype=float)
    s, t = pairs[:, 0], pairs[:, 1]
    e = np.broadcast_to(np.asarray(model.identity), a.shape)
    add, neg, scal, gyr, res = (
        model.add, model.neg, model.scalar, model.gyr, model.residual,
    )

    # subexpressions that several axioms share, each evaluated at most once
    @cache
    def neg_a():
        return neg(a)

    @cache
    def ab():
        return add(a, b)

    @cache
    def bc():
        return add(b, c)

    @cache
    def gyr_c():
        return gyr(a, b, c)

    @cache
    def t_a():
        return scal(t, a)

    # each entry lists the residuals of one axiom; the loop property and the
    # automorphism property are map-level statements, probed with c and b (+) c
    checks = {
        "G1-left-identity": lambda: [res(add(e, a), a)],
        "G1-right-identity": lambda: [res(add(a, e), a)],
        "G2-left-inverse": lambda: [res(add(neg_a(), a), e)],
        "G2-right-inverse": lambda: [res(add(a, neg_a()), e)],
        "G3-gyroassociativity": lambda: [res(add(a, bc()), add(ab(), gyr_c()))],
        "G4-identity-gyration": lambda: [res(gyr(e, a, c), c)],
        "G5-loop": lambda: [res(gyr(ab(), b, c), gyr_c()),
                            res(gyr(ab(), b, bc()), gyr(a, b, bc()))],
        "gyrocommutativity": lambda: [res(ab(), gyr(a, b, add(b, a)))],
        "gyration-automorphism": lambda: [
            res(gyr(a, b, add(c, neg_a())), add(gyr_c(), gyr(a, b, neg_a())))],
        "V1-unit": lambda: [res(scal(1.0, a), a)],
        "V1-zero": lambda: [res(scal(0.0, a), e), res(scal(t, e), e)],
        "V1-negation": lambda: [res(scal(-1.0, a), neg_a())],
        "V2-additive": lambda: [res(scal(s + t, a), add(scal(s, a), t_a()))],
        "V3-multiplicative": lambda: [res(scal(s * t, a), scal(s, t_a()))],
        "V4-gyration-scalar": lambda: [res(gyr(a, b, scal(t, c)), scal(t, gyr_c()))],
    }
    residuals = {name: float(np.max(checks[name]())) for name in axioms}
    return AxiomReport(model=model.name, samples=len(a),
                       residuals=residuals, threshold=threshold)
