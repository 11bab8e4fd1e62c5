"""Generic gyrogroup / gyrovector-space axiom checker.

One suite serves all three concrete models (positive definite cone, invertible
density matrices, Einstein and Mobius balls): a model supplies its identity,
operations, gyration, and a residual measuring how far two elements differ.
Gyrations are compared as maps, by their action on probe elements, not by
comparing any particular matrix representation.

``run_axiom_suite(model, a, b, c)`` takes the samples as three stacks, item
k of each forming the k-th triple, and evaluates each axiom once over the
whole stack, so a model's operations act on stacks of elements.  It returns
each axiom's worst residual; the campaign judges them against its record's
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

GYROGROUP_AXIOMS = (
    "G1-left-identity",
    "G1-right-identity",
    "G2-left-inverse",
    "G2-right-inverse",
    "G3-gyroassociativity",
    "G4-identity-gyration",
    "G5-loop",
    "gyrocommutativity",
    "gyration-automorphism",
)
GYROVECTOR_AXIOMS = (
    "V1-unit",
    "V1-zero",
    "V1-negation",
    "V2-additive",
    "V3-multiplicative",
    "V4-gyration-scalar",
)
AXIOM_NAMES = GYROGROUP_AXIOMS + GYROVECTOR_AXIOMS
DEFAULT_SCALARS = ((0.3, 0.8), (-0.7, 1.6), (2.0, -0.4))


@dataclass
class GyroModel:
    """Concrete carrier of the gyro operations, acting on stacks of elements."""

    identity: object
    add: Callable
    neg: Callable
    scalar: Callable
    gyr: Callable  # gyr(a, b, x)
    residual: Callable  # residual(x, y) -> one value per stacked element


def run_axiom_suite(model: GyroModel, a, b, c, axioms=AXIOM_NAMES) -> dict:
    """Evaluate (G1)-(G5), gyrocommutativity and (V1)-(V4) on stacked triples.

    Each axiom is one expression over the whole stack; its residual is the
    max over the stack.  Returns ``{axiom: worst residual}``, NaN where any
    item's residual is NaN.

    Parameters
    ----------
    model : GyroModel
        Its operations take stacks of elements (leading axis: the sample);
        its scalar multiplication takes one weight per sample and its
        residual returns one value per sample.
    a, b, c : ndarray
        Stacks of sample elements of the carrier, all of one shape; item k
        of each forms the k-th triple, and the pairs of ``DEFAULT_SCALARS``
        are cycled over the triples in that order.
    axioms : iterable of str
        The axioms to evaluate, a subset of ``AXIOM_NAMES``.
    """
    if not len(a):
        raise ValueError("axiom suite needs at least one sample triple")
    unknown = set(axioms) - set(AXIOM_NAMES)
    if unknown:
        raise ValueError(f"unknown axioms {sorted(unknown)}")
    s, t = np.resize(np.array(DEFAULT_SCALARS), (len(a), 2)).T
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
    return {name: float(np.max(checks[name]())) for name in axioms}
