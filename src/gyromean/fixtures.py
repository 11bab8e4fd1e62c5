"""Golden counterexample fixtures and their measurement.

Two fixtures are reproduced exactly:

* a unit-determinant 2x2 triple on which the semi-metric violates the
  triangle inequality, with reference values 1.117270, 0.173732, 1.305274;
* a permutation/positive pair witnessing that the contraction lemma's
  converse fails (S <= I while S X S <= X does not hold).

The norm behind the reference values is not recorded anywhere; measurement
shows they equal ||log(A^{-1} # B)|| in the operator norm, i.e. the semi-metric
*without* its factor two.  The measurement reports every variant together
with the (variant, scale) convention that matches, rather than assuming one.
"""

from __future__ import annotations

import numpy as np

from .kernel import Loewner, hermitian_part, loewner_compare
from .metrics import distance

TRIANGLE_A = np.diag([5.0, 0.2]).astype(complex)
TRIANGLE_B = np.array([[2.0, -3.0], [-3.0, 5.0]], dtype=complex)
TRIANGLE_C = np.array([[1.0, -2.0], [-2.0, 5.0]], dtype=complex)

# reference d(A,B), d(B,C), d(A,C) for the triple above.
TRIANGLE_REFERENCE = (1.117270, 0.173732, 1.305274)
TRIANGLE_REFERENCE_TOL = 1e-5

# S is a permutation (hence a contraction), X a generic 2x2 PD matrix with
# distinct diagonal; X - S X S = diag(a-c, c-a) is indefinite.
CONTRACTION_S = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
CONTRACTION_X = np.array([[2.0, 0.5], [0.5, 1.0]], dtype=complex)


def triangle_measurements() -> dict:
    """Evaluate the triangle triple under both semi-metric variants.

    Returns the three pair distances per variant, the triangle gap
    d(A,C) - d(A,B) - d(B,C) (positive means the inequality fails), and the
    (variant, scale) convention matching the reference values, if any.
    """
    pairs = ((TRIANGLE_A, TRIANGLE_B), (TRIANGLE_B, TRIANGLE_C),
             (TRIANGLE_A, TRIANGLE_C))
    out = {"variants": {}, "matched_variant": None, "matched_scale": None,
           "reference": TRIANGLE_REFERENCE}
    for kind in ("semimetric_op", "semimetric_frob"):
        values = tuple(distance(kind, P, Q) for P, Q in pairs)
        gap = values[2] - values[0] - values[1]
        out["variants"][kind] = {"values": values, "triangle_gap": gap}
        for scale in (1.0, 0.5):
            err = max(abs(scale * v - r)
                      for v, r in zip(values, TRIANGLE_REFERENCE))
            if err <= TRIANGLE_REFERENCE_TOL and out["matched_variant"] is None:
                out["matched_variant"] = kind
                out["matched_scale"] = scale
                out["matched_error"] = err
    return out


def contraction_converse_witness() -> dict:
    """Confirm S <= I while S X S <= X fails on the fixture pair."""
    s_le_identity = loewner_compare(CONTRACTION_S, np.eye(2)) in (Loewner.LE, Loewner.EQ)
    sxs = hermitian_part(CONTRACTION_S @ CONTRACTION_X @ CONTRACTION_S)
    order = loewner_compare(sxs, CONTRACTION_X)
    return {
        "s_le_identity": s_le_identity,
        "sxs_vs_x": order.value,
        "converse_fails": s_le_identity and order not in (Loewner.LE, Loewner.EQ),
    }
