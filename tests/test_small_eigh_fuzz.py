"""The closed-form eigendecomposition at n = 2 against numpy's LAPACK ``eigh``.

Generated over the whole range of scales, the subnormal one included; see
``test_small_eigh`` for the pinned inputs and the 50-digit reference.
"""

import numpy as np
import pytest

from gyromean.kernel import eigh
from test_small_eigh import TINIEST, U, pinned

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

UNIT = st.floats(-2.0, 2.0, allow_nan=False)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(a=UNIT, d=UNIT, br=UNIT, bi=UNIT, e=st.integers(-1000, 1000))
def test_the_closed_form_agrees_with_lapack(a, d, br, bi, e):
    s = 2.0**e
    H = s * np.array([[a, complex(br, -bi)], [complex(br, bi), d]])
    dec = eigh(H)
    w, V = dec.eigenvalues, dec.vectors
    lapack = np.linalg.eigvalsh(H)
    # both are backward stable, so by Weyl they differ by at most a few u ||H||,
    # plus the subnormal spacing where H's entries have underflowed
    slack = 8 * U * np.max(np.abs(lapack)) + 4 * TINIEST
    assert np.all(np.abs(w - lapack) <= slack)
    # the residual, on H / s so that no norm overflows; exact where H / s is normal
    Hs, ws = H / s, w / s
    residual = np.linalg.norm(Hs @ V - V * ws)
    assert residual <= 1e-14 * max(np.max(np.abs(ws)), np.max(np.abs(Hs))) + 4 * TINIEST / s
    assert np.linalg.norm(V.conj().T @ V - np.eye(2)) <= 1e-14
    assert w[0] <= w[1]
    assert pinned(V)
    stack = eigh(np.stack([H, 2.0 * H]))
    assert np.array_equal(stack.eigenvalues[0], w)
    assert np.array_equal(stack.vectors[0], V)
