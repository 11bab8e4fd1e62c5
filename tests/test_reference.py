"""The spectral route against a 40-digit reference.

The package makes A^{-1} # B as A^{-1/2} U B^{1/2}, U the SVD polar factor
of A^{-1/2} B^{-1/2}; the reference makes it by the whitening formula
A^{-1/2} (A^{1/2} B A^{1/2})^{1/2} A^{-1/2} in 40-digit arithmetic, where
the route does not matter.  Over the first 200 pairs of this stream, in
double precision, the whitening route was off by up to 1.2e-10 relative and
the polar route by 1.5e-13.
"""

import numpy as np
import pytest

from gyromean.means import spectral_mean
from gyromean.metrics import distance
from gyromean.randgen import gen_random_unitary, substream

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

N = 4
SPECTRUM = np.logspace(0.0, 4.0, N)  # kappa 1e4 for each operand


def _pair(i):
    """Haar unitaries times the log-spaced spectrum: a pinned pair of kappa 1e4."""
    rng = substream(218, "reference-pairs", i)
    A, B = ((U * SPECTRUM) @ U.conj().T for U in (gen_random_unitary(rng, N)
                                                for _ in range(2)))
    return (A + A.conj().T) / 2, (B + B.conj().T) / 2


def _mp_function(M, f):
    """f(M) for Hermitian M, by its 40-digit eigendecomposition."""
    w, Q = mp.eighe((M + M.H) / 2)
    return Q * mp.diag([f(x) for x in w]) * Q.H


def _reference(A, B, ts):
    """(the spectral means at each t, the operator semimetric) to 40 digits."""
    with mp.workdps(40):
        Am, Bm = mp.matrix(A.tolist()), mp.matrix(B.tolist())
        root = _mp_function(Am, mp.sqrt)
        inv_root = _mp_function(Am, lambda x: 1 / mp.sqrt(x))
        W = inv_root * _mp_function(root * Bm * root, mp.sqrt) * inv_root
        means = [_mp_function(W, lambda x: x**t) * Am * _mp_function(W, lambda x: x**t)
                 for t in ts]
        semimetric = 2 * max(abs(mp.log(x)) for x in mp.eighe((W + W.H) / 2)[0])
        return [np.array(M.tolist(), dtype=complex) for M in means], float(semimetric)


TS = (0.1, 0.5, 0.9)


@pytest.mark.parametrize("i", range(4))
def test_the_spectral_route_matches_a_40_digit_reference(i):
    A, B = _pair(i)
    means, semimetric = _reference(A, B, TS)
    for t, want in zip(TS, means):
        got = spectral_mean(A, B, t)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) <= 2e-12
    assert abs(distance("semimetric_op", A, B) - semimetric) / semimetric <= 2e-12
