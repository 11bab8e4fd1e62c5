"""Hermitian eigendecomposition and the spectral matrix functions built on it.

Every other module reduces its matrix work to the handful of primitives
defined here: a validated Hermitian eigendecomposition, functional calculus
(sqrt / log / real powers), congruence transforms, the two matrix norms, the
Loewner comparison, and the unitary polar factor.

The public functions validate their operands and then call the private
primitives ``_eigh``, ``_pd_eigh``, ``_powm`` and ``_logm``, which trust
their input: a Hermitian complex ndarray, or a decomposition already made.
The other modules do the same at their own public boundary, so one public
call checks each operand once and decomposes each distinct matrix once.
A function of a function of H, such as H^{-1}, H^{-1/2} or (H^t)^{1/2},
comes from H's own decomposition, as ``_powm`` at the product of the
exponents, not from a second eigensolve.

Tolerances are the constants ``HERMITICITY_TOL``, ``PD_TOL`` and
``LOEWNER_TOL``, read where their test is made; only ``loewner_compare``
takes its slack per call.

Stacks.  The primitives, and every public function built on them that says
so, also take a stack of matrices, shape (..., n, n), and act on each item:
a stack of k operand sets gives what k single calls give, and a stack with
one bad item raises the named error the single call on that item raises.
A curve parameter may then be one float or an array of the stack's leading
shape, one weight per item.  One matrix takes the stack's code, with three
forks that stay because they pay:
- ``_require_pd`` tests one spectrum on Python floats: 0.6 against 4.2 us
  a call, and the stack's test cost the ``ops-n2`` benchmark 2.1%;
- ``_powm`` skips the errstate and the overflow guard, on Python floats,
  when each w**t of one matrix lies within e**+-708;
- ``_eigh`` fixes one matrix's eigenvector phases at n >= 3, as ``eigh``
  promises.  A spectral function V f(w) V* does not depend on them, but
  dropping the fix changes the bits of every single-matrix result.  It
  runs on each ``_eigh`` of one matrix, a memo hit included, and costs
  more than the solve it follows (about 34 against 14 us at n = 8).  Kept
  only in the public ``eigh`` and ``pd_eigh``, the fix left the 70 calls
  of an ``ops-n8-illcond`` round, whose ``wall_s`` fell from 6.51/6.55 to
  3.66/3.67 ms (two 30 s pairs, one BLAS thread).  Kept in the memo
  entry, so that each matrix is fixed once, 41 of the 70 went, and the
  standing memo took ``wall_s`` from 6.41 to 4.33 ms, where without it
  the memo takes it from 6.42 to 5.83 ms (10 pairs each).  But the
  benchmark keeps data per completed round, so its rounds rose with the
  speed, by 48% in the second case, and ``peak_rss_mb`` past its 10%
  bound, from 53.3 to 60.2 MB.  The fix stays as it is until that peak
  stops growing with throughput.

Closed form at n <= 2.  Neither LAPACK nor the phase fix runs on a 1x1 or
2x2 matrix or stack: ``_small_eigh`` gives w = H_00 and V = 1 at n = 1, and
at n = 2 the rotation of LAPACK's own 2x2 kernel ``dlaev2``, which is what
LAPACK reduces a 2x2 to.  One matrix runs it on Python floats: 3.6 against
15.3 us for LAPACK's ``eigh`` and the phase fix (best of 7 timeit repeats,
one BLAS thread, a 2-core x86 machine).  A stack runs the same lines
elementwise on arrays in about LAPACK's time (50 items: 47 against 45 us),
so its items are the single calls' results bit for bit, phase convention
included.  Nor does an SVD run for the unitary polar factor at n <= 2:
``_small_polar`` gives U = m/|m| at n = 1 and U = (M + p adj(M)*)/(s1 + s2),
p = det M/|det M|, at n = 2.  One matrix runs it on Python floats: 5.6
against 17.7 us for the SVD route (``svd``, its singularity test and
W Vh).  A stack runs the same lines on arrays, 82 against 159 us for 50
items, and its items are again the single calls' results bit for bit
(best of 10 alternating processes, each the best of 7 timeit repeats).

Memo.  Each thread has one standing memo, made on its first solve.  In it
each solver (``eigh``, and the ``svd`` behind the polar factor) remembers
its last ``MEMO_SIZE`` results, within ``MEMO_BYTES`` bytes of keys and
results, keyed by the shape, dtype and bytes of the matrix or stack
solved: the points of a curve share its operands' spectra, and the
campaign chains the means and gyro operations on the same operands, so
each public call would otherwise solve them anew.  It holds LAPACK's
results at n >= 3 and the closed form of a stack at n <= 2, whose lookup
costs a hash of its bytes against about 1 us an item.  One 1x1 or 2x2
matrix is not held: its closed form takes a few us, and a miss would add
the key and the insert to every solve that does not repeat.
``registry.run_property`` runs each property inside ``_eigh_memo()``, a
fresh memo that the thread's standing one replaces again when the
property ends, so that a property's solve counts do not depend on what
ran before it.  A spectrum read alone (``_eigvalsh``) is the eigenvalue
half of ``eigh``, so it shares one entry with the decomposition of the
same matrix.  A hit needs byte equality, so it returns exactly what the
solver returned for the same input.  The stored arrays are read-only, and
no public function returns one of them: ``eigh``, ``pd_eigh`` and the
per-item scalars hand out copies.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from contextlib import contextmanager
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotFinite,
    NotHermitian,
    NotPositiveDefinite,
    Singular,
    UnknownCase,
    WeightOutOfRange,
)


# about 100x the eigensolve error at n <= 16, kappa <= 1e4; judged relative to
# max(1, largest |entry|), relative to the spectral radius, and absolutely
HERMITICITY_TOL = 1e-10
PD_TOL = 1e-10
LOEWNER_TOL = 1e-8

# the results each solver's memo holds; the campaign's repeats recur within 16
MEMO_SIZE = 16
# and the bytes of their keys and results: five times the 1.6 MB that a
# property of the default campaign holds at most, so that no caller's large
# stacks stay pinned in a thread's standing memo
MEMO_BYTES = 2**23
# ``memos``: this thread's memos, solver name -> _Memo
_LOCAL = threading.local()


class SpectralDecomposition(NamedTuple):
    """Eigendecomposition H = V diag(w) V* with w ascending and V unitary."""

    eigenvalues: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return _spectral(self, self.eigenvalues)


class Loewner(Enum):
    """Outcome of a Loewner-order comparison."""

    LE = "LE"
    GE = "GE"
    EQ = "EQ"
    INCOMPARABLE = "INCOMPARABLE"


def as_matrix(X) -> np.ndarray:
    """Coerce to a square complex matrix."""
    M = np.asarray(X, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    return M


def as_stack(X) -> np.ndarray:
    """Coerce to a square complex matrix or a stack of them, shape (..., n, n)."""
    M = np.asarray(X, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2] or M.shape[-1] < 1:
        raise DimensionMismatch(
            f"expected a square matrix or a stack of them, got shape {M.shape}")
    return M


def _item(bad: np.ndarray) -> str:
    """Message prefix naming the first flagged item of a stack ("" for one matrix)."""
    where = tuple(int(i) for i in np.argwhere(bad)[0])
    return f"item {where}: " if where else ""


def _any(flags) -> bool:
    """Whether a flag is set, for one numpy flag or an array of them."""
    return flags.any() if flags.ndim else bool(flags)


def _require_finite(x, message: str = "matrix has a NaN or infinite entry",
                    axes=(-2, -1)):
    """x, once every item (its trailing ``axes``) is finite; else NotFinite
    naming the first bad item."""
    bad = ~np.isfinite(x).all(axis=axes)
    if _any(bad):
        raise NotFinite(_item(bad) + message)
    return x


def _per_item(x):
    """A per-matrix reduction: a float for one matrix, an array for a stack
    (a copy where x is a memo's read-only view)."""
    if x.ndim == 0:
        return float(x)
    return x if x.flags.writeable else x.copy()


def _frobenius(M: np.ndarray):
    """Frobenius norm of a matrix, or of each item of a stack; an item whose
    norm leaves [2**-450, 2**450], where its squares may over- or underflow,
    is scaled by a power of two to a largest |entry| in [1/2, 1) and back."""
    with np.errstate(over="ignore", invalid="ignore"):
        f = np.linalg.norm(M, axis=(-2, -1))
        # pass first: the stack's extremes bound each item's norm
        if not f.size or _SAFE_LO <= f.min() and f.max() <= _SAFE_HI:
            return _per_item(f)
        mag = np.abs(M)
        k = np.frexp(mag.max(axis=(-2, -1)))[1]
        scaled = np.ldexp(np.linalg.norm(np.ldexp(mag, _per(-k)), axis=(-2, -1)), k)
    return _per_item(np.where((_SAFE_LO <= f) & (f <= _SAFE_HI), f, scaled))


def _trace(M: np.ndarray) -> np.ndarray:
    """Real part of the trace of a matrix, or of each item of a stack."""
    return np.trace(M, axis1=-2, axis2=-1).real


def _per(x) -> np.ndarray:
    """Per-item scalars as factors of a matrix stack (one scalar for one matrix)."""
    return np.asarray(x)[..., None, None]


def _top_eig(H: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of a Hermitian matrix, or of each item of a stack."""
    return _eigvalsh(H)[..., -1]


def require_same_dim(*matrices: np.ndarray) -> None:
    dims = {M.shape for M in matrices}
    if len(dims) > 1:
        raise DimensionMismatch(f"operands have mixed shapes {sorted(dims)}")


def require_hermitian(H) -> np.ndarray:
    """Validate finiteness and hermiticity; return the matrix as a complex ndarray.

    Also takes a stack (..., n, n) and checks each item.
    """
    return _hermitian(as_stack(H))


def require_hermitians(*operands) -> list[np.ndarray]:
    """Validate Hermitian operands of one common shape; return them as complex ndarrays.

    The operands may be stacks (..., n, n) of one common shape.
    """
    matrices = [as_stack(X) for X in operands]
    require_same_dim(*matrices)
    return [_hermitian(M) for M in matrices]


def _hermitian(M: np.ndarray) -> np.ndarray:
    """The checks of ``require_hermitian`` on a complex ndarray of square matrices."""
    with np.errstate(invalid="ignore", over="ignore"):
        defect = np.abs(M - M.conj().mT)
    # pass first: a defect within the bare tolerance passes every item's
    # test, and a NaN or infinite entry makes the defect NaN or infinite
    if defect.max(initial=0.0) <= HERMITICITY_TOL:
        return M
    peak = np.max(np.abs(M), axis=(-2, -1))
    bad = ~np.isfinite(peak)
    if bad.any():
        raise NotFinite(_item(bad) + "matrix has a NaN or infinite entry")
    defect = defect.max(axis=(-2, -1))
    bad = defect > HERMITICITY_TOL * np.maximum(1.0, peak)
    if bad.any():
        raise NotHermitian(
            _item(bad) + f"hermiticity defect {defect[bad][0]:.3e} exceeds tolerance")
    return M


def require_weight(t, operand: np.ndarray | None = None):
    """Reject a NaN or infinite curve parameter; return it as an eigenvalue exponent.

    When ``operand`` is a stack (..., n, n), ``t`` may also be an ndarray of
    its leading shape, one weight per item; it comes back with a trailing
    axis, so that it broadcasts against the stack's eigenvalues.
    """
    if isinstance(t, np.ndarray) and t.ndim:
        lead = () if operand is None else operand.shape[:-2]
        w = t.astype(float)
        if w.shape != lead:
            raise DimensionMismatch(
                f"weights of shape {w.shape} for a stack of leading shape {lead}")
        bad = ~np.isfinite(w)
        if bad.any():
            raise WeightOutOfRange(
                _item(bad) + f"curve parameter {float(w[bad][0])!r} is not finite")
        return w[..., None]
    if not math.isfinite(t):
        raise WeightOutOfRange(f"curve parameter {t!r} is not finite")
    return t


def hermitian_part(M: np.ndarray) -> np.ndarray:
    """(M + M*)/2, item by item for a stack; strips rounding drift from results.

    Halving first keeps the sum finite wherever M is.
    """
    H = 0.5 * M
    return H + H.conj().mT


class _Memo:
    """One solver's results by key, least recently used first, within
    ``MEMO_SIZE`` entries and ``MEMO_BYTES`` bytes of keys and results."""

    __slots__ = ("entries", "nbytes")

    def __init__(self):
        # key -> (result, the bytes of key and result)
        self.entries = OrderedDict()
        self.nbytes = 0

    def get(self, key):
        held = self.entries.get(key)
        if held is None:
            return None
        self.entries.move_to_end(key)
        return held[0]

    def put(self, key, out):
        """Hold out, read-only, under a key it does not hold yet."""
        size = len(key[2])
        for a in out:
            a.setflags(write=False)
            size += a.nbytes
        self.nbytes += size
        self.entries[key] = out, size
        while len(self.entries) > MEMO_SIZE or self.nbytes > MEMO_BYTES:
            self.nbytes -= self.entries.popitem(last=False)[1][1]


def _new_memos() -> dict:
    return {"eigh": _Memo(), "svd": _Memo()}


def _memos() -> dict:
    """This thread's memos, made on its first solve."""
    try:
        return _LOCAL.memos
    except AttributeError:
        _LOCAL.memos = memos = _new_memos()
        return memos


@contextmanager
def _eigh_memo():
    """Fresh memos for this block; the thread's own come back after it."""
    outer = _memos()
    _LOCAL.memos = _new_memos()
    try:
        yield
    finally:
        _LOCAL.memos = outer


def _lapack(solver: str, M: np.ndarray):
    """``np.linalg.<solver>(M)``, ``"eigh"`` or ``"svd"``, for a complex ndarray,
    through the thread's memo; an ``eigh`` at n <= 2 is ``_small_eigh``'s
    closed form, which the memo holds for a stack only."""
    small = solver == "eigh" and M.shape[-1] <= 2
    if small and M.ndim == 2:
        return _small_eigh(M)
    memo = _memos()[solver]
    key = (M.shape, M.dtype.char, M.tobytes())
    out = memo.get(key)
    if out is None:
        try:
            out = _small_eigh(M) if small else getattr(np.linalg, solver)(M)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(str(exc)) from exc
        memo.put(key, out)
    return out


def _rotation(a, d, br, bi, sqrt):
    """The eigenvalues, ascending, and the eigenvectors of the 2x2 Hermitian
    [[a, conj(b)], [b, d]], b = br + i bi, in closed form.

    The eigenvectors are those of LAPACK's ``dlaev2`` rotation of the real
    [[a, |b|], [|b|, d]], with b's phase b/|b| put back; its entry 2|b|h/c
    becomes 2bh/c, so |b| itself is never formed.  The caller keeps the
    entries inside [2**-450, 2**450] in modulus (or 0), so that no square or
    product of them overflows and none that matters to u ||H|| underflows,
    which lets the squares stand where ``dlaev2`` guards with ratios.
    Only + - * /, abs and ``sqrt`` run, and a branch is selected by
    multiplying with a 0/1 flag, so the same lines act on Python floats
    (one matrix) and on arrays (a stack, elementwise) with the same IEEE
    operations in the same order.  Every divisor is kept nonzero, so a
    finite input makes no NaN.

    Returns lo and hi and the real and imaginary parts of V00, V01, V10 and
    V11.  Each column has an entry of modulus at least the other's that is
    real positive.
    """
    bb = br * br + bi * bi
    sm, df = a + d, a - d
    rt = sqrt(df * df + 4 * bb)
    # the eigenvalue of larger modulus has modulus (|a + d| + rt)/2; the
    # other is det over it, which cancellation in (a + d -+ rt)/2 would spoil
    top = 0.5 * (abs(sm) + rt)
    other = (a * d - bb) / (top + (top == 0))
    neg = 1.0 * (sm < 0)
    pos = 1 - neg
    lo, hi = pos * other - neg * top, pos * top - neg * other
    # where rounding puts the two a few ulps out of order, they are equal
    lo = lo - (lo > hi) * (lo - hi)
    # the real matrix's eigenvector of the larger eigenvalue is (c, 2|b|)
    # where df > 0, else (2|b|, c), with c = |df| + rt >= 2|b| as in dlaev2;
    # at unit length its entries are h and |P|, P = 2bh/c, |P| <= h
    c = abs(df) + rt
    c = c + (c == 0)
    r1, r2 = br / c, bi / c
    h = 1 / sqrt(1 + 4 * (r1 * r1 + r2 * r2))
    p_re, p_im = (r1 + r1) * h, (r2 + r2) * h
    # with P = p_re + i p_im, lo's column is (-conj(P), h) where df > 0,
    # else (h, -P), and hi's is (h, P) or (conj(P), h)
    q = 1.0 * (df > 0)
    nq = 1 - q
    x, y, u, v = nq * h, q * p_re, nq * p_re, q * h
    yi, ui = q * p_im, nq * -p_im
    return lo, hi, x - y, yi, v + u, ui, v - u, ui, x + y, yi


# a 2x2 item whose largest |entry| leaves [2**-450, 2**450] is scaled by a
# power of two into [1/2, 1) for the rotation, as LAPACK scales; 0 is left
_SAFE_LO, _SAFE_HI = 2.0**-450, 2.0**450


def _ldexp(x: float, k: int) -> float:
    """x 2**k with one rounding, as ``np.ldexp``; inf, not OverflowError, past the doubles."""
    return x * 2.0**(k // 2) * 2.0**(k - k // 2)


def _small_eigh(M: np.ndarray):
    """``eigh`` of a 1x1 or 2x2 Hermitian matrix or stack, in closed form.
    The eigenvectors carry ``eigh``'s phase convention, and a stack's items
    are the single calls' results bit for bit."""
    if M.shape[-1] == 1:
        return M[..., 0].real.copy(), np.ones(M.shape, dtype=complex)
    if M.ndim == 2:
        (h00, _), (h10, h11) = M.tolist()
        a, d, br, bi = h00.real, h11.real, h10.real, h10.imag
        peak = max(abs(a), abs(d), abs(br), abs(bi))
        k = 0 if _SAFE_LO <= peak <= _SAFE_HI else math.frexp(peak)[1]
        if k:
            a, d, br, bi = (_ldexp(x, -k) for x in (a, d, br, bi))
        out = _rotation(a, d, br, bi, math.sqrt)
        w = np.array([_ldexp(out[0], k), _ldexp(out[1], k)] if k else out[:2])
        return w, np.array(out[2:]).view(complex).reshape(2, 2)
    a, d, b = M[..., 0, 0].real, M[..., 1, 1].real, M[..., 1, 0]
    br, bi = b.real, b.imag
    peak = np.abs(np.stack((a, d, br, bi))).max(axis=0)
    # pass first: the stack's extremes bound each item's peak, and they are
    # finite when they pass
    if not peak.size or _SAFE_LO <= peak.min() and peak.max() <= _SAFE_HI:
        out = _rotation(a, d, br, bi, np.sqrt)
        w = np.stack(out[:2], axis=-1)
    else:
        k = np.where((_SAFE_LO <= peak) & (peak <= _SAFE_HI), 0, np.frexp(peak)[1])
        # a non-finite item, which only an overflowed intermediate brings
        # here, makes NaN as the single call does, without a warning
        with np.errstate(invalid="ignore", over="ignore"):
            out = _rotation(*(np.ldexp(x, -k) for x in (a, d, br, bi)), np.sqrt)
            w = np.ldexp(np.stack(out[:2], axis=-1), k[..., None])
    return w, np.stack(out[2:], axis=-1).view(complex).reshape(M.shape)


def _eigvalsh(M: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues of a Hermitian complex ndarray, from its ``eigh``."""
    return _lapack("eigh", M)[0]


def _eigh(M: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of M, trusted to be a Hermitian complex ndarray.

    A single matrix, and at n <= 2 a stack too, gets the phase convention of
    ``eigh``; a larger stack keeps LAPACK's phases.
    """
    w, V = _lapack("eigh", M)
    return SpectralDecomposition(w, _fix_phases(V) if V.ndim == 2 and len(V) > 2 else V)


def _raise_not_pd(where: str, smallest, scale):
    # a NaN eigenvalue comes from a matrix that overflowed on its way here
    if math.isnan(smallest):
        raise NotFinite(where + "the matrix overflows the double range")
    raise NotPositiveDefinite(where + f"smallest eigenvalue {smallest:.3e} not above "
                              f"tolerance (relative to spectral radius {scale:.3e})")


def _require_pd(w: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues w, one row per item, if each item is positive definite."""
    if w.ndim == 1:
        lo, hi = float(w[0]), float(w[-1])  # Python floats: numpy scalars cost more
        scale = max(abs(lo), abs(hi))
        if not lo > PD_TOL * scale:
            _raise_not_pd("", lo, scale)
        return w
    lo, hi = w[..., 0], w[..., -1]
    # with w ascending, hi is the spectral radius wherever lo > 0, and where
    # lo <= 0 or is NaN the test fails either way: the same test as above
    bad = ~(lo > PD_TOL * hi)
    if bad.any():
        scale = np.maximum(np.abs(lo), np.abs(hi))
        _raise_not_pd(_item(bad), lo[bad][0], scale[bad][0])
    return w


def _pd_eigh(M: np.ndarray) -> SpectralDecomposition:
    """``_eigh`` followed by the positive definiteness test of ``pd_eigh``."""
    dec = _eigh(M)
    _require_pd(dec.eigenvalues)
    return dec


def _pd_eigvals(M: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues of M, with the test of ``_pd_eigh``."""
    return _require_pd(_eigvalsh(M))


def eigh(H) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    H : array_like, shape (n, n)
        Hermitian matrix.

    Returns
    -------
    SpectralDecomposition
        Eigenvalues ascending; eigenvector phases fixed so that the
        largest-magnitude component of each column is real positive, which
        makes the output deterministic for golden tests (where two
        components tie to rounding, either may be the real one).  A stack
        (..., n, n) is decomposed item by item, with LAPACK's phases at
        n >= 3.  At n <= 2 the decomposition is made in closed form, without
        LAPACK: a stack then carries the phase convention too, and gives the
        single calls' results bit for bit.  ``min_eig`` and ``norm`` read
        the eigenvalues of this same decomposition.  The arrays are the
        caller's own: writing into them changes no later result.

    Raises
    ------
    NotFinite
        If an entry is NaN or infinite.
    NotHermitian
        If the symmetry defect exceeds ``HERMITICITY_TOL`` times
        max(1, largest |entry|).
    NoConvergence
        If LAPACK's iteration fails (n >= 3).
    """
    return _owned(_eigh(require_hermitian(H)))


def _owned(dec: SpectralDecomposition) -> SpectralDecomposition:
    """dec with arrays the caller may write: a memo's read-only ones are copied."""
    w, V = dec
    return SpectralDecomposition(w if w.flags.writeable else w.copy(),
                                 V if V.flags.writeable else V.copy())


def _fix_phases(V: np.ndarray) -> np.ndarray:
    V = V.copy()
    for j in range(V.shape[1]):
        k = int(np.argmax(np.abs(V[:, j])))
        pivot = V[k, j]
        mag = abs(pivot)
        if mag > 0:
            V[:, j] *= pivot.conjugate() / mag
    return V


def pd_eigh(A) -> SpectralDecomposition:
    """Eigendecomposition of a positive definite matrix.

    Positive definiteness is judged relative to the spectral radius: the
    smallest eigenvalue must exceed ``PD_TOL`` times the largest
    magnitude.  (Matrices at extreme overall scales arise legitimately as
    powers of curve points; an absolute floor would misclassify them.)
    """
    return _owned(_pd_eigh(require_hermitian(A)))


def is_positive_definite(A) -> bool:
    try:
        _pd_eigvals(require_hermitian(A))
    except (NotPositiveDefinite, NotHermitian, NotFinite):
        return False
    return True


def min_eig(H):
    """Smallest eigenvalue of a Hermitian matrix (one per item for a stack)."""
    return _per_item(_eigvalsh(require_hermitian(H))[..., 0])


def _spectral(dec: SpectralDecomposition, fw: np.ndarray) -> np.ndarray:
    """V diag(fw) V*, item by item."""
    V = dec.vectors
    if fw.ndim > 1:
        fw = fw[..., None, :]
    return (V * fw) @ V.conj().mT


def _apply(dec: SpectralDecomposition, fw: np.ndarray) -> np.ndarray:
    return hermitian_part(_spectral(dec, fw))


def _finite_positive(fw: np.ndarray) -> np.ndarray:
    """fw, a monotone map of ascending eigenvalues, if its two ends, and so all
    of it, are finite positive doubles; NotFinite where they overflow or underflow."""
    lo, hi = fw[..., 0], fw[..., -1]
    bad = ~((0 < lo) & (lo < np.inf) & (0 < hi) & (hi < np.inf))
    if _any(bad):
        raise NotFinite(_item(bad) + "an eigenvalue maps outside the finite positive doubles")
    return fw


def _powm(dec: SpectralDecomposition, t: float) -> np.ndarray:
    """The t-th power of a positive definite matrix, from its decomposition."""
    w = dec.eigenvalues
    if w.ndim == 1 and abs(t * math.log(w[0])) < 708 and abs(t * math.log(w[-1])) < 708:
        # every w**t lies within e**+-708, inside the normal doubles
        return _apply(dec, np.power(w, t))
    with np.errstate(over="ignore", invalid="ignore"):
        fw = np.power(w, t)
    return _apply(dec, _finite_positive(fw))


def _sandwich(S: np.ndarray, X: np.ndarray, S_adj: np.ndarray | None = None) -> np.ndarray:
    """S X S_adj, a product that is Hermitian in exact arithmetic (S X S for
    Hermitian S and X when ``S_adj`` is None), item by item; NotFinite where
    it overflows, as a mean's curve points do far out on the curve."""
    with np.errstate(over="ignore", invalid="ignore"):
        P = hermitian_part(S @ X @ (S if S_adj is None else S_adj))
        # pass first: a NaN or infinite entry makes the sum NaN or infinite
        if math.isfinite(abs(P.sum())):
            return P
    return _require_finite(P, "the result overflows the double range")


def _positive_diagonal(P: np.ndarray) -> np.ndarray:
    """P, positive definite in exact arithmetic, once each item's diagonal
    lies in the finite positive doubles; else NotFinite, which only an
    overflow or an underflow to 0 brings about."""
    d = P.diagonal(0, -2, -1).real
    bad = ~((0 < d) & (d < np.inf)).all(axis=-1)
    if _any(bad):
        raise NotFinite(_item(bad) + "a diagonal entry leaves the finite positive doubles")
    return P


def _unscale(P: np.ndarray, e: np.ndarray) -> np.ndarray:
    """P 2**e item by item (e per item, a trailing axis), for a positive definite
    P: exact ``np.ldexp`` for e's integer part, one rounding for the rest, then
    the test of ``_positive_diagonal``."""
    e = e[..., None]
    k = np.floor(e)
    with np.errstate(over="ignore"):
        return _positive_diagonal(
            np.ldexp((P * np.exp2(e - k)).view(float), k.astype(int)).view(complex))


def _logm(dec: SpectralDecomposition) -> np.ndarray:
    """The logarithm of a positive definite matrix, from its decomposition."""
    return _apply(dec, np.log(dec.eigenvalues))


def powm(A, t: float) -> np.ndarray:
    """A**t for positive definite A and any finite real t, via the spectral map.

    Raises NotFinite where an eigenvalue's power overflows or underflows to 0.
    """
    Am = require_hermitian(A)
    return _powm(_pd_eigh(Am), require_weight(t, Am))


def sqrtm(A) -> np.ndarray:
    return _powm(_pd_eigh(require_hermitian(A)), 0.5)


def invm(A) -> np.ndarray:
    return _powm(_pd_eigh(require_hermitian(A)), -1.0)


def logm(A) -> np.ndarray:
    """Principal logarithm of a positive definite matrix (Hermitian result)."""
    return _logm(_pd_eigh(require_hermitian(A)))


def expm(H) -> np.ndarray:
    """exp of a Hermitian matrix (positive definite result, else NotFinite)."""
    dec = _eigh(require_hermitian(H))
    with np.errstate(over="ignore"):
        fw = np.exp(dec.eigenvalues)
    return _apply(dec, _finite_positive(fw))


def matrix_function(A, kind: str, t: float | None = None) -> np.ndarray:
    """Spectral function of a positive definite matrix.

    ``kind`` is one of ``"sqrt"``, ``"log"``, ``"power"``; ``power`` requires
    the exponent ``t`` and accepts any real value (``power(-1)`` is the
    inverse). Non-integer powers require strict positive definiteness; there
    is no pseudo-inverse fallback.
    """
    if kind == "sqrt":
        return sqrtm(A)
    if kind == "log":
        return logm(A)
    if kind == "power":
        if t is None:
            raise UnknownCase("power requires an exponent t")
        return powm(A, t)
    raise UnknownCase(f"unknown matrix function {kind!r}")


def _exponent(M: np.ndarray) -> int:
    """The k with 2**(k-1) <= largest |entry| < 2**k (0 for the zero matrix)."""
    return math.frexp(float(np.abs(M).max()))[1]


def congruence(X, S) -> np.ndarray:
    """Congruence transform S X S* of a Hermitian X.

    The product is made at S and X scaled by powers of two to a largest
    |entry| in [1/2, 1), where nothing that matters over- or underflows, and
    then scaled back.  NotFinite where the result overflows, or where an
    entry that is significant at that unit scale (above u times the largest)
    becomes subnormal or 0; an entry that is 0 at unit scale, as a singular
    S makes, stays 0.
    """
    Xm = require_hermitian(as_matrix(X))
    Sm = np.asarray(S, dtype=complex)
    if Sm.ndim != 2 or Sm.shape[1] != Xm.shape[0]:
        raise DimensionMismatch(
            f"congruence factor shape {Sm.shape} incompatible with {Xm.shape}"
        )
    Sm = _require_finite(Sm, "the congruence factor has a NaN or infinite entry")
    ks, kx = _exponent(Sm), _exponent(Xm)
    Ss = _ldexp(Sm, -ks)
    unit = hermitian_part(Ss @ _ldexp(Xm, -kx) @ Ss.conj().T)
    with np.errstate(over="ignore"):
        P = np.ldexp(unit.view(float), 2 * ks + kx).view(complex)
        if not np.isfinite(P).all():
            raise NotFinite("the result overflows the double range")
        size = np.abs(unit)
        # u times the largest entry at unit scale: below it is rounding
        significant = size > 2.0**-53 * size.max()
        if (np.abs(P[significant]) < np.finfo(float).tiny).any():
            raise NotFinite("the result underflows the double range")
    return P


def norm(H, kind: str = "operator") -> float:
    """Operator (largest |eigenvalue|) or Frobenius norm of a Hermitian matrix."""
    M = require_hermitian(as_matrix(H))
    if kind == "operator":
        return float(np.max(np.abs(_eigvalsh(M))))
    if kind == "frobenius":
        return _frobenius(M)
    raise UnknownCase(f"unknown norm kind {kind!r}")


def loewner_compare(X, Y, tol: float = LOEWNER_TOL) -> Loewner:
    """Compare Hermitian X, Y in the Loewner order at eigenvalue slack ``tol``.

    LE iff min-eig(Y - X) >= -tol, GE symmetrically, EQ if both hold.
    The test is made on Y/2 - X/2 at slack tol/2: halving is exact for
    normal doubles, and the halved difference cannot overflow.
    """
    Xm = require_hermitian(as_matrix(X))
    Ym = require_hermitian(as_matrix(Y))
    require_same_dim(Xm, Ym)
    w = _eigvalsh(hermitian_part(0.5 * Ym - 0.5 * Xm))
    le = w[0] >= -0.5 * tol
    ge = w[-1] <= 0.5 * tol
    if le and ge:
        return Loewner.EQ
    if le:
        return Loewner.LE
    if ge:
        return Loewner.GE
    return Loewner.INCOMPARABLE


def polar_unitary(M) -> np.ndarray:
    """Unitary factor U = W Vh of an invertible M = W diag(s) Vh (or a stack).

    Satisfies M = (M M*)^{1/2} U with U U* = I.  M counts as singular when
    its smallest singular value is at most sqrt(``PD_TOL``) times the
    largest, a test that does not depend on the scale of M.

    At n <= 2, U comes in closed form, without LAPACK, and a stack's items
    are the single calls' results bit for bit; at n >= 3 it comes from one
    LAPACK SVD.  Either way its error is O(u kappa(M)), since U's condition
    number is 1/s_min (Higham, Functions of Matrices, 2008, Thm 8.9), and
    U is unitary to rounding.  NoConvergence, where the SVD fails, arises
    only at n >= 3.
    """
    return _polar_unitary(_require_finite(as_stack(M)))


def _raise_singular(where: str):
    raise Singular(where + "matrix has a (numerically) vanishing singular value")


def _polar_unitary(Mm: np.ndarray) -> np.ndarray:
    """``polar_unitary`` of a finite complex matrix or stack."""
    if Mm.shape[-1] <= 2:
        return _small_polar(Mm)
    W, s, Vh = _lapack("svd", Mm)
    bad = s[..., -1] <= math.sqrt(PD_TOL) * s[..., 0]
    if bad.any():
        _raise_singular(_item(bad))
    return W @ Vh


def _polar_terms(z, sqrt):
    """The smallest and largest singular values of a 1x1 or 2x2 M, and its
    unitary polar factor as numerators over one denominator, in closed form.

    ``z`` holds the real and imaginary parts of M's entries, row by row.  At
    n = 1, U = m/|m|.  At n = 2, with p = det M/|det M| and the singular
    values s1 >= s2, U = (M + p adj(M)*)/(s1 + s2), where
    s1 +- s2 = sqrt(||M||_F**2 +- 2|det M|): the denominator cannot cancel
    (N. J. Higham, Functions of Matrices, 2008, ch. 8).  The caller keeps
    the entries inside [2**-225, 2**225] in modulus (or 0), so that no
    product of four of them overflows or underflows to where it matters.
    Only + - * /, abs and ``sqrt`` run, as in ``_rotation``, so the same
    lines act on Python floats and on arrays with the same IEEE operations.
    """
    if len(z) == 2:
        re, im = z
        r = sqrt(re * re + im * im)
        # s_min as |m|**2/|m|: NaN, not a Singular item, where m is infinite,
        # as at n = 2
        return r * r / (r + (r == 0)), r, z, r
    ar, ai, br, bi, cr, ci, dr, di = z
    det_re = (ar * dr - ai * di) - (br * cr - bi * ci)
    det_im = (ar * di + ai * dr) - (br * ci + bi * cr)
    det = sqrt(det_re * det_re + det_im * det_im)
    fro2 = (ar * ar + ai * ai) + (br * br + bi * bi) + (cr * cr + ci * ci) + (dr * dr + di * di)
    total = sqrt(fro2 + 2 * det)
    # s1 - s2 comes out of a cancellation, but only where it is small beside s1 + s2
    s_max = 0.5 * (total + sqrt(abs(fro2 - 2 * det)))
    s_min = det / (s_max + (s_max == 0))
    pr, pi = det_re / (det + (det == 0)), det_im / (det + (det == 0))
    # M + p adj(M)*, with adj(M)* = [[conj d, -conj c], [-conj b, conj a]]
    num = (ar + (pr * dr + pi * di), ai + (pi * dr - pr * di),
           br - (pr * cr + pi * ci), bi - (pi * cr - pr * ci),
           cr - (pr * br + pi * bi), ci - (pi * br - pr * bi),
           dr + (pr * ar + pi * ai), di + (pi * ar - pr * ai))
    return s_min, s_max, num, total


# a 1x1 or 2x2 item whose largest |entry| leaves [2**-225, 2**225] is scaled
# by a power of two into [1/2, 1); U does not depend on the scale of M.  The
# window is the square root of ``_small_eigh``'s: |det M|**2 is a product of
# four entries, where a product of two stays inside the doubles
_POLAR_LO, _POLAR_HI = math.sqrt(_SAFE_LO), math.sqrt(_SAFE_HI)


def _small_polar(M: np.ndarray) -> np.ndarray:
    """``_polar_unitary`` of a 1x1 or 2x2 matrix or stack, in closed form,
    with the singularity test of the SVD route; a stack's items are the
    single calls' results bit for bit."""
    tol = math.sqrt(PD_TOL)
    # the real and imaginary parts of each entry, row by row
    parts = np.ascontiguousarray(M).view(float).reshape(M.shape[:-2] + (-1,))
    if M.ndim == 2:
        z = parts.tolist()
        peak = max(map(abs, z))
        if not _POLAR_LO <= peak <= _POLAR_HI:
            # math.ldexp rounds once, as np.ldexp does, and cannot overflow here
            k = math.frexp(peak)[1]
            z = [math.ldexp(x, -k) for x in z]
        s_min, s_max, num, den = _polar_terms(z, math.sqrt)
        if s_min <= tol * s_max:
            _raise_singular("")
        return np.array([x / den for x in num]).view(complex).reshape(M.shape)
    z = list(np.moveaxis(parts, -1, 0))
    peak = np.abs(parts).max(axis=-1)
    # pass first, as in ``_small_eigh``
    if peak.size and not (_POLAR_LO <= peak.min() and peak.max() <= _POLAR_HI):
        k = np.where((_POLAR_LO <= peak) & (peak <= _POLAR_HI), 0, np.frexp(peak)[1])
        z = [np.ldexp(x, -k) for x in z]
    # a non-finite item, which only an overflowed intermediate brings here,
    # makes NaN as the single call does, without a warning
    with np.errstate(invalid="ignore", over="ignore"):
        s_min, s_max, num, den = _polar_terms(z, np.sqrt)
        bad = s_min <= tol * s_max
        if bad.any():
            _raise_singular(_item(bad))
        U = np.stack([x / den for x in num], axis=-1)
    return U.view(complex).reshape(M.shape)
