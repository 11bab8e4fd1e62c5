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

Boundary.  ``_framed`` checks and frames the Hermitian operands of a public
call, in one pass per operand where the operand takes the fast route
(``_exact``): exactly Hermitian, each entry the conjugate of its mirror and
the diagonal real, finite, and each item's largest |entry| inside the
frame's window, so that the frame keeps it as it is.  One 1x1 or 2x2
matrix is tested on Python floats from one ``tolist()``; a larger one or a
stack by ``M == M.conj().mT`` and each item's |entry| peak.  Any other
operand takes the tolerance route: the ``HERMITICITY_TOL`` test, which
passes it or raises the named error, and then ``_frame``.  So neither a
result's bits nor an error's class and message depend on the route.
``require_hermitian`` and a density's test take the same pass, without the
frame.  ``hermitian_part`` makes exactly Hermitian results, and the
package's samplers exactly Hermitian draws; a product G G* that numpy forms
outside BLAS usually is not, and pays for the fast test on top of the
tolerance route.  The fast route stays because it pays: at n = 2 the
boundary cost more than a call's arithmetic.

Tolerances are the constants ``HERMITICITY_TOL``, ``PD_TOL`` and
``LOEWNER_TOL``, read where their test is made; only ``loewner_compare``
takes its slack per call.

Scale.  Every operation the package defines is homogeneous, with degrees
known in advance (Bhatia, *Positive Definite Matrices*, 2007, ch. 4):
A #_t B and the spectral mean have degrees (1 - t, t) in (A, B), A (+) B
and the cooperation (1, 1), t (.) A = A^t has degree t, a gyration
(0, 0, 1) in (A, B, X) and the congruence S X S* 2 in S and 1 in X; the
distances, ``sup_ratio`` and ``logm`` shift by a known log term.  So one
frame serves the public surface.  On entry, ``_frame`` writes each item of
each operand as 2**e M, with M's largest |entry| in [1/2, 1), except
where its largest |entry| already lies in [2**-128, 2**128]: that item
keeps e = 0 and its bits.  The private primitives compute at that scale,
where no intermediate of operands with kappa <= 1/PD_TOL leaves the ranges
that the closed forms at n <= 2 need, and ``_unscale`` scales the result
back once, by its degrees.  It is the one exit: NotFinite where the result
overflows, where a diagonal entry of a positive definite result underflows
to 0, or where an entry that is significant at unit scale (above u times
the largest) comes out subnormal (0, where an operand of the item was
subnormal itself).  Eigenvalues, norms and ratios leave through its scalar
twin ``_unscale_values``, NotFinite where one leaves the finite doubles.
The exceptions are explicit: ``expm``, which is not homogeneous; powers and
curve points far out on a curve, where kappa**t itself leaves the doubles
(``_finite_positive``); and ``_sandwich``'s overflow test, which the
density operations need, since no frame scales a density.

Stacks.  The primitives, and every public function built on them that says
so, also take a stack of matrices, shape (..., n, n), and act on each item:
a stack of k operand sets gives what k single calls give, and a stack with
one bad item raises the named error the single call on that item raises.
A curve parameter may then be one float or an array of the stack's leading
shape, one weight per item.  One matrix takes the stack's code, with four
forks that stay because they pay:
- ``_exact`` tests one 1x1 or 2x2 matrix on Python floats: one
  ``tolist()`` serves the exact-Hermitian test, the finiteness test and
  the frame's largest |entry|, at a fraction of the numpy pass;
- ``_require_pd`` tests one spectrum on Python floats, which costs a
  fraction of the stack's test;
- ``_powm`` skips the errstate and the overflow guard, on Python floats,
  when each w**t of one matrix lies within e**+-708;
- ``_eigh`` fixes one matrix's eigenvector phases at n >= 3, as ``eigh``
  promises.  A spectral function V f(w) V* does not depend on them, but
  dropping the fix changes the bits of every single-matrix result.  It
  runs on each ``_eigh`` of one matrix, a memo hit included, and costs
  more than the solve it follows; it stays there until the benchmark's
  peak memory stops growing with throughput (CHANGES.md).

Closed form at n <= 2.  Neither LAPACK nor the phase fix runs on a 1x1 or
2x2 matrix or stack: ``_small_eigh`` gives w = H_00 and V = 1 at n = 1, and
at n = 2 the rotation of LAPACK's own 2x2 kernel ``dlaev2``, which is what
LAPACK reduces a 2x2 to.  Nor does an SVD run for the unitary polar factor:
``_small_polar`` gives U = m/|m| at n = 1 and U = (M + p adj(M)*)/(s1 + s2),
p = det M/|det M|, at n = 2.  One matrix runs each on Python floats, and a
stack the same lines elementwise on arrays, so its items are the single
calls' results bit for bit, phase convention included.

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
    NonPositiveArgument,
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
    """Frobenius norm of a matrix, or of each item of a stack."""
    return _per_item(np.linalg.norm(M, axis=(-2, -1)))


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
    M = as_stack(H)
    _check(M)
    return M


def _framed(*operands):
    """The public boundary of a framed operation: the operands as complex
    ndarrays of one common shape, checked as ``require_hermitian`` checks
    each and framed as ``_frame`` frames them, with a single pass per
    operand where each one takes the fast route."""
    matrices = [as_stack(X) for X in operands]
    require_same_dim(*matrices)
    # a list, so that every operand is checked before all() reads it
    inside = [_check(M) for M in matrices]
    return (matrices, None) if all(inside) else _frame(*matrices)


def _check(M: np.ndarray) -> bool:
    """The checks of ``require_hermitian`` on a complex ndarray of square
    matrices; whether M took the fast route (``_exact``), which also places
    each item in the frame's window.  Every other operand takes the
    tolerance route, which passes it or raises the named error."""
    if _exact(M):
        return True
    with np.errstate(invalid="ignore", over="ignore"):
        defect = np.abs(M - M.conj().mT)
    # pass first: a defect within the bare tolerance passes every item's
    # test, and a NaN or infinite entry makes the defect NaN or infinite
    if defect.max(initial=0.0) <= HERMITICITY_TOL:
        return False
    peak = np.max(np.abs(M), axis=(-2, -1))
    bad = ~np.isfinite(peak)
    if bad.any():
        raise NotFinite(_item(bad) + "matrix has a NaN or infinite entry")
    defect = defect.max(axis=(-2, -1))
    bad = defect > HERMITICITY_TOL * np.maximum(1.0, peak)
    if bad.any():
        raise NotHermitian(
            _item(bad) + f"hermiticity defect {defect[bad][0]:.3e} exceeds tolerance")
    return False


def _exact(M: np.ndarray) -> bool:
    """The fast route of the boundary pass: whether M is exactly Hermitian
    and finite, with each item's largest |entry| in [2**-128, 2**128].

    The largest |entry| is the one ``_frame`` reads, so where this holds
    the frame keeps every operand as it is.  One 1x1 or 2x2 matrix takes
    one ``tolist()`` and Python floats; a larger one or a stack takes an
    exact-equality test and the |entry| peak of each item.
    """
    if M.ndim == 2 and M.shape[0] <= 2:
        rows = M.tolist()
        if len(rows) == 1:
            a = rows[0][0]
            return a.imag == 0 and _FRAME_LO <= abs(a.real) <= _FRAME_HI
        (a, b), (c, d) = rows
        if not (a.imag == 0 == d.imag and b == c.conjugate()):
            return False
        x, y = abs(a.real), abs(d.real)
        # each diagonal entry is tested alone, since max() passes over a NaN
        # after its first argument, and b's parts before |b|, which CPython
        # refuses to overflow
        return (x <= _FRAME_HI and y <= _FRAME_HI
                and abs(b.real) <= _FRAME_HI and abs(b.imag) <= _FRAME_HI
                and _FRAME_LO <= max(x, y, abs(b)) <= _FRAME_HI)
    # a NaN entry fails the equality, and an infinite one the window
    if not (M == M.conj().mT).all():
        return False
    if M.ndim == 2:
        return _FRAME_LO <= float(np.abs(M).max()) <= _FRAME_HI
    peaks = np.abs(M).max(axis=(-2, -1))
    return bool(_FRAME_LO <= peaks.min(initial=_FRAME_HI)
                and peaks.max(initial=_FRAME_LO) <= _FRAME_HI)


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
    becomes 2bh/c, so |b| itself is never formed.  The frame keeps the
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


def _small_eigh(M: np.ndarray):
    """``eigh`` of a 1x1 or 2x2 Hermitian matrix or stack, in closed form.
    The eigenvectors carry ``eigh``'s phase convention, and a stack's items
    are the single calls' results bit for bit."""
    if M.shape[-1] == 1:
        return M[..., 0].real.copy(), np.ones(M.shape, dtype=complex)
    if M.ndim == 2:
        (h00, _), (h10, h11) = M.tolist()
        out = _rotation(h00.real, h11.real, h10.real, h10.imag, math.sqrt)
        return np.array(out[:2]), np.array(out[2:]).view(complex).reshape(2, 2)
    b = M[..., 1, 0]
    # a non-finite item, which only an overflowed intermediate brings here,
    # makes NaN as the single call does, without a warning
    with np.errstate(invalid="ignore", over="ignore"):
        out = _rotation(M[..., 0, 0].real, M[..., 1, 1].real, b.real, b.imag, np.sqrt)
    return np.stack(out[:2], axis=-1), np.stack(out[2:], axis=-1).view(complex).reshape(M.shape)


def _eigvalsh(M: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues of a Hermitian complex ndarray, from its ``eigh``."""
    return _lapack("eigh", M)[0]


def _eigh(M: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of M, trusted to be a Hermitian complex ndarray.

    A single matrix, and at n <= 2 a stack too, gets the phase convention of
    ``eigh``; a larger stack keeps LAPACK's phases.
    """
    return _decomposed(_lapack("eigh", M))


def _decomposed(solved) -> SpectralDecomposition:
    """``_eigh`` of M from ``_lapack("eigh", M)``, for a caller that has
    read the spectrum alone first."""
    w, V = solved
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
    return _framed_eigh(H, _eigh)


def _framed_eigh(H, solve) -> SpectralDecomposition:
    """solve(H) made at H's unit scale, with arrays the caller may write: a
    memo's read-only ones are copied."""
    (M,), e = _framed(H)
    w, V = solve(M)
    w = _unscale_values(w, _degree(e, 1))
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
    return _framed_eigh(A, _pd_eigh)


def is_positive_definite(A) -> bool:
    try:
        _pd_eigvals(_framed(A)[0][0])
    except (NotPositiveDefinite, NotHermitian, NotFinite):
        return False
    return True


def min_eig(H):
    """Smallest eigenvalue of a Hermitian matrix (one per item for a stack)."""
    (M,), e = _framed(H)
    return _per_item(_unscale_values(_eigvalsh(M), _degree(e, 1))[..., 0])


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


# the frame's window: an operand whose largest |entry| lies in it is used as
# given.  With kappa <= 1/PD_TOL, every intermediate of such operands stays
# inside [2**-450, 2**450] (A^{-1/2} B A^{-1/2} reaches 2**(2*128 + 36)),
# where ``_rotation``'s squares neither overflow nor underflow to where they
# matter, and every polar factor's operand inside [2**-225, 2**225]
# (A^{-1/2} B^{-1/2} reaches 2**(128 + 35)), as ``_polar_terms`` needs
_FRAME_LO, _FRAME_HI = 2.0**-128, 2.0**128
# a result whose largest entry is at least this has no significant entry
# (above u times the largest) below the smallest normal double
_NORMAL_TOP = 2.0**-969
_LOG2 = math.log(2.0)


def _frame(*operands: np.ndarray):
    """The operands at unit scale, and each one's binary exponent per item.

    Each item is written 2**e M, with M's largest |entry| in [1/2, 1), except
    where its largest |entry| already lies in [2**-128, 2**128]: there e = 0,
    and the item keeps its bits.  Returns the operands so scaled and a list
    of their e, with a trailing axis, or the operands as given and None
    where every item of every operand lies in the window (a test made first
    on Python floats).
    """
    seen = []
    for M in operands:
        if M.ndim > 2:
            seen += np.abs(M).max(axis=(-2, -1)).ravel().tolist()
        else:
            seen.append(float(np.abs(M).max()))
    if not seen or _FRAME_LO <= min(seen) and max(seen) <= _FRAME_HI:
        return operands, None
    peaks = [np.abs(M).max(axis=(-2, -1)) for M in operands]
    e = [np.where((_FRAME_LO <= p) & (p <= _FRAME_HI), 0, np.frexp(p)[1])[..., None]
         for p in peaks]
    return [_times_exp2(M, -k[..., None]) for M, k in zip(operands, e)], e


def _times_exp2(x: np.ndarray, E) -> np.ndarray:
    """x 2**E, E real and broadcast against x (a complex entry is scaled
    whole): exact ``np.ldexp`` for E's integer part, then one rounding for
    the rest; inf past the doubles, without a warning."""
    k = np.floor(E)
    real = x.view(float) if x.dtype == complex else x
    with np.errstate(over="ignore"):
        y = np.ldexp(real, k.astype(int)) * np.exp2(E - k)
    return y.view(complex) if x.dtype == complex else y


def _degree(e: list, *degrees):
    """sum d_i e_i, the exponent of a result of the given degree in each
    operand, per item with a trailing axis (0 where e is None)."""
    return 0 if e is None else sum(d * k for d, k in zip(degrees, e))


def _unscale(P: np.ndarray, e: list | None, *degrees, definite: bool = True) -> np.ndarray:
    """The one exit of a framed operation: P, its result at unit scale, times
    2**E item by item, E = ``_degree(e, *degrees)``: exact ``np.ldexp`` for
    E's integer part, one rounding for the rest.

    NotFinite where the result overflows, where a diagonal entry of a
    positive definite result (``definite``) underflows to 0, or where an
    entry significant in P (above u times its largest) comes out subnormal,
    or 0 where an operand of that item was itself subnormal.
    """
    Q, subnormal = P, False
    if e is not None:
        Q = _times_exp2(P, _degree(e, *degrees)[..., None])
        # an operand whose largest |entry| is below 2**-1022
        subnormal = (np.minimum.reduce(e) < -1021)[..., 0]
    if definite:
        d = Q.diagonal(0, -2, -1).real
        # pass first, on Python floats: a positive definite result has its
        # largest |entry| on the diagonal
        seen = d.ravel().tolist()
        if not seen or _NORMAL_TOP <= min(seen) and max(seen) < math.inf:
            return Q
        # a diagonal entry of 0 is an underflow, significant or not
        zero = ~(d > 0).all(axis=-1)
    else:
        zero = False
    top = np.abs(_require_finite(Q, "the result overflows the double range")).max(axis=(-2, -1))
    low = top < _NORMAL_TOP
    if _any(low | zero):
        size = np.abs(P)
        significant = size > 2.0**-53 * size.max(axis=(-2, -1), keepdims=True)
        # below the normal doubles; only 0 where an operand is subnormal itself
        lost = np.where(np.asarray(subnormal)[..., None, None], Q == 0,
                        np.abs(Q) < np.finfo(float).tiny)
        bad = zero | (low & (significant & lost).any(axis=(-2, -1)))
        if _any(bad):
            raise NotFinite(_item(bad) + "the result underflows the double range")
    return Q


def _unscale_values(x: np.ndarray, E=0, positive: bool = False) -> np.ndarray:
    """The scalar exit of a framed operation: x, values made at unit scale
    (eigenvalues, a norm or a ratio), one row per item, times 2**E, E per
    item with a trailing axis, or 0, as ``_degree`` gives it.

    NotFinite naming the first item with a value outside the finite doubles,
    or outside the finite positive ones where ``positive``.  Where E is 0,
    no operand was scaled, and x is returned as it is.
    """
    if not isinstance(E, np.ndarray):
        return x
    x = _times_exp2(x, E)
    ok = (0 < x) & (x < np.inf) if positive else np.isfinite(x)
    bad = ~ok.all(axis=-1)
    if _any(bad):
        kind = "finite positive" if positive else "finite"
        raise NotFinite(_item(bad) + f"the result leaves the {kind} doubles")
    return x


def _logm(dec: SpectralDecomposition, shift=0) -> np.ndarray:
    """The logarithm of a positive definite matrix, from its decomposition,
    plus ``shift`` times I: a framed operand 2**e M has log M + e log(2) I."""
    return _apply(dec, np.log(dec.eigenvalues) + shift)


def powm(A, t: float) -> np.ndarray:
    """A**t for positive definite A and any finite real t, via the spectral map.

    Raises NotFinite where an eigenvalue's power overflows or underflows to 0,
    or where the result leaves the doubles (see Scale above).
    """
    (Am,), e = _framed(A)
    t = require_weight(t, Am)
    return _unscale(_powm(_pd_eigh(Am), t), e, t)


def sqrtm(A) -> np.ndarray:
    return powm(A, 0.5)


def invm(A) -> np.ndarray:
    return powm(A, -1.0)


def logm(A) -> np.ndarray:
    """Principal logarithm of a positive definite matrix (Hermitian result)."""
    (Am,), e = _framed(A)
    return _logm(_pd_eigh(Am), _degree(e, _LOG2))


def expm(H) -> np.ndarray:
    """exp of a Hermitian matrix (positive definite result, else NotFinite)."""
    (Hm,), e = _framed(H)
    dec = _eigh(Hm)
    with np.errstate(over="ignore"):
        fw = np.exp(_unscale_values(dec.eigenvalues, _degree(e, 1)))
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


def congruence(X, S) -> np.ndarray:
    """Congruence transform S X S* of a Hermitian X.

    Made at the operands' unit scale and scaled back by its degrees, 1 in X
    and 2 in S.  NotFinite where the result overflows, or where an entry
    that is significant at unit scale (above u times the largest) becomes
    subnormal or 0; an entry that is 0 at unit scale, as a singular S
    makes, stays 0.
    """
    Xm = require_hermitian(as_matrix(X))
    Sm = np.asarray(S, dtype=complex)
    if Sm.ndim != 2 or Sm.shape[1] != Xm.shape[0]:
        raise DimensionMismatch(
            f"congruence factor shape {Sm.shape} incompatible with {Xm.shape}"
        )
    (Xm, Sm), e = _frame(Xm, _require_finite(
        Sm, "the congruence factor has a NaN or infinite entry"))
    return _unscale(hermitian_part(Sm @ Xm @ Sm.conj().T), e, 1, 2, definite=False)


def norm(H, kind: str = "operator") -> float:
    """Operator (largest |eigenvalue|) or Frobenius norm of a Hermitian matrix."""
    (M,), e = _framed(as_matrix(H))
    if kind not in ("operator", "frobenius"):
        raise UnknownCase(f"unknown norm kind {kind!r}")
    x = np.max(np.abs(_eigvalsh(M))) if kind == "operator" else _frobenius(M)
    # of degree 1, as an eigenvalue
    return float(_unscale_values(np.array([x]), _degree(e, 1))[0])


def loewner_compare(X, Y, tol: float = LOEWNER_TOL) -> Loewner:
    """Compare Hermitian X, Y in the Loewner order at eigenvalue slack ``tol``.

    LE iff min-eig(Y - X) >= -tol, GE symmetrically, EQ if both hold.
    The test is made on Y/2 - X/2 at slack tol/2: halving is exact for
    normal doubles, and the halved difference cannot overflow.  Raises
    NonPositiveArgument where tol is negative or NaN, which would make
    every comparison INCOMPARABLE, X against itself included.
    """
    Xm = require_hermitian(as_matrix(X))
    Ym = require_hermitian(as_matrix(Y))
    require_same_dim(Xm, Ym)
    if not tol >= 0:
        raise NonPositiveArgument(f"Loewner slack tol must be at least 0, got {tol!r}")
    (D,), e = _frame(hermitian_part(0.5 * Ym - 0.5 * Xm))
    w = _eigvalsh(D)
    # the slack at D's unit scale
    slack = 0.5 * tol if e is None else math.ldexp(0.5 * tol, -int(e[0][0]))
    le = w[0] >= -slack
    ge = w[-1] <= slack
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
    return _polar_unitary(_frame(_require_finite(as_stack(M)))[0][0])


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
    (N. J. Higham, Functions of Matrices, 2008, ch. 8).  The frame keeps
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


def _small_polar(M: np.ndarray) -> np.ndarray:
    """``_polar_unitary`` of a 1x1 or 2x2 matrix or stack, in closed form,
    with the singularity test of the SVD route; a stack's items are the
    single calls' results bit for bit."""
    tol = math.sqrt(PD_TOL)
    # the real and imaginary parts of each entry, row by row
    parts = np.ascontiguousarray(M).view(float).reshape(M.shape[:-2] + (-1,))
    if M.ndim == 2:
        s_min, s_max, num, den = _polar_terms(parts.tolist(), math.sqrt)
        if s_min <= tol * s_max:
            _raise_singular("")
        return np.array([x / den for x in num]).view(complex).reshape(M.shape)
    # a non-finite item, which only an overflowed intermediate brings here,
    # makes NaN as the single call does, without a warning
    with np.errstate(invalid="ignore", over="ignore"):
        s_min, s_max, num, den = _polar_terms(list(np.moveaxis(parts, -1, 0)), np.sqrt)
        bad = s_min <= tol * s_max
        if bad.any():
            _raise_singular(_item(bad))
        U = np.stack([x / den for x in num], axis=-1)
    return U.view(complex).reshape(M.shape)
