"""The one scale frame: every public function with a matrix operand, at every scale.

Each public name of ``gyromean``, the lazy ones too, has a row in ``ROWS``
or is listed in ``NO_MATRIX_OPERAND``, so that a new public function fails
``test_every_public_name_has_a_row`` until it has one.  A row calls its
function on operands at the powers of two nearest 1e-310, 1e-300, 1e-200,
1e-160, 1, 1e154, 1e200 and 1e300, and at 2**-128 and 2**128, the edges of
``kernel._frame``'s window, all at one scale and at mixed scales,
at each n of the row in {1, 2, 3, 8}, as one matrix and as item 0 of a
2-item stack whose item 1 is ordinary.  Each call has one of two outcomes:

- a finite, valid result within ``RTOL`` of the result at unit scale scaled
  back exactly, by the function's degree in each operand or by its log
  shift; or
- the row's named error: ``NotFinite`` where that exact result leaves the
  doubles, or where an entry significant at unit scale (above u times the
  largest) would be subnormal and no operand of the item is, and the
  precondition's error for densities and unit determinants.

An inequality case of ``check`` has a row on inputs whose premise holds at
unit scale; its outcome is judged by ``_Theorem`` instead.

A result whose exact value is subnormal may take either outcome; where an
operand is subnormal, within the subnormals' spacing.  Every call runs with
RuntimeWarning as an error; a call that raises runs again with warnings
ignored and must raise the same error.  A call that returns emitted no
warning, so with warnings ignored it takes the same path.  Item 1 of each stack must equal
item 1 of the same stack with item 0 at unit scale, bit for bit.
"""

import inspect
import math
import warnings

import numpy as np
import pytest

import gyromean
from gyromean import errors, kernel
from gyromean.order import CheckResult
from gyromean.randgen import gen_random_pd, substream

# the binary exponents nearest 1e-310, 1e-300, 1e-200, 1e-160, 1, 1e154,
# 1e200 and 1e300, and the edges of the frame's window, the largest and
# smallest scales an operand keeps
EXPONENTS = (-1030, -997, -664, -531, -128, 0, 128, 512, 664, 997)
# the fractional scale-back rounds E once, |E| <= 1100, and the result once
RTOL = 1e-12
T = 0.3
LOG2 = math.log(2.0)
TINY = np.finfo(float).tiny
TINIEST = 2.0**-1074
U = 2.0**-53

# public names that take no matrix operand: vectors, scalars, seeds and
# configs, and the types of results
NO_MATRIX_OPERAND = {
    "Loewner", "SpectralDecomposition", "CheckResult", "CampaignConfig", "Report",
    "run_campaign", "reproduce_counterexamples", "gen_random_pd", "substream",
    "l_map", "weak_majorize", "ball_scalar", "bloch_to_density", "einstein_add",
    "gamma_factor", "gyromidpoint", "mobius_add", "rapidity_distance",
    "qubit_geo_mean", "qubit_spectral_mean", "midpoint_vector_check",
}


def _unit(M: np.ndarray) -> np.ndarray:
    """M scaled by a power of two to a largest |entry| in [1/2, 1)."""
    return _scaled(M, -math.frexp(float(np.abs(M).max()))[1])


def _operands(kind: str, count: int, n: int, seed: int) -> list[np.ndarray]:
    rng = substream(seed, "scale-frame", kind, n)
    out = []
    for _ in range(count):
        M = gen_random_pd(rng, n).astype(complex)
        if kind == "general":
            M = M @ np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        elif kind == "hermitian":
            M = M - 1.2 * np.trace(M).real / n * np.eye(n)
        elif kind == "density":
            M = M / np.trace(M).real
        elif kind == "unit-det":
            M = M / np.sqrt(np.linalg.det(M).real)
        out.append(M if kind in ("density", "unit-det") else _unit(M))
    return out


def _scaled(M: np.ndarray, e: int) -> np.ndarray:
    """M 2**e, rounded once where it is subnormal."""
    return np.ldexp(M.view(float), e).view(complex) if M.dtype == complex else np.ldexp(M, e)


def _degree(*d):
    """The reference of a function of degree d_i in operand i."""
    def ref(call, unit, e):
        return call(unit), sum(di * ei for di, ei in zip(d, e))
    return ref


def _whitened_logs(A, B):
    return np.log(np.sort(np.linalg.eigvals(np.linalg.solve(A, B)).real))


def _sharp_logs(A, B):
    return 2 * np.log(np.linalg.eigvalsh(gyromean.geo_mean(np.linalg.inv(A), B)))


NORMS = {"thompson": (_whitened_logs, lambda x: np.max(np.abs(x))),
         "riemannian": (_whitened_logs, np.linalg.norm),
         "semimetric_op": (_sharp_logs, lambda x: np.max(np.abs(x))),
         "semimetric_frob": (_sharp_logs, np.linalg.norm)}


def _distance_ref(kind):
    logs, norm = NORMS[kind]

    def ref(call, unit, e):
        return norm(logs(*unit) + (e[1] - e[0]) * LOG2), None
    return ref


def _midpoint_ref(call, unit, e):
    logs, norm = NORMS["riemannian"]
    A, B, M = unit
    half = 0.5 * norm(logs(A, B) + (e[1] - e[0]) * LOG2)
    return np.array([abs(norm(logs(A, M) + (e[2] - e[0]) * LOG2) - half),
                     abs(norm(logs(B, M) + (e[2] - e[1]) * LOG2) - half)]), None


def _logm_ref(call, unit, e):
    return gyromean.logm(unit[0]) + e[0] * LOG2 * np.eye(len(unit[0])), None


def _expm_ref(call, unit, e):
    w, V = np.linalg.eigh(unit[0])
    with np.errstate(over="ignore", under="ignore"):
        fw = np.exp(np.ldexp(w, e[0]))
    if not np.all((0 < fw) & (fw < np.inf)):
        return None, None
    return (V * fw) @ V.conj().T, None


def _karcher_ref(call, unit, e):
    A, B, X = unit
    root = gyromean.sqrtm(X)
    la = gyromean.logm(kernel.hermitian_part(root @ gyromean.invm(A) @ root))
    lb = gyromean.logm(kernel.hermitian_part(root @ gyromean.invm(B) @ root))
    eye = LOG2 * np.eye(len(A))
    return np.linalg.norm((1 - T) * (la + (e[2] - e[0]) * eye)
                          + T * (lb + (e[2] - e[1]) * eye)), None


def _riccati_ref(call, unit, e):
    A, B, X = unit
    c = 2 * e[2] - e[0] - e[1]  # 0 or -1 along the ray
    return np.linalg.norm(2.0**c * (X @ np.linalg.inv(A) @ X) - B), e[1]


def _valid(kind):
    """The reference of a function whose result is a flag or a verdict."""
    def ref(call, unit, e):
        return kind, None
    return ref


def _error(error):
    """The reference of a function whose precondition fails off unit scale."""
    def ref(call, unit, e):
        return (call(unit), 0) if not any(e) else error
    return ref


class _Theorem:
    """The reference of an inequality check: its result on the operands at
    unit scale, where the premise holds.  At every scale the check must
    return a finite margin and no counterexample, or raise NotFinite where
    an input or an intermediate leaves the doubles; a check whose margin
    does not depend on the scale (``invariant``) must also give the unit
    scale's verdict and margin, and may not raise."""

    def __init__(self, result: CheckResult, invariant: bool):
        self.result, self.invariant = result, invariant


def _theorem(invariant):
    def ref(call, unit, e):
        result = call(unit)
        assert np.all(result.premise_held) and np.all(result.conclusion_held)
        return _Theorem(result, invariant)
    return ref


def _judge_check(got, ref: _Theorem, subnormal_operand):
    if isinstance(got, errors.NotFinite) and not ref.invariant:
        return True, ""
    if not isinstance(got, CheckResult):
        return False, f"expected a CheckResult, got {got!r}"
    margin = np.asarray(got.margin, dtype=float)
    if not np.all(np.isfinite(margin)):
        return False, f"margin {margin}"
    if np.any(np.asarray(got.premise_held) & ~np.asarray(got.conclusion_held)):
        return False, f"a counterexample with margin {margin}"
    if not ref.invariant:
        return True, ""
    want = ref.result
    err = float(np.max(np.abs(margin - want.margin)))
    # rounding the operands to subnormals moves their eigenvalues
    tol = 1e-9 if subnormal_operand else RTOL * (1 + abs(float(np.max(want.margin))))
    same = (np.array_equal(got.premise_held, want.premise_held)
            and np.array_equal(got.conclusion_held, want.conclusion_held))
    return same and err <= tol, f"verdict {got}, margin error {err:.3e}"


def _common(count):
    """One scale for a function homogeneous only in a common scale."""
    return lambda e0, e1: [e0] * count


ALL_N, SMALL_N = (1, 2, 3, 8), (2,)

# each inequality case on inputs made from the operands so that its premise
# holds at unit scale: case -> (inputs, operand count, exponents, whether the
# margin is independent of the scale).  An input made from a sum of operands
# takes one common scale, and so does d_le_delta, whose distances shift with
# the operands' relative scale; the log gaps of logmaj_mean do not
CHECKS = {
    "loewner_heinz": (lambda o: (o[0], o[0] + o[1], gyromean.sqrtm(o[0]) / 2), 2, _common(2),
                      False),
    "furuta": (lambda o: (o[0] + o[1], o[0], 2.0), 2, _common(2), False),
    "ando_hiai": (lambda o: (o[0] / 8, o[1] / 8, 2.0), 2, None, False),
    "main_spectral_AH": (lambda o: (o[0], gyromean.invm(o[0]) / 2, T, 1.0), 1, None, False),
    "power_chain": (lambda o: (o[0] / 8, o[1] / 8, 1.0), 2, None, False),
    "equivalence_five": (lambda o: (o[0] + o[1], o[0]), 2, _common(2), False),
    "contraction": (lambda o: (o[0] / 256, o[1]), 2, None, False),
    "bounds_spectral": (lambda o: (o[0], o[1], T), 2, None, False),
    "log_sum_condition": (lambda o: (o[0] / 8, o[1] / 8), 2, None, False),
    "d_le_delta": (lambda o: (o[0], o[1]), 2, _common(2), True),
    "logmaj_mean": (lambda o: (o[0], o[1], T), 2, None, True),
}

# name[variant] -> (call(operands), operand kind, count, reference, the n it
# takes, exponents of the operands from the two free ones, or None for "the
# first at e0, the rest at e1")
ROWS = {
    "congruence": (lambda o: gyromean.congruence(o[0], o[1]), "pd", 2, _degree(1, 2),
                   ALL_N, None),
    "eigh": (lambda o: gyromean.eigh(o[0]).eigenvalues, "hermitian", 1, _degree(1), ALL_N,
             None),
    "pd_eigh": (lambda o: kernel.pd_eigh(o[0]).eigenvalues, "pd", 1, _degree(1), ALL_N,
                None),
    "expm": (lambda o: gyromean.expm(o[0]), "hermitian", 1, _expm_ref, ALL_N, None),
    "invm": (lambda o: gyromean.invm(o[0]), "pd", 1, _degree(-1), ALL_N, None),
    "is_positive_definite": (lambda o: gyromean.is_positive_definite(o[0]), "pd", 1,
                             _valid(bool), ALL_N, None),
    "loewner_compare": (lambda o: gyromean.loewner_compare(o[0], o[1]), "pd", 2,
                        _valid(gyromean.Loewner), ALL_N, None),
    "logm": (lambda o: gyromean.logm(o[0]), "pd", 1, _logm_ref, ALL_N, None),
    **{f"matrix_function[{k}]": (lambda o, k=k: gyromean.matrix_function(o[0], k, T), "pd",
                                 1, ref, ALL_N, None)
       for k, ref in (("sqrt", _degree(0.5)), ("power", _degree(T)), ("log", _logm_ref))},
    "min_eig": (lambda o: gyromean.min_eig(o[0]), "hermitian", 1, _degree(1), ALL_N, None),
    **{f"norm[{k}]": (lambda o, k=k: gyromean.norm(o[0], k), "hermitian", 1, _degree(1),
                      ALL_N, None) for k in ("operator", "frobenius")},
    "polar_unitary": (lambda o: gyromean.polar_unitary(o[0]), "general", 1, _degree(0),
                      ALL_N, None),
    "powm": (lambda o: gyromean.powm(o[0], T), "pd", 1, _degree(T), ALL_N, None),
    "sqrtm": (lambda o: gyromean.sqrtm(o[0]), "pd", 1, _degree(0.5), ALL_N, None),
    "block_psd_margin": (lambda o: gyromean.block_psd_margin(*o), "pd", 3, _degree(1, 0, 0),
                         ALL_N, _common(3)),
    "geo_mean": (lambda o: gyromean.geo_mean(o[0], o[1], T), "pd", 2, _degree(1 - T, T),
                 ALL_N, None),
    "karcher_residual": (lambda o: gyromean.karcher_residual(o[0], o[1], T, o[2]), "pd", 3,
                         _karcher_ref, ALL_N, None),
    **{f"mean[{k}]": (lambda o, k=k: gyromean.mean(k, o[0], o[1], T), "pd", 2,
                      _degree(1 - T, T), ALL_N, None) for k in ("metric", "spectral")},
    "mean_left_inverse": (lambda o: gyromean.mean_left_inverse("metric", o[0], o[1], 0.5),
                          "pd", 2, _degree(-1, 2), ALL_N, None),
    # at (a A, b B, sqrt(ab) X) the residual is b times the one at (A, B, X)
    "riccati_residual": (lambda o: gyromean.riccati_residual(*o), "pd", 3, _riccati_ref,
                         ALL_N, lambda e0, e1: [e0, e1, (e0 + e1) // 2]),
    "spectral_defining_residual": (
        lambda o: gyromean.spectral_defining_residual(o[0], o[1], T, o[2]), "pd", 3,
        _degree(0, 0, 0), ALL_N, _common(3)),
    "spectral_mean": (lambda o: gyromean.spectral_mean(o[0], o[1], T), "pd", 2,
                      _degree(1 - T, T), ALL_N, None),
    **{f"distance[{k}]": (lambda o, k=k: gyromean.distance(k, o[0], o[1]), "pd", 2,
                          _distance_ref(k), ALL_N, None) for k in NORMS},
    "midpoint_deviation": (lambda o: np.stack(gyromean.midpoint_deviation("riemannian", *o), -1),
                           "pd", 3, _midpoint_ref, ALL_N, None),
    "sup_ratio": (lambda o: gyromean.sup_ratio(o[0], o[1]), "pd", 2, _degree(-1, 1), ALL_N,
                  None),
    "cogyroline": (lambda o: gyromean.cogyroline(T, o[0], o[1]), "pd", 2, _degree(1 - T, T),
                   ALL_N, None),
    "cone_add": (lambda o: gyromean.cone_add(o[0], o[1]), "pd", 2, _degree(1, 1), ALL_N, None),
    "cone_neg": (lambda o: gyromean.cone_neg(o[0]), "pd", 1, _degree(-1), ALL_N, None),
    "cone_scalar": (lambda o: gyromean.cone_scalar(T, o[0]), "pd", 1, _degree(T), ALL_N, None),
    "cooperation": (lambda o: gyromean.cooperation(o[0], o[1]), "pd", 2, _degree(1, 1), ALL_N,
                    None),
    "gyration": (lambda o: gyromean.gyration(*o), "pd", 3, _degree(0, 0, 1), ALL_N, None),
    "gyration_unitary": (lambda o: gyromean.gyration_unitary(o[0], o[1]), "pd", 2,
                         _degree(0, 0), ALL_N, None),
    "gyroline": (lambda o: gyromean.gyroline(T, o[0], o[1]), "pd", 2, _degree(1 - T, T),
                 ALL_N, None),
    "dens_add": (lambda o: gyromean.dens_add(o[0], o[1]), "density", 2,
                 _error(errors.NotDensity), ALL_N, None),
    "dens_cogyroline": (lambda o: gyromean.dens_cogyroline(T, o[0], o[1]), "density", 2,
                        _error(errors.NotDensity), ALL_N, None),
    "dens_gyroline": (lambda o: gyromean.dens_gyroline(T, o[0], o[1]), "density", 2,
                      _error(errors.NotDensity), ALL_N, None),
    "dens_neg": (lambda o: gyromean.dens_neg(o[0]), "density", 1, _error(errors.NotDensity),
                 ALL_N, None),
    "dens_scalar": (lambda o: gyromean.dens_scalar(T, o[0]), "density", 1,
                    _error(errors.NotDensity), ALL_N, None),
    "require_density": (lambda o: gyromean.require_density(o[0]), "density", 1,
                        _error(errors.NotDensity), ALL_N, None),
    "density_to_bloch": (lambda o: gyromean.density_to_bloch(o[0]), "density", 1,
                         _error(errors.NotDensity), SMALL_N, None),
    # of degree 2 in a common scale of the shift c = 0.7 and X
    "det_shift_identity": (lambda o: gyromean.det_shift_identity(o[1][..., 0, 0].real, o[0]),
                           "pd", 2, _degree(2, 0), SMALL_N, _common(2)),
    "gm2_det1": (lambda o: gyromean.gm2_det1(o[0], o[1], T), "unit-det", 2,
                 _error(errors.NotUnitDeterminant), SMALL_N, None),
    "norm_product_check": (lambda o: gyromean.norm_product_check(o[0], o[1]), "unit-det", 2,
                           _error(errors.NotUnitDeterminant), SMALL_N, None),
    "sgm2": (lambda o: gyromean.sgm2(o[0], o[1], T), "pd", 2, _degree(1 - T, T), SMALL_N,
             None),
    **{f"check[{case}]": (lambda o, case=case, make=make: gyromean.check(case, *make(o)), "pd",
                          count, _theorem(invariant), ALL_N, tie)
       for case, (make, count, tie, invariant) in CHECKS.items()},
    "equivalence_statements": (lambda o: gyromean.equivalence_statements(o[0], o[1]), "pd", 2,
                               _valid(tuple), ALL_N, None),
}


def _public_with_operands() -> set:
    names = {name for name in dir(gyromean) if not name.startswith("_")}
    return {name for name in names
            if callable(getattr(gyromean, name)) and not inspect.ismodule(getattr(gyromean, name))}


def test_every_public_name_has_a_row():
    # pd_eigh is public in gyromean.kernel, not re-exported
    rows = {name.split("[")[0] for name in ROWS} - {"pd_eigh"}
    assert _public_with_operands() - NO_MATRIX_OPERAND == rows
    assert not rows & NO_MATRIX_OPERAND


def _outcome(call, operands):
    """call's result, or the named error it raises, with warnings as errors;
    a raised error is raised again with warnings ignored."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call(operands)
        except errors.GyromeanError as exc:
            outcome = exc
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(type(outcome)):
            call(operands)
    return outcome


def _log2_peak(x) -> float:
    peak = float(np.max(np.abs(x), initial=0.0))
    return math.log2(peak) if peak > 0 else -math.inf


def _judge(got, ref, E, e, subnormal_operand):
    """Whether got is an admissible outcome for the exact result ref 2**E, or
    for ref itself where E is None; e are the operands' exponents.  Returns
    (ok, why)."""
    if isinstance(ref, _Theorem):
        return _judge_check(got, ref, subnormal_operand)
    if isinstance(ref, type) and issubclass(ref, errors.GyromeanError):
        return isinstance(got, ref), f"expected {ref.__name__}, got {got!r}"
    if isinstance(ref, type):
        # a verdict, or NotFinite where an intermediate leaves the doubles
        return isinstance(got, (ref, errors.NotFinite)), f"got {got!r}"
    if ref is None:
        return isinstance(got, errors.NotFinite), f"expected NotFinite, got {got!r}"
    if isinstance(got, Exception) and not isinstance(got, errors.NotFinite):
        return False, f"unexpected {got!r}"
    ref = np.asarray(ref)
    if E is None:
        # a log shift: the result is at the true scale, and so is ref
        if isinstance(got, Exception):
            return False, f"unexpected {got!r}"
        err = float(np.max(np.abs(np.asarray(got) - ref)))
        scale = float(np.max(np.abs(ref))) + LOG2 * max(map(abs, e))
        return err <= RTOL * scale, f"error {err:.3e} at scale {scale:.3e}"
    top = _log2_peak(ref) + E
    size = np.abs(ref)
    significant = size[size > U * size.max()] if size.size and size.max() > 0 else size
    low = _log2_peak(significant.min()) + E if significant.size else -math.inf
    if isinstance(got, errors.NotFinite):
        # admissible only at the edges of the range
        return top > 1023 or low < -1021, f"NotFinite for a normal result: {got}"
    if top > 1024:
        return False, f"expected NotFinite past the top, got {got!r}"[:200]
    got = np.asarray(got)
    if not np.all(np.isfinite(got)):
        return False, "a non-finite result"
    if ref.ndim == 2 and low < -1023 and not subnormal_operand:
        return False, "a significant entry came out subnormal"
    if ref.ndim == 2 and np.all(ref.diagonal().real > 0) and np.any(got.diagonal().real == 0):
        return False, "a positive diagonal entry came out 0"
    with np.errstate(over="ignore"):
        unit = _scaled(np.ascontiguousarray(got, dtype=ref.dtype), -math.floor(E)) * 2.0 ** (
            math.floor(E) - E)
    err = float(np.max(np.abs(unit - ref), initial=0.0))
    # the subnormals' spacing, at unit scale, bounds what a subnormal result keeps
    slack_log2 = math.log2(4 * max(1, ref.size)) - 1074 - E
    slack = 2.0**slack_log2 if slack_log2 < 1000 else math.inf
    return err <= RTOL * float(np.max(size, initial=0.0)) + slack, f"error {err:.3e}"


def _exponents(row, e0, e1, count):
    tie = row[5]
    return tie(e0, e1) if tie else [e0] + [e1] * (count - 1)


# results of one matrix at a time, or a verdict: no stack to compare
NO_STACK = {"congruence", "norm", "loewner_compare", "is_positive_definite", "check",
            "equivalence_statements"}


@pytest.mark.parametrize("name", list(ROWS))
def test_each_row_holds_at_every_scale(name):
    call, kind, count, reference, ns, _ = ROWS[name]
    failures = []
    plans = sorted({(e, e) for e in EXPONENTS} | {(e, 0) for e in EXPONENTS}
                   | {(0, e) for e in EXPONENTS})
    for n in ns:
        unit, other = _operands(kind, count, n, 1), _operands(kind, count, n, 2)
        plain = None if name.split("[")[0] in NO_STACK else _outcome(
            call, [np.stack([M, N]) for M, N in zip(unit, other)])
        for e0, e1 in plans:
            e = _exponents(ROWS[name], e0, e1, count)
            ops = [_scaled(M, k) for M, k in zip(unit, e)]
            subnormal = any(float(np.abs(M).max()) < TINY for M in ops)
            # the reference reads the operands as received, at unit scale
            out = reference(call, [_scaled(M, -k) for M, k in zip(ops, e)], e)
            ref, E = out if isinstance(out, tuple) else (out, None)
            single = _outcome(call, ops)
            ok, why = _judge(single, ref, E, e, subnormal)
            if not ok:
                failures.append(f"n={n} e={e}: {why}")
            if plain is None or isinstance(single, Exception):
                continue
            # item 0 at these scales beside an ordinary item 1
            stack = _outcome(call, [np.stack([M, N]) for M, N in zip(ops, other)])
            if isinstance(stack, Exception):
                failures.append(f"n={n} e={e}: the stack raised {stack!r}")
                continue
            if not np.array_equal(np.asarray(stack)[1], np.asarray(plain)[1]):
                failures.append(f"n={n} e={e}: item 1 of the stack moved")
            ok, why = _judge(np.asarray(stack)[0], ref, E, e, subnormal)
            if not ok:
                failures.append(f"n={n} e={e}: item 0 of the stack: {why}")
    assert not failures, "\n".join(failures[:20])


@pytest.mark.parametrize("t", [315.0, 318.0, 321.0, 323.0])
def test_a_spectral_mean_that_underflows_is_right_or_raises(t):
    # A natural_t (A/10) = 10**-t A, subnormal at these t; it once came out
    # as diag(2e-323, 1e-323) with no error at t = 323
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    for filter_ in ("error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(filter_)
            try:
                got = gyromean.spectral_mean(A, A / 10, t)
            except errors.NotFinite:
                continue
        want = 10.0**-t * A
        assert np.max(np.abs(got - want)) <= RTOL * np.max(np.abs(want))


def test_a_unit_scale_result_near_the_top_scales_back_by_a_fractional_degree():
    # at exponents 200 and 206 and t = -1023.9/30, geo_mean's result at unit
    # scale is diag(0.9375, 1.56e308), above DBL_MAX / 2**0.22, and its
    # degree E = 200 + 6t = -4.78 brings it back to 5.7e306: the scale-back
    # applies E's integer part first, so that its fractional factor 2**0.22
    # cannot overflow
    t = -1023.9 / 30
    A = _scaled(np.diag([0.9375, 0.9375]), 200)
    B = _scaled(np.diag([0.9375, 0.9375 * 2.0**-30]), 206)
    want = (1 - t) * np.log2(np.diag(A)) + t * np.log2(np.diag(B))
    for filter_ in ("error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(filter_)
            got = gyromean.geo_mean(A, B, t)
        assert got[0, 1] == 0 and got[1, 0] == 0
        assert np.max(np.abs(np.log2(np.diag(got).real) - want)) <= RTOL
