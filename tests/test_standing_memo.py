"""The standing eigensolve memo: what it saves, and what it may not share.

Each thread holds one memo of eigensolves, capped by entries and by bytes;
``conftest`` gives each test a fresh one.  These tests count the LAPACK
solves of each operation of the benchmark's op mixes on fresh operands,
write into every public result to see that no later result changes, and
check that the memo stays in its thread and within its byte cap.
"""

import inspect
import threading

import numpy as np
import pytest

import gyromean
from gyromean import kernel
from gyromean.gyrodensity import dens_gyration
from gyromean.kernel import MEMO_BYTES, hermitian_part, pd_eigh
from gyromean.metrics import DISTANCE_KINDS
from gyromean.randgen import gen_random_pd, substream
from per_item_stack import PerItemStack

CURVE_TS = [float(s) for s in np.linspace(0.0, 1.0, 9)]


def _curves(o):
    """What ``gyromean geodesic --samples 9`` computes, for both curves of one pair."""
    for t in CURVE_TS:
        gyromean.gyroline(t, o["A"], o["B"])
    for t in CURVE_TS:
        gyromean.cogyroline(t, o["A"], o["B"])


# LAPACK eigh and svd calls per call on fresh n = 8 operands, for each
# operation kind of the op mixes.  A spectrum that one public call reads
# twice is solved once; a whitened step, and the polar factor of
# A^{-1/2} B^{-1/2}, are solved once per pair.  Before the memo was
# standing, the nine points of each curve cost 45 eigh and 9 svd, and
# dens_cogyroline solved sigma twice (4 eigh)
SOLVES = {
    "geo_mean": (lambda o: gyromean.geo_mean(o["A"], o["B"], 0.3), 2, 0),
    "spectral_mean": (lambda o: gyromean.spectral_mean(o["A"], o["B"], 0.3), 3, 1),
    "thompson": (lambda o: gyromean.distance("thompson", o["A"], o["B"]), 2, 0),
    "riemannian": (lambda o: gyromean.distance("riemannian", o["A"], o["B"]), 2, 0),
    "semimetric_op": (lambda o: gyromean.distance("semimetric_op", o["A"], o["B"]), 3, 1),
    "semimetric_frob": (lambda o: gyromean.distance("semimetric_frob", o["A"], o["B"]), 3, 1),
    "gyration": (lambda o: gyromean.gyration(o["A"], o["B"], o["X"]), 3, 1),
    "cooperation": (lambda o: gyromean.cooperation(o["A"], o["B"]), 2, 1),
    "gyroline": (lambda o: gyromean.gyroline(0.3, o["A"], o["B"]), 2, 0),
    "cogyroline": (lambda o: gyromean.cogyroline(0.3, o["A"], o["B"]), 3, 1),
    "dens_gyroline": (lambda o: gyromean.dens_gyroline(0.3, o["rho"], o["sigma"]), 3, 0),
    "dens_cogyroline": (lambda o: gyromean.dens_cogyroline(0.3, o["rho"], o["sigma"]), 3, 1),
    "gyroline_and_cogyroline_at_9_points": (_curves, 4, 1),
}


def _operands(seed: int, n: int = 8, items: int | None = None) -> dict:
    """Fresh positive definite A, B, X and the densities of A and B (a stack
    of ``items`` each, if given)."""
    if items is None:
        rng = substream(seed, "standing-memo")
    else:
        rng = PerItemStack([substream(seed, "standing-memo", i) for i in range(items)])
    A, B, X = (gen_random_pd(rng, n) for _ in range(3))
    trace = lambda M: np.trace(M, axis1=-2, axis2=-1).real[..., None, None]  # noqa: E731
    return {"A": A, "B": B, "X": X, "rho": A / trace(A), "sigma": B / trace(B),
            "tau": X / trace(X)}


def _count(monkeypatch) -> dict:
    """Count LAPACK eigh and svd calls from here on."""
    counts = {"eigh": 0, "svd": 0}
    for solver in counts:
        solve = getattr(np.linalg, solver)

        def counted(M, solver=solver, solve=solve):
            counts[solver] += 1
            return solve(M)
        monkeypatch.setattr(np.linalg, solver, counted)
    return counts


@pytest.mark.parametrize("kind", list(SOLVES))
def test_each_op_mix_kind_solves_each_spectrum_once(kind, monkeypatch):
    call, eighs, svds = SOLVES[kind]
    operands = _operands(401 + list(SOLVES).index(kind))
    counts = _count(monkeypatch)
    call(operands)
    assert counts == {"eigh": eighs, "svd": svds}
    # the same call again is all hits
    call(operands)
    assert counts == {"eigh": eighs, "svd": svds}


# every public function of the numerical core that returns an array, or a
# tuple of them; those that return one float per matrix return an array for
# a stack.  Each takes the operands of ``_operands``
RETURNS_ARRAYS = {
    "eigh": lambda o: gyromean.eigh(o["A"]),
    "pd_eigh": lambda o: pd_eigh(o["A"]),
    "min_eig": lambda o: gyromean.min_eig(o["A"]),
    "powm": lambda o: gyromean.powm(o["A"], 0.3),
    "sqrtm": lambda o: gyromean.sqrtm(o["A"]),
    "invm": lambda o: gyromean.invm(o["A"]),
    "logm": lambda o: gyromean.logm(o["A"]),
    "expm": lambda o: gyromean.expm(o["X"]),
    "matrix_function": lambda o: gyromean.matrix_function(o["A"], "power", 0.3),
    # one matrix at a time
    "congruence": lambda o: [gyromean.congruence(X, S) for X, S in
                             zip(o["X"].reshape(-1, 3, 3), o["A"].reshape(-1, 3, 3))],
    "polar_unitary": lambda o: gyromean.polar_unitary(o["A"] @ o["B"]),
    "geo_mean": lambda o: gyromean.geo_mean(o["A"], o["B"], 0.3),
    "spectral_mean": lambda o: gyromean.spectral_mean(o["A"], o["B"], 0.3),
    "mean": lambda o: gyromean.mean("spectral", o["A"], o["B"], 0.3),
    "mean_left_inverse": lambda o: gyromean.mean_left_inverse("metric", o["A"], o["B"], 0.5),
    "karcher_residual": lambda o: gyromean.karcher_residual(o["A"], o["B"], 0.3, o["X"]),
    "riccati_residual": lambda o: gyromean.riccati_residual(o["A"], o["B"], o["X"]),
    "spectral_defining_residual":
        lambda o: gyromean.spectral_defining_residual(o["A"], o["B"], 0.3, o["X"]),
    "block_psd_margin": lambda o: gyromean.block_psd_margin(o["A"], o["B"], o["X"]),
    "distance": lambda o: [gyromean.distance(k, o["A"], o["B"]) for k in DISTANCE_KINDS],
    "sup_ratio": lambda o: gyromean.sup_ratio(o["A"], o["B"]),
    "midpoint_deviation":
        lambda o: gyromean.midpoint_deviation("semimetric_op", o["A"], o["B"], o["X"]),
    "cone_add": lambda o: gyromean.cone_add(o["A"], o["B"]),
    "cone_scalar": lambda o: gyromean.cone_scalar(0.3, o["A"]),
    "cone_neg": lambda o: gyromean.cone_neg(o["A"]),
    "cooperation": lambda o: gyromean.cooperation(o["A"], o["B"]),
    "gyration": lambda o: gyromean.gyration(o["A"], o["B"], o["X"]),
    "gyration_unitary": lambda o: gyromean.gyration_unitary(o["A"], o["B"]),
    "gyroline": lambda o: gyromean.gyroline(0.3, o["A"], o["B"]),
    "cogyroline": lambda o: gyromean.cogyroline(0.3, o["A"], o["B"]),
    "dens_add": lambda o: gyromean.dens_add(o["rho"], o["sigma"]),
    "dens_scalar": lambda o: gyromean.dens_scalar(0.3, o["rho"]),
    "dens_neg": lambda o: gyromean.dens_neg(o["rho"]),
    "dens_gyration": lambda o: dens_gyration(o["rho"], o["sigma"], o["tau"]),
    "dens_gyroline": lambda o: gyromean.dens_gyroline(0.3, o["rho"], o["sigma"]),
    "dens_cogyroline": lambda o: gyromean.dens_cogyroline(0.3, o["rho"], o["sigma"]),
    "require_density": lambda o: gyromean.require_density(o["rho"]),
}

# the public functions of the core that return no array: a bool, an enum or
# a Python float even for a stack
RETURNS_NO_ARRAY = {"is_positive_definite", "loewner_compare", "norm"}


def test_the_write_table_covers_the_public_core():
    core = {f"gyromean.{m}" for m in ("kernel", "means", "metrics", "gyrocone", "gyrodensity")}
    public = {name for name, obj in vars(gyromean).items()
              if inspect.isfunction(obj) and obj.__module__ in core}
    assert public - RETURNS_NO_ARRAY <= set(RETURNS_ARRAYS)


def _arrays(result) -> list:
    """The arrays in a result: itself, or those of a tuple or list of results."""
    if isinstance(result, np.ndarray):
        return [result]
    if isinstance(result, (tuple, list)):
        return [a for part in result for a in _arrays(part)]
    return []


@pytest.mark.parametrize("items", [None, 3])
@pytest.mark.parametrize("name", list(RETURNS_ARRAYS))
def test_writing_into_a_result_changes_no_later_result(name, items):
    call = RETURNS_ARRAYS[name]
    operands = _operands(433, n=3, items=items)
    first = call({k: v.copy() for k, v in operands.items()})
    kept = [a.copy() for a in _arrays(first)]
    assert kept or items is None
    for a in _arrays(first):
        a[...] = 7.0
    again = _arrays(call({k: v.copy() for k, v in operands.items()}))
    assert len(again) == len(kept)
    for got, want in zip(again, kept):
        assert np.array_equal(got, want)


def test_the_memo_holds_a_small_stack_but_no_single_small_matrix():
    # one 1x1 or 2x2 matrix is solved in closed form in less time than a
    # lookup takes; a stack of them costs about 1 us an item
    eigh_memo = kernel._memos()["eigh"]
    for n in (1, 2):
        stack = _operands(449, n=n, items=4)["A"]
        gyromean.min_eig(stack[0])
        assert len(eigh_memo.entries) == n - 1
        gyromean.min_eig(stack)
        assert len(eigh_memo.entries) == n


def test_a_memo_filled_in_one_thread_is_not_seen_in_another(monkeypatch):
    A = _operands(439, n=3)["A"]
    counts = _count(monkeypatch)
    pd_eigh(A)
    seen = []

    def other():
        pd_eigh(A)
        seen.append(kernel._memos())

    worker = threading.Thread(target=other)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    # the other thread solved A anew, in a memo of its own
    assert counts["eigh"] == 2
    assert seen[0] is not kernel._memos()
    pd_eigh(A)
    assert counts["eigh"] == 2


def _held(memo) -> int:
    assert memo.nbytes == sum(size for _, size in memo.entries.values())
    return memo.nbytes


def test_large_stacks_leave_the_standing_memo_under_its_byte_cap():
    rng = np.random.default_rng(443)
    found = []

    def solve(items):
        # a new thread starts with no memo, so its first solve makes the
        # thread's standing memo, with no scope around it
        memo = None
        for _ in range(20):
            G = rng.standard_normal((items, 8, 8)) + 1j * rng.standard_normal((items, 8, 8))
            S = hermitian_part(G @ G.conj().mT) + 8 * np.eye(8)
            gyromean.min_eig(S)
            memo = kernel._memos()["eigh"]
            found.append(_held(memo) <= MEMO_BYTES)
        found.append(len(memo.entries))

    for items in (4096, 256):
        worker = threading.Thread(target=solve, args=(items,))
        worker.start()
        worker.join(timeout=120)
        assert not worker.is_alive()
    # 4,096 items (8.3 MB with the key) exceed the cap alone, and 256 items
    # are held until the bytes of 16 would pass it
    assert found[:20] + found[21:41] == [True] * 40
    assert (found[20], found[41]) == (0, 15)
