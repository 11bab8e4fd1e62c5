"""Time each layer of gyromean per call at n in {2, 3, 4, 6, 8} and write
BENCH_layers-<label>.json.

Usage (from the repository root):

    python3 tools/bench_layers.py --runs 5 parent=../parent-checkout change=.

Each ``label=path`` names a checkout whose ``src/gyromean`` is timed.  One
run is one child process per checkout, started with ``src`` on PYTHONPATH
and one BLAS thread (``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` set to 1, as perfbench pins them); the checkouts run in
turn, ``--runs`` times over and in reverse order every other round, so that
drift of the machine hits each alike.  A child times every layer of
``layers()`` at each n: ``--batches`` batches of ``--repeat`` calls each,
in rounds that run every layer at every n once, and it reports the fastest
batch's time over its calls, in microseconds.  The calls cycle through
``POOL`` operand sets, more than a solver memo holds (``kernel.MEMO_SIZE``),
so that no call is a memo hit.  Operands are drawn
from ``--seed``: Hermitian positive definite, eigenvalues spread
geometrically over [1, 100] in a random unitary basis; the densities are
the same matrices at unit trace.

It writes ``<out>/BENCH_layers-<label>.json`` per checkout: for each layer
and n, the median, the quartiles (inclusive method) and the values of the
runs, and the environment the child reported (core count, numpy, BLAS
vendor, version and kernel, BLAS thread settings).  Given two checkouts it
prints, per layer and n, both medians, the change in percent, and in how
many of the alternating pairs of runs the second one was faster.  The
checkout arguments, the alternating order and the quartiles are those of
``tools/bench_series.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_series import MIN_RUNS, alternating, parse_checkouts, quartiles  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
DIMS = (2, 3, 4, 6, 8)
# distinct operand sets per n: more than the 16 solves a memo holds
POOL = 40
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
T = 0.3


def _boundary(gm):
    """The public boundary's pass on two operands: check and frame."""
    k = gm.kernel
    if hasattr(k, "_framed"):
        return lambda o: k._framed(o["A"], o["B"])
    # a checkout from before the fused pass checks, then frames
    return lambda o: k._frame(*k.require_hermitians(o["A"], o["B"]))


def layers(gm) -> dict:
    """Layer name -> a call on one operand set, for the package ``gm``."""
    return {
        "kernel.boundary": _boundary(gm),
        "kernel.eigh": lambda o: gm.eigh(o["A"]),
        "kernel.powm": lambda o: gm.powm(o["A"], T),
        "kernel.logm": lambda o: gm.logm(o["A"]),
        "kernel.polar_unitary": lambda o: gm.polar_unitary(o["M"]),
        "means.geo_mean": lambda o: gm.geo_mean(o["A"], o["B"], T),
        "means.spectral_mean": lambda o: gm.spectral_mean(o["A"], o["B"], T),
        **{f"metrics.{kind}": (lambda o, kind=kind: gm.distance(kind, o["A"], o["B"]))
           for kind in ("thompson", "riemannian", "semimetric_op", "semimetric_frob")},
        "gyro.cone_add": lambda o: gm.cone_add(o["A"], o["B"]),
        "gyro.gyration": lambda o: gm.gyration(o["A"], o["B"], o["X"]),
        "gyro.cooperation": lambda o: gm.cooperation(o["A"], o["B"]),
        "gyro.dens_gyroline": lambda o: gm.dens_gyroline(T, o["rho"], o["sigma"]),
        "gyro.dens_cogyroline": lambda o: gm.dens_cogyroline(T, o["rho"], o["sigma"]),
    }


def operand_sets(n: int, seed: int) -> list[dict]:
    """``POOL`` operand sets at n, drawn from ``seed``."""
    import numpy as np

    rng = np.random.default_rng([seed, n])

    def pd():
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Q = np.linalg.qr(G)[0]
        H = (Q * np.geomspace(1.0, 100.0, n)) @ Q.conj().T
        return 0.5 * (H + H.conj().T)

    sets = []
    for _ in range(POOL):
        A, B, X = pd(), pd(), pd()
        sets.append({"A": A, "B": B, "X": X, "M": A @ B,
                     "rho": A / np.trace(A).real, "sigma": B / np.trace(B).real})
    return sets


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_kernel": _blas_kernel(),
        "threads": {k: os.environ.get(k) for k in THREAD_PINS},
    }


def _blas_kernel() -> str | None:
    """The core type that numpy's bundled OpenBLAS picked at load time, or
    None where numpy bundles no such library."""
    import ctypes
    import glob

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*scipy_openblas64*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if fn is not None:
            fn.restype = ctypes.c_char_p
            return fn().decode()
    return None


def measure(dims=DIMS, repeat: int = 50, batches: int = 5, seed: int = 0) -> dict:
    """Microseconds per call, layer -> {str(n): us}, in this process: the
    fastest of ``batches`` batches of ``repeat`` calls.  Each round of
    batches runs every layer at every n once, so that a burst of load on
    the machine spoils one batch of many layers, not every batch of one."""
    import gyromean as gm

    calls = layers(gm)
    sets = {n: operand_sets(n, seed) for n in dims}
    for n in dims:
        for call in calls.values():
            call(sets[n][0])  # warm
    best = {(name, n): float("inf") for name in calls for n in dims}
    for _ in range(batches):
        for n in dims:
            for name, call in calls.items():
                start = time.perf_counter()
                for k in range(repeat):
                    call(sets[n][k % POOL])
                best[name, n] = min(best[name, n], time.perf_counter() - start)
    return {name: {str(n): 1e6 * best[name, n] / repeat for n in dims} for name in calls}


def run_once(checkout: Path, dims, repeat: int, batches: int, seed: int) -> dict:
    """One child process timing ``checkout``'s src: its per-layer us and env."""
    env = {**os.environ, **THREAD_PINS, "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child",
         "--repeat", str(repeat), "--batches", str(batches), "--seed", str(seed),
         "--dims", *map(str, dims)],
        env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"layer timing in {checkout} exited with code "
                           f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(runs: list[dict], label: str, repeat: int, batches: int, seed: int) -> dict:
    """Median, quartiles and values of every layer at every n over the runs."""
    layers_out = {}
    for name, per_n in runs[0]["us"].items():
        layers_out[name] = {n: quartiles([r["us"][name][n] for r in runs]) for n in per_n}
    envs = [r["env"] for r in runs]
    return {
        "label": label,
        "unit": "us per call",
        "runs": len(runs),
        "repeat": repeat,
        "batches": batches,
        "seed": seed,
        "layers": layers_out,
        # one env when every run reported the same, else each run's
        "env": envs[0] if all(e == envs[0] for e in envs) else envs,
    }


def compare(base: list[dict], change: list[dict]) -> list[str]:
    """Per layer and n: both medians, the change in percent, and the pairs
    (base[k], change[k]) in which the change was faster."""
    lines = []
    for name, per_n in base[0]["us"].items():
        for n in per_n:
            b = [r["us"][name][n] for r in base]
            c = [r["us"][name][n] for r in change]
            mb, mc = statistics.median(b), statistics.median(c)
            wins = sum(y < x for x, y in zip(b, c))
            lines.append(f"{name} n={n}: {mb:.1f} -> {mc:.1f} us ({100 * (mc / mb - 1):+.1f}%), "
                         f"faster in {wins} of {len(b)} pairs")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("checkouts", nargs="*", metavar="LABEL=PATH")
    p.add_argument("--runs", type=int, default=MIN_RUNS)
    p.add_argument("--repeat", type=int, default=50)
    p.add_argument("--batches", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", type=int, nargs="+", default=list(DIMS))
    p.add_argument("--out", type=Path, default=ROOT / "bench")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        print(json.dumps({"us": measure(args.dims, args.repeat, args.batches, args.seed),
                          "env": environment()}))
        return 0
    if args.runs < MIN_RUNS:
        p.error(f"--runs must be at least {MIN_RUNS}")
    if not args.checkouts:
        p.error("name at least one LABEL=PATH")
    checkouts = parse_checkouts(p, args.checkouts, "src/gyromean")

    runs = {label: [] for label in checkouts}
    for k, label, path in alternating(checkouts, args.runs):
        runs[label].append(run_once(path, args.dims, args.repeat, args.batches, args.seed))
        print(f"run {k + 1}/{args.runs} {label}: done", flush=True)

    args.out.mkdir(parents=True, exist_ok=True)
    for label, results in runs.items():
        path = args.out / f"BENCH_layers-{label}.json"
        data = summary(results, label, args.repeat, args.batches, args.seed)
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    if len(runs) == 2:
        (_, base_runs), (_, change_runs) = runs.items()
        print("\n".join(compare(base_runs, change_runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
