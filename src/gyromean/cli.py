"""Command-line interface.

Subcommands
-----------
compute
    One operation on matrices read from JSON files (means, distances,
    gyration, cooperation).
geodesic
    Sample a gyroline or cogyroline at evenly spaced parameters.
verify
    Run the full randomized property campaign and write a report.
counterexample
    Reproduce the golden counterexamples and write a report.

Exit codes: 0 success / all properties pass, 1 property violation,
2 input error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from .defaults import DEFAULT_COND_CAP, DEFAULT_DIMS, DEFAULT_SEED, DEFAULT_TRIALS
from .errors import GyromeanError
from .gyrocone import cogyroline, cooperation, gyration, gyroline
from .gyrodensity import dens_cogyroline, dens_gyroline, require_density
from .means import geo_mean, spectral_mean
from .metrics import distance

# ``harness`` and ``matrixio`` are imported by the handlers that use them, so
# ``compute`` and ``geodesic`` never load the campaign

# the distance kinds, spelled with dashes
_SCALAR_OPS = ("thompson", "riemannian", "semimetric-op", "semimetric-frob")


def _env_seed() -> int:
    raw = os.environ.get("GYROMEAN_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"GYROMEAN_SEED must be an integer, got {raw!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gyromean",
        description="Weighted geometric means on the positive definite cone, "
                    "their gyrovector algebra, and a verification harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="one matrix operation")
    p.add_argument("--op", required=True,
                   choices=["geo", "spectral", *_SCALAR_OPS, "gyr", "coop"])
    p.add_argument("--a", required=True, metavar="FILE")
    p.add_argument("--b", required=True, metavar="FILE")
    p.add_argument("--t", type=float, default=0.5,
                   help="curve parameter for geo/spectral (default 0.5)")
    p.add_argument("--x", metavar="FILE", help="third operand for --op gyr")
    p.add_argument("--out", metavar="FILE", help="write the result as JSON")

    p = sub.add_parser("geodesic", help="sample a gyroline or cogyroline")
    p.add_argument("--kind", required=True, choices=["gyroline", "cogyroline"])
    p.add_argument("--a", required=True, metavar="FILE")
    p.add_argument("--b", required=True, metavar="FILE")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--space", required=True, choices=["cone", "density"])
    p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("verify", help="run the property campaign")
    p.add_argument("--seed", type=int, default=None,
                   help=f"campaign seed (default: GYROMEAN_SEED or {DEFAULT_SEED})")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--dims", default=",".join(map(str, DEFAULT_DIMS)),
                   help="comma-separated dimensions (default: %(default)s)")
    p.add_argument("--cond-cap", type=float, default=DEFAULT_COND_CAP)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--report", metavar="FILE", help="write the report here")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("counterexample", help="reproduce golden counterexamples")
    p.add_argument("--report", metavar="FILE")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    return parser


def _write(text: str, path) -> None:
    """Write text to the file at path, or to stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_matrix(M, out_path) -> None:
    from .matrixio import matrix_to_payload

    _write(json.dumps(matrix_to_payload(M), indent=2) + "\n", out_path)


def _emit_scalar(value: float, out_path) -> None:
    _write((json.dumps({"value": value}) if out_path else repr(value)) + "\n", out_path)


def _cmd_compute(args) -> int:
    from .matrixio import MatrixFormatError, load_matrix

    A = load_matrix(args.a)
    B = load_matrix(args.b)
    if args.op in ("geo", "spectral"):
        fn = geo_mean if args.op == "geo" else spectral_mean
        _emit_matrix(fn(A, B, args.t), args.out)
    elif args.op in _SCALAR_OPS:
        _emit_scalar(distance(args.op.replace("-", "_"), A, B), args.out)
    elif args.op == "gyr":
        if not args.x:
            raise MatrixFormatError("--op gyr requires --x FILE")
        _emit_matrix(gyration(A, B, load_matrix(args.x)), args.out)
    else:
        _emit_matrix(cooperation(A, B), args.out)
    return 0


def _cmd_geodesic(args) -> int:
    from .matrixio import MatrixFormatError, load_matrix, matrix_to_payload

    if args.samples < 1:
        raise MatrixFormatError("--samples must be at least 1")
    A = load_matrix(args.a)
    B = load_matrix(args.b)
    if args.space == "cone":
        fn = gyroline if args.kind == "gyroline" else cogyroline
    else:
        require_density(A)
        require_density(B)
        fn = dens_gyroline if args.kind == "gyroline" else dens_cogyroline
    ts = np.linspace(0.0, 1.0, args.samples)
    points = [{"t": float(t), "matrix": matrix_to_payload(fn(float(t), A, B))}
              for t in ts]
    _write(json.dumps({"kind": args.kind, "space": args.space, "samples": args.samples,
                       "points": points}, indent=2) + "\n", args.out)
    return 0


def _finish(report, args) -> int:
    """Write the report where --report asks, print the summary and the sha256
    of the report's canonical JSON; the exit code."""
    if args.report:
        _write(report.to_csv() if args.format == "csv" else report.to_json(), args.report)
    for r in report.records:
        status = "PASS" if r.passed else "FAIL"
        tag = "" if r.asserted else " [recorded only]"
        print(f"{status} {r.property_id} ({r.anchor}) "
              f"max_violation={r.max_violation:.3e}{tag}")
    print(f"{'PASS' if report.passed else 'FAIL'}: "
          f"{sum(r.passed for r in report.records)}/{len(report.records)} "
          f"properties")
    digest = hashlib.sha256(report.canonical_json().encode()).hexdigest()
    print(f"canonical JSON sha256 {digest}")
    return 0 if report.passed else 1


def verify_config(args):
    """The ``CampaignConfig`` that ``verify``'s parsed arguments ask for."""
    from .harness import CampaignConfig
    from .matrixio import MatrixFormatError

    seed = args.seed if args.seed is not None else _env_seed()
    try:
        dims = tuple(int(d) for d in args.dims.split(",") if d.strip())
    except ValueError:
        raise MatrixFormatError(f"cannot parse --dims {args.dims!r}")
    return CampaignConfig(seed=seed, trials=args.trials, dims=dims,
                          cond_cap=args.cond_cap)


def _cmd_verify(args) -> int:
    from .harness import run_campaign

    return _finish(run_campaign(verify_config(args), jobs=args.jobs), args)


def _cmd_counterexample(args) -> int:
    from .harness import reproduce_counterexamples

    return _finish(reproduce_counterexamples(), args)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "compute": _cmd_compute,
        "geodesic": _cmd_geodesic,
        "verify": _cmd_verify,
        "counterexample": _cmd_counterexample,
    }[args.command]
    try:
        if args.command in ("compute", "geodesic"):
            # operands read from files may be finite yet too large to square
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return handler(args)
        return handler(args)
    except FloatingPointError as exc:
        print(f"error: operands out of floating-point range ({exc})", file=sys.stderr)
        return 2
    # a MatrixFormatError is a ValueError
    except (GyromeanError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
