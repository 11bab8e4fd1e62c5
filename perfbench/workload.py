"""One workload in one process: set-up probe, timed run or traced run.

Started by ``run.py`` with the BLAS thread pins already in its environment
and ``src`` on PYTHONPATH.  Prints human-readable lines and, last, one JSON
object for the launcher.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from calibrate import Calibration

OUT_DIR = Path(__file__).resolve().parent / "out"
CAMPAIGN_RECORDS = 59
CHECK_EVERY = 32      # rounds between reference-checked rounds of a mix
TRACE_ROUNDS = 160    # rounds of a mix in a traced run, untraced then traced
SETUP_CALIBRATIONS = 100
BRACKET_CALIBRATIONS = 50  # kernel samples before and after a traced-run campaign


def import_program(workload: str) -> float:
    """Import gyromean (and, for the campaign, its property registry); seconds."""
    t0 = time.perf_counter()
    import gyromean  # noqa: F401

    if workload == "campaign":
        from gyromean.registry import all_properties

        all_properties()
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def hd_median(values) -> float:
    """Harrell-Davis estimate of the median: order statistics weighted by Beta((n+1)/2, (n+1)/2).

    Operation times cluster by kind (or by property), and the sample median
    jumps between two neighbouring clusters when the gap between them falls
    at the middle rank; 116 property times per campaign run jumped by 10%
    between runs.  This estimate moves smoothly across such a gap.
    """
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    a = (x.size + 1) / 2.0
    edges = betainc(a, a, np.arange(x.size + 1) / x.size)
    return float(np.diff(edges) @ x)


# --------------------------------------------------------------------------
# operation mixes
# --------------------------------------------------------------------------

class MixRun:
    """Rounds of one operation mix: every kind once per round, fresh operands."""

    def __init__(self, workload: str, seed: int):
        # imported here, not at the top: mix imports gyromean, whose import
        # the set-up timer must see first
        import numpy as np

        from inputs import draw_round
        from mix import KINDS, MIXES, kinds_for

        self.spec = MIXES[workload]
        self.kinds = kinds_for(self.spec)
        self.calls = [KINDS[k] for k in self.kinds]
        self.rng = np.random.default_rng(seed)
        self._draw = draw_round
        self.rounds = 0
        self.failures: list[str] = []

    def draw(self):
        ops = self._draw(self.rng, self.spec, len(self.kinds), self.rounds)
        self.rounds += 1
        return ops

    def play(self, ops, lat):
        """Call every kind once on its operands; latencies (ns) go to ``lat``."""
        clock = time.perf_counter_ns
        outs = []
        for k, (call, o) in enumerate(zip(self.calls, ops)):
            t0 = clock()
            try:
                out = call(o)
            except Exception:  # a failed call is counted, not fatal
                out = None
                self.failures.append(f"{self.kinds[k]}: {traceback.format_exc(limit=1)}")
            lat[k].append(clock() - t0)
            outs.append(out)
        return outs


def check_rounds(mix: MixRun, checked) -> tuple[bool, list[str]]:
    """Reference checks on the kept rounds, then the 1e-6 perturbation self-test."""
    import reference

    lines, ok, worst = [], True, {}
    for ops, outs in checked:
        for kind, o, out in zip(mix.kinds, ops, outs):
            if out is None:
                continue
            for label, err, tol in reference.check(kind, o, out):
                key = label.split("@")[0]
                worst[key] = max(worst.get(key, (0.0, 0.0, 0.0)), (err / tol, err, tol))
                if not err <= tol:
                    ok = False
                    lines.append(f"CHECK FAILED {label}: error {err:.3e} > tolerance {tol:.3e}")
    for key, (ratio, err, tol) in sorted(worst.items()):
        lines.append(f"check {key}: worst error {err:.2e}, {ratio:.1e} of its tolerance")
    ops, outs = checked[0]
    missed = [kind for kind, o, out in zip(mix.kinds, ops, outs) if out is not None
              and all(err <= tol for _, err, tol
                      in reference.check(kind, o, reference.perturbed(out)))]
    lines.append("self-test: a 1e-6 relative perturbation of each kind's output is "
                 + (f"NOT caught for {', '.join(missed)}" if missed else "caught"))
    return ok and not missed, lines


def warm_up(workload: str, seed: int) -> float:
    """One round on throw-away operands, counted in set-up; returns its seconds."""
    mix = MixRun(workload, seed ^ 0x5EED)
    ops = mix.draw()
    t0 = time.perf_counter()
    mix.play(ops, [[] for _ in mix.kinds])
    return time.perf_counter() - t0


def timed_mix(workload: str, seed: int, seconds: float, setup_s: float) -> dict:
    mix = MixRun(workload, seed)
    lat = [[] for _ in mix.kinds]
    checked = []
    cal = Calibration()
    start = time.perf_counter()
    while True:
        ops = mix.draw()
        cal.sample()
        outs = mix.play(ops, lat)
        if (mix.rounds - 1) % CHECK_EVERY == 0:
            checked.append((ops, outs))
        if time.perf_counter() - start >= seconds:
            break
    rss = peak_rss_mb()
    ok, lines = check_rounds(mix, checked)
    import numpy as np

    lat_ns = np.array(lat, dtype=float)          # kinds x rounds
    raw = {"wall_s": lat_ns.sum() * 1e-9 / mix.rounds,
           "ops_per_s": lat_ns.size / (lat_ns.sum() * 1e-9),
           "op_p50_us": hd_median(lat_ns.ravel()) * 1e-3}
    f = cal.factor()
    lines += [f"op.{k}: p50 {np.median(lat_ns[i]) * 1e-3 * f:.1f} us"
              for i, k in enumerate(mix.kinds)]
    lines.append(f"{mix.rounds} rounds, {len(checked)} reference-checked")
    lines.append(_unscaled(raw, f))
    return {
        "correct": ok,
        "attempted": mix.rounds * len(mix.kinds),
        "failed": len(mix.failures),
        "lines": lines + mix.failures[:5],
        "metrics": {
            "wall_s": raw["wall_s"] * f,
            "ops_per_s": raw["ops_per_s"] / f,
            "op_p50_us": raw["op_p50_us"] * f,
            "peak_rss_mb": rss,
            "setup_s": setup_s,
        },
    }


def _unscaled(raw: dict, factor: float) -> str:
    return ("unscaled " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
            + f"; calibration factor {factor:.4f}")


def traced_mix(workload: str, seed: int) -> dict:
    """TRACE_ROUNDS rounds untraced (per-kind latency), then the same traced."""
    import numpy as np

    from spans import Tracer

    mix = MixRun(workload, seed)
    rounds = [mix.draw() for _ in range(TRACE_ROUNDS)]
    lat = [[] for _ in mix.kinds]
    cal, cal_traced = Calibration(), Calibration()
    plain, untraced_s = [], 0.0
    for ops in rounds:
        cal.sample()
        t0 = time.perf_counter()
        plain.append(mix.play(ops, lat))
        untraced_s += time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    traced, traced_s = [], 0.0
    try:
        for ops in rounds:
            cal_traced.sample()
            t0 = time.perf_counter()
            traced.append(mix.play(ops, [[] for _ in mix.kinds]))
            traced_s += time.perf_counter() - t0
    finally:
        tracer.uninstall()
    same = all(_same(a, b) for ra, rb in zip(plain, traced) for a, b in zip(ra, rb))
    ok, lines = check_rounds(mix, [(rounds[i], plain[i])
                                   for i in range(0, TRACE_ROUNDS, CHECK_EVERY)])
    if not same:
        ok = False
        lines.append("CHECK FAILED: traced outputs differ from untraced outputs")
    tracer.save(OUT_DIR / f"trace-{workload}.npz")
    f = cal.factor()
    metrics = {f"op.{k}_us": float(np.median(lat[i])) * 1e-3 * f
               for i, k in enumerate(mix.kinds)}
    metrics.update(tracer.layer_metrics(()))
    metrics["trace.overhead_pct"] = _overhead_pct(untraced_s, cal, traced_s, cal_traced)
    lines.append(f"unscaled: traced {traced_s:.3f} s against untraced {untraced_s:.3f} s "
                 f"for {TRACE_ROUNDS} rounds")
    return {"correct": ok, "attempted": 2 * TRACE_ROUNDS * len(mix.kinds),
            "failed": len(mix.failures), "lines": lines + mix.failures[:5],
            "metrics": metrics}


def _overhead_pct(untraced_s, cal, traced_s, cal_traced) -> float:
    """Calibrated traced time over calibrated untraced time, minus 1, in percent."""
    return 100.0 * (traced_s * cal_traced.factor() / (untraced_s * cal.factor()) - 1.0)


def _same(a, b) -> bool:
    import numpy as np

    if a is None or b is None:
        return a is b
    if isinstance(a, tuple):
        return all(_same(x, y) for x, y in zip(a[0] + a[1], b[0] + b[1]))
    return bool(np.array_equal(a, b))


# --------------------------------------------------------------------------
# campaign
# --------------------------------------------------------------------------

def _campaign_config():
    """The verify campaign's default configuration: seed 42, 200 trials.

    The workload seed is not used: at other campaign seeds the
    mobius-ball-axioms record fails (seeds 403 and 406 at 200 trials), so
    the share of failed records would depend on the seed.
    """
    from gyromean.harness import CampaignConfig

    return CampaignConfig()


def _campaign_checks(reports) -> tuple[bool, list[str]]:
    """Pass, 59 records, anchor coverage, and byte-identical canonical JSON."""
    texts = [r.canonical_json() for r in reports]
    digests = {hashlib.sha256(t.encode()).hexdigest() for t in texts}
    first = reports[0]
    coverage = [r for r in first.records if r.property_id == "anchor-coverage"]
    checks = {
        "report passes": all(r.passed for r in reports),
        f"{CAMPAIGN_RECORDS} records": all(len(r.records) == CAMPAIGN_RECORDS for r in reports),
        "anchor-coverage passes": len(coverage) == 1 and coverage[0].passed,
        "canonical JSON byte-identical": len(digests) == 1,
    }
    lines = [f"check {name}: {'ok' if good else 'FAILED'}" for name, good in checks.items()]
    lines.append(f"canonical JSON sha256 {sorted(digests)[0][:16]} "
                 f"({len(reports)} campaigns)")
    # self-test: a perturbed record must change the canonical bytes
    import dataclasses

    at = next(i for i, r in enumerate(first.records) if r.max_violation)
    rec = first.records[at]
    bent = dataclasses.replace(rec, max_violation=rec.max_violation * (1 + 1e-6))
    records = first.records[:at] + (bent,) + first.records[at + 1:]
    altered = dataclasses.replace(first, records=records)
    caught = altered.canonical_json() != texts[0]
    lines.append(f"self-test: a 1e-6 relative perturbation of one record "
                 f"{'is caught' if caught else 'is NOT caught'}")
    failures = [f"{r.property_id}: {r.note}" for r in first.failures()]
    return all(checks.values()) and caught, lines + failures


def timed_campaign(seconds: float, setup_s: float) -> dict:
    import gyromean.harness as harness

    config = _campaign_config()
    property_ns: list[int] = []
    run_property = harness.run_property
    cal = Calibration()

    def timed_property(spec, cfg):
        cal.sample()
        t0 = time.perf_counter_ns()
        try:
            return run_property(spec, cfg)
        finally:
            property_ns.append(time.perf_counter_ns() - t0)

    harness.run_property = timed_property
    reports, walls = [], []
    start = time.perf_counter()
    try:
        # whole campaigns only: at least two, for the byte-identity check,
        # and after them none started that would overrun the run
        while len(walls) < 2 or (time.perf_counter() - start
                                 + statistics.median(walls) <= seconds):
            t0, cal0 = time.perf_counter(), len(cal.times_ns)
            reports.append(harness.run_campaign(config, jobs=1))
            walls.append(time.perf_counter() - t0 - sum(cal.times_ns[cal0:]) * 1e-9)
    finally:
        harness.run_property = run_property
    rss = peak_rss_mb()
    ok, lines = _campaign_checks(reports)
    lines.append("unscaled campaign walls " + ", ".join(f"{w:.3f}" for w in walls) + " s")
    raw = {"wall_s": statistics.fmean(walls),
           "ops_per_s": CAMPAIGN_RECORDS * len(reports) / sum(walls),
           "op_p50_us": hd_median(property_ns) * 1e-3}
    # each kernel sample stands for the property it precedes
    f = cal.factor(weights=property_ns)
    lines.append(_unscaled(raw, f))
    return {
        "correct": ok,
        "attempted": CAMPAIGN_RECORDS * len(reports),
        "failed": sum(len(r.failures()) for r in reports),
        "lines": lines,
        "metrics": {
            "wall_s": raw["wall_s"] * f,
            "ops_per_s": raw["ops_per_s"] / f,
            "op_p50_us": raw["op_p50_us"] * f,
            "peak_rss_mb": rss,
            "setup_s": setup_s,
        },
    }


def traced_campaign() -> dict:
    """One campaign untraced, then one traced; both must give the same bytes."""
    import gyromean.harness as harness
    from gyromean.registry import all_properties

    from spans import Tracer

    config = _campaign_config()

    def bracketed(cal):
        """One campaign, with calibration samples just before and after it."""
        for _ in range(BRACKET_CALIBRATIONS):
            cal.sample()
        t0 = time.perf_counter()
        report = harness.run_campaign(config, jobs=1)
        elapsed = time.perf_counter() - t0
        for _ in range(BRACKET_CALIBRATIONS):
            cal.sample()
        return report, elapsed

    cal, cal_traced = Calibration(), Calibration()
    plain, untraced_s = bracketed(cal)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_s = bracketed(cal_traced)
    finally:
        tracer.uninstall()
    ok, lines = _campaign_checks([plain, traced])
    tracer.save(OUT_DIR / "trace-campaign.npz")
    ids = [spec.property_id for spec in all_properties()]
    metrics = tracer.layer_metrics(ids)
    metrics["trace.overhead_pct"] = _overhead_pct(untraced_s, cal, traced_s, cal_traced)
    lines.append(f"unscaled: traced {traced_s:.3f} s against untraced {untraced_s:.3f} s "
                 f"for one campaign")
    return {"correct": ok, "attempted": 2 * CAMPAIGN_RECORDS,
            "failed": len(plain.failures()) + len(traced.failures()),
            "lines": lines, "metrics": metrics}


# --------------------------------------------------------------------------

def environment() -> dict:
    import os
    import platform
    from importlib import metadata

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True,
                   choices=["campaign", "ops-n2", "ops-n8-illcond"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--mode", choices=["setup", "timed", "traced"], required=True)
    args = p.parse_args(argv)

    setup_raw = import_program(args.workload)
    if args.workload != "campaign":
        setup_raw += warm_up(args.workload, args.seed)
    cal = Calibration()
    for _ in range(SETUP_CALIBRATIONS):
        cal.sample()
    setup_s = setup_raw * cal.factor()
    print(f"setup: unscaled {setup_raw:.6f} s, calibration factor {cal.factor():.4f}")
    if args.mode == "setup":
        result = {"setup_s": setup_s}
    elif args.mode == "timed":
        result = (timed_campaign(args.seconds, setup_s)
                  if args.workload == "campaign"
                  else timed_mix(args.workload, args.seed, args.seconds, setup_s))
    else:
        result = (traced_campaign() if args.workload == "campaign"
                  else traced_mix(args.workload, args.seed))
    if args.mode != "setup":
        result["env"] = environment()
    for line in result.pop("lines", []):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
