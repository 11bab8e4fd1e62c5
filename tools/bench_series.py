"""Run perfbench several times per checkout and write BENCH_<workload>-<label>.json.

Usage (from the repository root):

    python3 tools/bench_series.py --workload campaign --runs 5 \
        parent=../parent-checkout stacked-draws=.

Each ``label=path`` names a checkout that holds ``perfbench/run.py``.  The
script runs ``python3 perfbench/run.py --workload W --seed S --seconds N
--trace 0``, with N the ``run_seconds`` of this repository's
``BENCHMARK.json``, in every checkout in turn, ``--runs`` times over and in
reverse order every other round, so that drift of the machine hits each
checkout alike.  It writes ``<out>/BENCH_<workload>-<label>.json`` per checkout: each
end-to-end metric's median, quartiles (inclusive method) and values, the run
count, whether every run was correct, the calibration factor that scaled each
run's times (a run scaled by a stray factor stands out there), the rounds
each run completed (an op mix's rounds, or the campaign's whole campaigns),
the environment each run reported (core count, BLAS vendor and version, BLAS
thread settings) and the canonical JSON sha256 each campaign run printed.
Given two checkouts, it also prints, per metric, in how many of the
alternating pairs of runs the second one did better, with "better" as
``BENCHMARK.json`` declares it, each checkout's median ``peak_rss_mb`` beside
its median rounds (perfbench keeps data per completed round, so more
throughput alone raises the peak), and whether the two checkouts' campaign
reports have the same canonical sha256.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_RUNS = 5
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN_SECONDS = SPEC["run_seconds"]
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
# the line a timed perfbench run prints with its unscaled figures
FACTOR_LINE = re.compile(r"^unscaled .*; calibration factor ([0-9.eE+-]+)$")
# the line a campaign run prints with the hash of its report's canonical JSON
SHA_LINE = re.compile(r"^canonical JSON sha256 ([0-9a-f]+)\b")
# the line with the rounds a timed op-mix run completed, or with the
# campaigns a timed campaign run completed
ROUNDS_LINE = re.compile(r"^(\d+) rounds, \d+ reference-checked$|\((\d+) campaigns\)$")


def calibration_factor(lines: list[str]) -> float | None:
    """The calibration factor of the timed run, read off its ``unscaled`` line."""
    found = [float(m.group(1)) for m in map(FACTOR_LINE.match, lines) if m]
    return found[-1] if found else None


def canonical_sha(lines: list[str]) -> str | None:
    """The canonical JSON sha256 (prefix) a campaign run printed, if any."""
    found = [m.group(1) for m in map(SHA_LINE.match, lines) if m]
    return found[-1] if found else None


def completed_rounds(lines: list[str]) -> int | None:
    """The rounds (op mixes) or campaigns (campaign) the timed run completed."""
    found = [int(m.group(1) or m.group(2)) for m in map(ROUNDS_LINE.search, lines) if m]
    return found[-1] if found else None


def same_reports(base: list[dict], change: list[dict]) -> bool | None:
    """Whether every run of both checkouts printed one canonical sha256;
    None when no run printed one (the ``ops-*`` workloads print none)."""
    hashes = {r.get("canonical_sha256") for r in base + change}
    if hashes == {None}:
        return None
    return len(hashes) == 1


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One timed perfbench run: its result object plus the env it printed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"perfbench in {checkout} exited with code "
                           f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    env = [ln[len("env "):] for ln in lines if ln.startswith("env ")]
    result["env"] = json.loads(env[-1]) if env else {}
    result["calibration_factor"] = calibration_factor(lines)
    result["canonical_sha256"] = canonical_sha(lines)
    result["rounds"] = completed_rounds(lines)
    return result


def summary(runs: list[dict], label: str, workload: str, seed: int,
            seconds: int) -> dict:
    """Median, quartiles and values of every metric over the runs."""
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        metrics[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                         "values": values}
    envs = [r["env"] for r in runs]
    return {
        "label": label,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "runs": len(runs),
        "correct": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
        "calibration_factors": [r.get("calibration_factor") for r in runs],
        "canonical_sha256": [r.get("canonical_sha256") for r in runs],
        "rounds": [r.get("rounds") for r in runs],
        # one env when every run reported the same, else each run's
        "env": envs[0] if all(e == envs[0] for e in envs) else envs,
    }


def win_counts(base: list[dict], change: list[dict]) -> dict[str, tuple[int, int]]:
    """Per metric, in how many pairs (base[k], change[k]) the change did better.

    "Better" is lower or higher as ``BENCHMARK.json`` declares the metric; a
    tie is no win.  Returns (wins, pairs) per metric the declaration names.
    """
    pairs = list(zip(base, change))
    counts = {}
    for name, better in BETTER.items():
        if not pairs or name not in base[0]["metrics"]:
            continue
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (c["metrics"][name]["value"] - b["metrics"][name]["value"]) > 0
                   for b, c in pairs)
        counts[name] = (wins, len(pairs))
    return counts


def rss_and_rounds(label: str, runs: list[dict]) -> str:
    """One checkout's median peak RSS beside the median rounds its runs completed."""
    rss = statistics.median(r["metrics"]["peak_rss_mb"]["value"] for r in runs)
    rounds = [r.get("rounds") for r in runs]
    done = statistics.median(rounds) if None not in rounds else None
    return f"peak_rss_mb: {label} median {rss:.1f} MB at median {done} rounds {rounds}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("checkouts", nargs="+", metavar="LABEL=PATH")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--runs", type=int, default=MIN_RUNS)
    p.add_argument("--out", type=Path, default=ROOT / "bench")
    args = p.parse_args(argv)
    if args.runs < MIN_RUNS:
        p.error(f"--runs must be at least {MIN_RUNS}")
    checkouts = {}
    for item in args.checkouts:
        label, sep, path = item.partition("=")
        if not sep or not label or not (Path(path) / "perfbench" / "run.py").is_file():
            p.error(f"{item!r} is not LABEL=PATH of a checkout with perfbench/run.py")
        checkouts[label] = Path(path).resolve()

    runs = {label: [] for label in checkouts}
    for k in range(args.runs):
        # every other round runs the checkouts in reverse order
        order = list(checkouts.items())[::-1 if k % 2 else 1]
        for label, path in order:
            result = run_once(path, args.workload, args.seed, RUN_SECONDS)
            runs[label].append(result)
            wall = result["metrics"].get("wall_s", {}).get("value")
            print(f"run {k + 1}/{args.runs} {label}: wall_s {wall} "
                  f"correct {result['correct']} failed {result['failed']}", flush=True)

    args.out.mkdir(parents=True, exist_ok=True)
    for label, results in runs.items():
        path = args.out / f"BENCH_{args.workload}-{label}.json"
        data = summary(results, label, args.workload, args.seed, RUN_SECONDS)
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    if len(runs) == 2:
        (base, base_runs), (change, change_runs) = runs.items()
        for name, (wins, pairs) in win_counts(base_runs, change_runs).items():
            print(f"{name}: {change} better than {base} in {wins} of {pairs} pairs")
        if "peak_rss_mb" in base_runs[0]["metrics"]:
            for label, results in runs.items():
                print(rss_and_rounds(label, results))
        same = same_reports(base_runs, change_runs)
        if same is not None:
            print(f"canonical JSON sha256: {change} "
                  f"{'matches' if same else 'DIFFERS from'} {base}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
