"""Benchmark launcher for gyromean.

    python3 perfbench/run.py --workload campaign --seed 42 --seconds 30 --trace 0

Run from the root of a checkout.  Each workload runs in a child process with
BLAS pinned to one thread and ``src`` on PYTHONPATH.  With ``--trace 0`` the
child is timed with no instrumentation and the end-to-end metrics are
printed; set-up time is the median over several fresh processes.  With
``--trace 1`` the child records spans around every call into gyromean and
the per-layer metrics are printed.  The last line of standard output is one
JSON object; the exit code is 1 when an output check fails, 2 on a usage or
set-up error.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("campaign", "ops-n2", "ops-n8-illcond")
SETUP_PROBES = 6      # fresh processes that only set up; the timed child adds one
DEADLINE_S = 170.0
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ, **THREAD_PINS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before the workload could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} run did not finish within {left:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} run exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchError(f"{mode} run printed no result") from exc


def declared_metrics(trace: bool) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "gyromean" / "__init__.py").is_file():
        print(f"no gyromean sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    trace = bool(args.trace)
    try:
        declared = declared_metrics(trace)
        if trace:
            result = run_child(args, "traced", deadline)
        else:
            setups = [run_child(args, "setup", deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            result = run_child(args, "timed", deadline)
            setups.append(result["metrics"]["setup_s"])
            result["metrics"]["setup_s"] = statistics.median(setups)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    measured = result["metrics"]
    missing = [n for n in declared if n not in measured and not trace]
    if missing:
        print(f"benchmark failed: no value for {', '.join(missing)}", file=sys.stderr)
        return 2
    # a per-layer metric the workload never exercises reads 0
    metrics = {n: {"value": measured.get(n, 0), "unit": u} for n, u in declared.items()}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    out = {"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
           "failed": int(result["failed"]), "metrics": metrics}
    record = HERE / "out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(exist_ok=True)
    record.write_text(json.dumps(dict(out, env=result["env"]), indent=1) + "\n",
                      encoding="utf-8")
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
