#!/usr/bin/env python3
"""Runs the serving benchmark (perfbench) and gates and summarizes it.

    python3 scripts/serving_report.py --workload fetch_1m [--workload mixed_1m]
        --seeds 1 [2 ...] --seconds N [--out BENCH_serving.json]

Run from the root of a SoftCell checkout.  For every (workload, seed) it runs

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 1

and reads the JSON object on the last line of its stdout.  The traced run
is needed for the layer ladder the ratio gate reads.  The script exits 1
when any run

  * printed no result (a failed build or set-up) or has `correct: false`;
  * has `failed > 0`;
  * is a `fetch_1m` run whose runtime stage serves fewer than 0.7x the
    requests per second of direct ShardBrain calls on the same two threads
    (`runtime.sat_rps < 0.7 * brain.direct_rps_2`).

It writes a softcell-bench-1 envelope: `meta` records the host, the commit
and the run length, `results` holds one row per run, and `metrics` holds
each workload's median and quartiles of every reported metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The dispatcher-to-brain ladder ratio: queueing, wake-ups and the runtime's
# bookkeeping may cost at most 30% of what two threads calling ShardBrain
# directly sustain.
MIN_RUNTIME_RATIO = 0.7
RATIO_WORKLOAD = "fetch_1m"


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def run_perfbench(workload: str, seed: int, seconds: int) -> dict | None:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1"]
    log("$ " + " ".join(cmd))
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=False)
    lines = done.stdout.decode(errors="replace").strip().splitlines()
    if not lines:
        log(f"perfbench printed no result (exit {done.returncode})")
        return None
    return json.loads(lines[-1])


def check_run(workload: str, result: dict | None) -> tuple[dict, list[str]]:
    """One results row and the gate failures of one run."""
    if result is None:
        return {"correct": False}, ["no result"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    direct = metrics.get("brain.direct_rps_2", 0.0)
    ratio = metrics.get("runtime.sat_rps", 0.0) / direct if direct else 0.0
    row = {"correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"], "runtime_over_direct_2": ratio}
    failures = []
    if not result["correct"]:
        failures.append("correct is false")
    if result["failed"] > 0:
        failures.append(f"failed = {result['failed']}")
    if workload == RATIO_WORKLOAD and ratio < MIN_RUNTIME_RATIO:
        failures.append(f"runtime.sat_rps / brain.direct_rps_2 = {ratio:.3f}"
                        f" < {MIN_RUNTIME_RATIO}")
    return row, failures


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    done = subprocess.run(["git", "describe", "--always", "--dirty"],
                          cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, check=False)
    return done.stdout.decode().strip() or "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", required=True,
                    choices=("fetch_1m", "mixed_1m", "install_cold"))
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--out", type=Path, default=Path("BENCH_serving.json"))
    args = ap.parse_args()

    rows = []
    values: dict[str, dict[str, list[float]]] = {}
    units: dict[str, str] = {}
    failed_runs = 0
    for workload in args.workload:
        for seed in args.seeds:
            result = run_perfbench(workload, seed, args.seconds)
            row, failures = check_run(workload, result)
            rows.append({"workload": workload, "seed": seed, **row,
                         "pass": not failures})
            status = "FAIL: " + "; ".join(failures) if failures else "PASS"
            log(f"{workload} seed {seed}: ratio "
                f"{row.get('runtime_over_direct_2', 0.0):.3f} -- {status}")
            failed_runs += bool(failures)
            if result is None:
                continue
            for name, m in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(
                    m["value"])
                units[name] = m["unit"]

    report = {
        "schema": "softcell-bench-1",
        "bench": "serving",
        "meta": {
            "hardware_threads": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "kernel": platform.release(),
            "commit": commit(),
            "seconds": args.seconds,
            "trace": 1,
            "seeds": args.seeds,
            "workloads": args.workload,
            "min_runtime_ratio": MIN_RUNTIME_RATIO,
            "pass": failed_runs == 0,
        },
        "results": rows,
        "metrics": {
            workload: {name: {"unit": units[name], **spread(vals)}
                       for name, vals in sorted(per.items())}
            for workload, per in values.items()
        },
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    log(f"wrote {args.out}: {len(rows) - failed_runs}/{len(rows)} runs pass")
    return 0 if failed_runs == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
