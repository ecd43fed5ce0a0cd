#!/usr/bin/env python3
"""SoftCell serving benchmark: one command, three traffic mixes.

    python3 perfbench/run.py --workload fetch_1m|mixed_1m|install_cold \\
        --seed N --seconds S --trace 0|1

Run from the root of a SoftCell checkout.  The script builds the
repository's softcell-serverd and the perfbench load generator (CMake,
Release) into $CARGO_TARGET_DIR (default .bench_build), then:

  --trace 0  spawns softcell-serverd five times to time set-up (the last
             one serves), drives it over loopback TCP from one generator
             thread on two connections -- open-loop segments at the
             workload's rate alternating with closed-loop Cbench segments
             -- measures its CPU time per open-loop request and peak RSS,
             stops it with SIGTERM, and checks the run against a 1-worker
             in-process reference of the same streams.
  --trace 1  does the same, then a second served pass with span output,
             then the in-process layer ladder; it reports the per-layer
             metrics and the tracing overhead (traced minus untraced).

Human-readable lines go to stderr.  The last line on stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A failed
correctness check exits 1 after printing it; a broken set-up (no sources,
failed build, too few hardware threads) exits nonzero without a result.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fetch_1m", "mixed_1m", "install_cold")

# The one server shape (perfbench/src/workload.cpp server_config()).
SERVER_WORKERS = 2
SERVER_FLAGS = [
    "--k", "8", "--clauses", "64", "--connections", "15625",
    "--ues-per-conn", "64", "--shards", "8",
    "--workers", str(SERVER_WORKERS),
]
SERVER_THREADS = 1 + SERVER_WORKERS  # event loop + runtime workers
GEN_THREADS = 1
SETUP_REPS = 5
# Every run ends within this many seconds of its start, build excluded:
# each step gets what is left of it.
RUN_BUDGET_S = 170
_run_deadline = 0.0

END_TO_END = {
    "setup_s": "s",
    "cpu_us_per_req": "us",
    "rss_mb": "MB",
}
# Wall-clock figures of the served run: printed on every run, reported as
# per-layer metrics (see README.md for why they carry no bound).
WALL_CLOCK = {
    "p50_us": "us",
    "sat_rps": "1/s",
}

PER_LAYER = {
    "wire.p50_us": "us",
    "wire.sat_rps": "1/s",
    "server.cpu_sat_us": "us",
    "ofp.encode_ns": "ns",
    "ofp.decode_ns": "ns",
    "net.p50_gap_us": "us",
    "net.sat_ratio": "ratio",
    "net.drops": "count",
    "wire.p90_us": "us",
    "wire.p99_us": "us",
    "wire.path_p50_us": "us",
    "wire.path_p99_us": "us",
    "dispatch.p50_us": "us",
    "dispatch.p99_us": "us",
    "dispatch.sat_rps": "1/s",
    "runtime.post_block_p99_us": "us",
    "runtime.wait_p50_us": "us",
    "runtime.wait_p99_us": "us",
    "runtime.coalesced": "count",
    "runtime.sat_rps": "1/s",
    "brain.fetch_p50_ns": "ns",
    "brain.fetch_p99_ns": "ns",
    "brain.path_install_p50_us": "us",
    "brain.path_install_p99_us": "us",
    "brain.direct_rps_1": "1/s",
    "brain.direct_rps_2": "1/s",
    "commit.wait_p50_us": "us",
    "commit.apply_p50_us": "us",
    "commit.ops_per_batch": "count",
    "core.installs": "count",
    "core.first_install_ratio": "ratio",
    "core.hop_evals_per_install": "count",
    "core.memo_hit_ratio": "ratio",
    "core.rules_per_install": "count",
    "core.rules": "count",
    "setup.brain_s": "s",
    "setup.provision_s": "s",
    "gen.lag_p99_us": "us",
    "host.hardware_threads": "count",
    **{f"overhead.{name}": unit
       for name, unit in {**END_TO_END, **WALL_CLOCK}.items()},
}


class BenchError(Exception):
    """A set-up failure: the run ends without a result."""


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def build_dir() -> Path:
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build(bdir: Path) -> tuple[Path, Path]:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no SoftCell sources next to {HERE.name}/")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs,
                  "--target", "perfbench", "softcell-serverd"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return bdir / "perfbench", bdir / "apps" / "softcell-serverd"


def check_thread_budget() -> int:
    hw = len(os.sched_getaffinity(0))
    need = SERVER_THREADS + GEN_THREADS
    if need > hw:
        raise BenchError(
            f"thread budget: serverd loop + {SERVER_WORKERS} workers + "
            f"{GEN_THREADS} generator thread = {need} > {hw} hardware threads")
    return hw


def start_run_clock() -> None:
    global _run_deadline
    _run_deadline = time.monotonic() + RUN_BUDGET_S


def time_left() -> float:
    left = _run_deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run budget exhausted")
    return left


def cpu_split() -> tuple[set[int], set[int]]:
    """CPUs for the generator and for softcell-serverd.

    The generator thread gets a CPU of its own.  Left to the scheduler, a
    woken serverd loop thread is often pulled onto the generator's CPU, and
    the two then take turns in multi-millisecond slices -- a stall that
    says nothing about the server.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return {cpus[0]}, set(cpus[1:])


def pinned(cpus: set[int] | None):
    if cpus is None:
        return None
    return lambda: os.sched_setaffinity(0, cpus)


def run_json(cmd: list[str],
             cpus: set[int] | None = None) -> tuple[dict, bool]:
    """Runs a perfbench subcommand; returns its JSON line and success."""
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=None,
                          timeout=time_left(), check=False,
                          preexec_fn=pinned(cpus))
    lines = done.stdout.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"{cmd[1]} printed no result (exit {done.returncode})")
    return json.loads(lines[-1]), done.returncode == 0


class Server:
    """One softcell-serverd process; always stopped and reaped."""

    def __init__(self, binary: Path, out: Path):
        self.port_file = out / "serverd.port"
        self.port_file.unlink(missing_ok=True)
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(binary), *SERVER_FLAGS, "--port", "0",
             "--port-file", str(self.port_file)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            preexec_fn=pinned(cpu_split()[1]))
        try:
            self.port = self._wait_port()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start
        self._pin_threads()

    def _pin_threads(self) -> None:
        """One CPU per serving thread: event loop, then each worker.

        serverd starts its runtime workers before it writes the port file
        and its loop thread right after, so once 1 + SERVER_THREADS threads
        exist, ascending thread ids are: main, workers..., loop.  With any
        other thread count the process-wide CPU set stays in force.
        """
        task = Path(f"/proc/{self.proc.pid}/task")
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            tids = sorted(int(t.name) for t in task.iterdir())
            if len(tids) == 1 + SERVER_THREADS:
                break
            time.sleep(0.001)
        else:
            log(f"softcell-serverd runs {len(tids)} threads; not pinning them")
            return
        cpus = sorted(cpu_split()[1])
        serving = [tids[-1], *tids[1:-1]]  # loop thread first
        for tid, cpu in zip(serving, cpus):
            os.sched_setaffinity(tid, {cpu})

    def _wait_port(self) -> int:
        deadline = time.monotonic() + time_left()
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError("softcell-serverd exited during set-up")
            try:
                text = self.port_file.read_text()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                return int(text)
            time.sleep(0.0005)
        raise BenchError("softcell-serverd set-up timed out")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for softcell-serverd")

    def stop(self) -> bool:
        """SIGTERM drain; True when serverd drained and exited 0."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            return False
        drained = b"softcell-serverd: drained" in out
        if self.proc.returncode != 0 or not drained:
            log(out.decode(errors="replace"))
        return self.proc.returncode == 0 and drained

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def served_pass(tools: tuple[Path, Path], common: list[str], out: Path,
                setups: int, spans: Path | None) -> dict:
    """Set-up timing plus one wire run against a fresh softcell-serverd."""
    perfbench, serverd = tools
    setup = []
    for _ in range(setups - 1):
        server = Server(serverd, out)
        setup.append(server.setup_s)
        if not server.stop():
            raise BenchError("softcell-serverd did not drain cleanly")
    server = Server(serverd, out)
    setup.append(server.setup_s)
    try:
        cmd = [str(perfbench), "wire", *common, "--port", str(server.port),
               "--server-pid", str(server.proc.pid)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        wire, wire_ok = run_json(cmd, cpu_split()[0])
        rss_mb = server.peak_rss_mb()
    finally:
        clean_exit = server.stop()
    if not clean_exit:
        log("softcell-serverd: no clean SIGTERM drain")
    return {
        "wire": wire,
        "correct": wire_ok and wire["correct"] and clean_exit,
        "metrics": {
            "setup_s": statistics.median(setup),
            "cpu_us_per_req": wire["cpu_us_per_req"],
            "rss_mb": rss_mb,
            "p50_us": wire["p50_us"],
            "sat_rps": wire["sat_rps"],
        },
        "setup_runs": setup,
    }


def merge_spans(parts: list[Path], dest: Path) -> None:
    with dest.open("w") as out:
        for part in parts:
            if part.is_file():
                out.write(part.read_text())
                part.unlink()


def main() -> int:
    # A SIGTERM unwinds like an error, so every child is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        hw = check_thread_budget()
        bdir = build_dir()
        tools = build(bdir)
        start_run_clock()
        out = bdir / "perfbench-out"
        out.mkdir(parents=True, exist_ok=True)
        ref_path = out / f"ref-{args.workload}.bin"
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--ref", str(ref_path)]

        ref, ref_ok = run_json([str(tools[0]), "ref", *common])
        untraced = served_pass(tools, common, out, SETUP_REPS, None)
        correct = ref_ok and untraced["correct"]
        attempted = untraced["wire"]["attempted"]
        failed = untraced["wire"]["failed"]
        e2e = untraced["metrics"]
        log(f"set-up runs (s): {', '.join(f'{t:.3f}' for t in untraced['setup_runs'])}")

        if args.trace == 0:
            metrics = {name: e2e[name] for name in END_TO_END}
            units = END_TO_END
        else:
            wire_spans = out / "spans-wire.part"
            ladder_spans = out / "spans-ladder.part"
            traced = served_pass(tools, common, out, 1, wire_spans)
            ladder, ladder_ok = run_json(
                [str(tools[0]), "ladder", *common, "--spans", str(ladder_spans)])
            merge_spans([wire_spans, ladder_spans],
                        out / f"spans-{args.workload}.jsonl")
            correct = correct and traced["correct"] and ladder_ok and ladder["correct"]
            attempted += traced["wire"]["attempted"]
            failed += traced["wire"]["failed"]
            tw = traced["wire"]
            metrics = {name: ladder[name] for name in PER_LAYER if name in ladder}
            path_primary = args.workload == "install_cold"
            uw = untraced["wire"]
            metrics.update({
                "wire.p50_us": uw["p50_us"],
                "wire.sat_rps": uw["sat_rps"],
                "server.cpu_sat_us": uw["cpu_sat_us"],
                "net.p50_gap_us": tw["p50_us"] - ladder["dispatch.p50_us"],
                "net.sat_ratio": tw["sat_rps"] / ladder["dispatch.sat_rps"]
                if ladder["dispatch.sat_rps"] else 0.0,
                "net.drops": tw["drops"],
                "wire.p90_us": tw["p90_us"],
                "wire.p99_us": tw["p99_us"],
                "wire.path_p50_us": tw["p50_us" if path_primary else "other_p50_us"],
                "wire.path_p99_us": tw["p99_us" if path_primary else "other_p99_us"],
                "core.rules": ref["core_rules"],
                "gen.lag_p99_us": tw["lag_p99_us"],
                "host.hardware_threads": hw,
            })
            for name in {**END_TO_END, **WALL_CLOCK}:
                metrics[f"overhead.{name}"] = (traced["metrics"][name]
                                               - e2e[name])
            units = PER_LAYER
            missing = [name for name in PER_LAYER if name not in metrics]
            if missing:
                raise BenchError("missing per-layer metrics: " + ", ".join(missing))
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        log(f"perfbench: {e}")
        return 2

    for name, unit in WALL_CLOCK.items():
        log(f"(wall clock) {name} = {e2e[name]:.6g} {unit}")
    for name, unit in units.items():
        log(f"{name} = {metrics[name]:.6g} {unit}")
    log(f"correct={correct} attempted={attempted} failed={failed} "
        f"first installs={ref['core_installs']}/{ref['path_requests']} "
        f"path requests, hardware_threads={hw}")
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    report = out / f"report-{args.workload}-trace{args.trace}.json"
    report.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds,
                                  "reference": ref, "wire": untraced["wire"],
                                  "setup_runs": untraced["setup_runs"],
                                  **result}, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
