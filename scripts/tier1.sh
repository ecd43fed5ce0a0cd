#!/usr/bin/env bash
# Tier-1 verify (ROADMAP.md), multi-stage:
#   1. configure + build + full test suite (the tier-1 gate proper)
#   2. static   -- softcell-lint over src/, the linter's own fixture tests,
#                  softcell-analyze (AST-grounded lifetime + lock-order
#                  checkers, DESIGN.md section 17) with its fixture/unit
#                  suite, and (when clang/clang-tidy exist) the
#                  -Wthread-safety{,-beta} build + curated clang-tidy pass;
#                  unavailable tools report SKIP, never silent PASS
#   3. ctest -L chaos      -- the 200-seed fault-injection corpus
#   3b. ctest -L cluster    -- the controller-fleet suite incl. its own
#       200-seed corpus with the exactly-one-owner invariant armed
#   4. ctest -L nofastpath -- engine + e2e with SOFTCELL_FASTPATH=0
#   5. telemetry -- an off-mode rebuild (-DSOFTCELL_TELEMETRY=OFF proves
#      the tree compiles with spans erased) plus the disarmed-overhead
#      smoke bench with its JSON output validated
#   5b. scale -- the million-UE bench under SOFTCELL_SMOKE=1: its built-in
#      check against the pinned golden fingerprint is the exit code, and
#      the JSON envelope is validated
#   5c. ctest -L net -- the TCP serving front end: the directed
#      partial-read/short-write/backpressure/drain suite, wire-vs-in-process
#      fingerprint parity, and softcell-serverd as a separate process
#      (parity, then SIGTERM must drain it to exit 0)
#   6. ASan + TSan + UBSan rebuilds running the
#      concurrency|chaos|cluster|slab|shardbrain|net labels with a trimmed
#      corpus (SOFTCELL_CHAOS_SEEDS)
#
# Every stage runs even if an earlier one fails; a per-stage
# PASS/FAIL/SKIP summary is printed at the end and the script exits
# non-zero if ANY stage failed (no silently swallowed exit codes).
#
#   --fast        skip the sanitizer rebuilds and clang-tidy; the lint +
#                 thread-safety half of the static stage always runs
#   --perf        also run the perf-labelled smoke benchmarks (SOFTCELL_SMOKE=1),
#                 the serving benchmark's correctness + ladder-ratio gate
#                 (scripts/serving_report.py) and bench_controller_micro's
#                 widest-row 2.0x thread-scaling gate
#   --static-only run ONLY the static stage (lint + analyze + their test
#                 suites + thread-safety build + clang-tidy): no configure,
#                 build, test, telemetry, scale or sanitizer stages.  The
#                 pre-commit loop for tooling/analysis changes.
set -uo pipefail
cd "$(dirname "$0")/.."

FAST=0
PERF=0
STATIC_ONLY=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    --perf) PERF=1 ;;
    --static-only) STATIC_ONLY=1 ;;
    *)
      echo "usage: $0 [--fast] [--perf] [--static-only]" >&2
      exit 2
      ;;
  esac
done

STAGE_NAMES=()
STAGE_RESULTS=()
FAILED=0

# run_stage <name> <cmd...>: runs the command, records PASS/FAIL, never
# aborts the script -- the summary and final exit code carry the verdict.
run_stage() {
  local name="$1"
  shift
  echo
  echo "=== ${name} ==="
  if "$@"; then
    STAGE_RESULTS+=("PASS")
  else
    STAGE_RESULTS+=("FAIL")
    FAILED=1
  fi
  STAGE_NAMES+=("$name")
}

# skip_stage <name> <reason>: records an explicit SKIP (shown in the
# summary, does not fail the run) for tools the environment lacks.
skip_stage() {
  echo
  echo "=== ${1} === SKIP (${2})"
  STAGE_NAMES+=("$1")
  STAGE_RESULTS+=("SKIP")
}

if [[ "$STATIC_ONLY" == 0 ]]; then
  run_stage "configure"        cmake -B build -S .
  run_stage "build"            cmake --build build -j
  run_stage "tests (full)"     bash -c 'cd build && ctest --output-on-failure -j'
fi

# --- static stage (softcell-verify) -----------------------------------------
# Part B first: the pure-Python linter and its fixture corpus run anywhere.
mkdir -p build
run_stage "static (lint src/)" python3 tools/softcell_lint.py \
  --report build/lint-report.json
run_stage "static (lint fixtures)" python3 tests/test_lint.py

# Part C: softcell-analyze (AST-grounded lifetime + lock-order checkers).
# The fixture/unit suite runs anywhere -- it drives the analyzer with
# hand-built clang-shaped dumps, no compiler needed.  Analyzing the real
# tree needs a clang++ whose -ast-dump=json the analyzer understands; the
# analyzer itself reports exit 3 when that probe fails, which this stage
# surfaces as SKIP (visible in the summary, never a silent pass).
run_stage "static (analyze unit+fixtures)" python3 tests/test_analyze.py
echo
echo "=== static (analyze src/) ==="
python3 tools/softcell_analyze.py src \
  --cache-dir build/analyze-cache --report build/analyze-report.json
analyze_rc=$?
STAGE_NAMES+=("static (analyze src/)")
if [[ "$analyze_rc" -eq 0 ]]; then
  STAGE_RESULTS+=("PASS")
elif [[ "$analyze_rc" -eq 3 ]]; then
  echo "SKIP (clang++ with JSON AST support not in PATH)"
  STAGE_RESULTS+=("SKIP")
else
  STAGE_RESULTS+=("FAIL")
  FAILED=1
fi

# Part A: the capability annotations only analyze under Clang.  GCC builds
# them as no-ops, so without a clang++ the stage is SKIP -- visible in the
# summary, never a silent pass.  Never skipped by --fast.
if command -v clang++ >/dev/null 2>&1; then
  run_stage "static (thread-safety build)" bash -c \
    'cmake -B build-tsa -S . -DCMAKE_CXX_COMPILER=clang++ &&
     cmake --build build-tsa -j'
else
  skip_stage "static (thread-safety build)" "no clang++ in PATH"
fi

# clang-tidy is the slowest static tool; --fast skips it (and only it).
# It needs the compile database from the configure stage, which
# --static-only does not produce.
if [[ "$FAST" == 1 ]]; then
  skip_stage "static (clang-tidy)" "--fast"
elif ! command -v clang-tidy >/dev/null 2>&1; then
  skip_stage "static (clang-tidy)" "no clang-tidy in PATH"
elif [[ ! -f build/compile_commands.json && ! -f build/CMakeCache.txt ]]; then
  skip_stage "static (clang-tidy)" "no build/ compile database (--static-only)"
else
  run_stage "static (clang-tidy)" bash -c \
    'find src -name "*.cpp" -print0 |
     xargs -0 clang-tidy -p build --warnings-as-errors="*" --quiet'
fi

if [[ "$STATIC_ONLY" == 1 ]]; then
  echo
  echo "=== tier-1 summary (static only) ==="
  for i in "${!STAGE_NAMES[@]}"; do
    printf '%-38s %s\n' "${STAGE_NAMES[$i]}" "${STAGE_RESULTS[$i]}"
  done
  exit "$FAILED"
fi

run_stage "tests (chaos)"    bash -c 'cd build && ctest --output-on-failure -L chaos'
run_stage "tests (cluster)"  bash -c 'cd build && ctest --output-on-failure -L cluster'
run_stage "tests (nofastpath)" bash -c 'cd build && ctest --output-on-failure -L nofastpath'

# --- telemetry stage ---------------------------------------------------------
# The telemetry-labelled tests in the default tree already ran inside
# "tests (full)"; this stage adds what that tree cannot check:
#   * the whole library builds with tracing compiled OUT (macro no-ops,
#     header-only stubs -- a missing gate shows up only here), and its
#     telemetry-labelled tests still pass (test_telemetry skips its tracing
#     cases, test_telemetry_off pins the stub guarantees);
#   * the disarmed-tracing overhead bench stays within its <=3% budget
#     (exit code) and emits machine-readable JSON.
run_stage "telemetry (off-mode build)" bash -c \
  'cmake -B build-notel -S . -DSOFTCELL_TELEMETRY=OFF &&
   cmake --build build-notel -j --target test_telemetry test_telemetry_off \
     bench_telemetry_overhead &&
   cd build-notel && ctest --output-on-failure -L telemetry'
run_stage "telemetry (overhead smoke)" bash -c \
  'SOFTCELL_SMOKE=1 ./build/bench/bench_telemetry_overhead \
     build/bench/SMOKE_telemetry.json &&
   python3 -c "import json,sys; d=json.load(open(\"build/bench/SMOKE_telemetry.json\")); sys.exit(0 if d[\"schema\"]==\"softcell-bench-1\" and d[\"results\"][0][\"within_budget\"] else 1)"'

# --- scale stage -------------------------------------------------------------
# The million-UE bench's smoke shape: the churned day replayed, its control
# fingerprint compared with the pinned golden (a mismatch is a nonzero
# exit), and the softcell-bench-1 envelope checked for the verdict fields.
run_stage "scale (smoke, golden fingerprint)" bash -c \
  'SOFTCELL_SMOKE=1 ./build/bench/bench_million_ue \
     build/bench/SMOKE_scale.json &&
   python3 -c "import json,sys; d=json.load(open(\"build/bench/SMOKE_scale.json\")); sys.exit(0 if d[\"schema\"]==\"softcell-bench-1\" and d[\"meta\"][\"fingerprint_matches_golden\"] and d[\"meta\"][\"ctrl_bytes_target_met\"] else 1)"'

run_stage "tests (net)" bash -c 'cd build && ctest --output-on-failure -L net'

if [[ "$PERF" == 1 ]]; then
  run_stage "bench (perf smoke)" bash -c 'cd build && ctest --output-on-failure -L perf'
  # The serving benchmark (perfbench: serverd over TCP, 1M UEs) on a short
  # fetch_1m run: every run correct with no failed request, and the runtime
  # stage within 0.7x of direct ShardBrain calls on two threads.  perfbench
  # needs 4 hardware threads (loop + 2 workers + generator); on a smaller
  # host the stage is SKIP, decided here because perfbench's own nonzero
  # exit also means a failed build.
  if [[ "$(nproc)" -lt 4 ]]; then
    skip_stage "bench (serving gate)" "nproc $(nproc) < 4, perfbench's thread budget"
  else
    run_stage "bench (serving gate)" python3 scripts/serving_report.py \
      --workload fetch_1m --seeds 1 --seconds 3 --out build/bench/PERF_serving.json
  fi
  # Paper section 6.2 thread sweep: the widest row that fits the host's
  # hardware threads must reach 2.0x the 1-thread rate (the bench's exit
  # code; wider rows are oversubscribed and not gated).
  run_stage "bench (controller scaling gate)" ./build/bench/bench_controller_micro
fi

if [[ "$FAST" == 0 ]]; then
  # Sanitizer rebuilds in their own trees; the chaos corpus is trimmed so
  # the instrumented runs stay in the seconds range.
  run_stage "asan configure" cmake -B build-asan -S . -DSOFTCELL_SANITIZE=address
  run_stage "asan build"     cmake --build build-asan -j
  run_stage "asan tests (concurrency|chaos|cluster|slab|shardbrain|net)" \
    bash -c 'cd build-asan && SOFTCELL_CHAOS_SEEDS=40 ctest --output-on-failure -L "concurrency|chaos|cluster|slab|shardbrain|net"'
  run_stage "tsan configure" cmake -B build-tsan -S . -DSOFTCELL_SANITIZE=thread
  run_stage "tsan build"     cmake --build build-tsan -j
  run_stage "tsan tests (concurrency|chaos|cluster|slab|shardbrain|net)" \
    bash -c 'cd build-tsan && SOFTCELL_CHAOS_SEEDS=25 ctest --output-on-failure -L "concurrency|chaos|cluster|slab|shardbrain|net"'
  run_stage "ubsan configure" cmake -B build-ubsan -S . -DSOFTCELL_SANITIZE=undefined
  run_stage "ubsan build"     cmake --build build-ubsan -j
  run_stage "ubsan tests (concurrency|chaos|cluster|slab|shardbrain|net)" \
    bash -c 'cd build-ubsan && SOFTCELL_CHAOS_SEEDS=40 ctest --output-on-failure -L "concurrency|chaos|cluster|slab|shardbrain|net"'
fi

echo
echo "=== tier-1 summary ==="
for i in "${!STAGE_NAMES[@]}"; do
  printf '%-38s %s\n' "${STAGE_NAMES[$i]}" "${STAGE_RESULTS[$i]}"
done

exit "$FAILED"
