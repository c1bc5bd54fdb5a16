#!/usr/bin/env bash
# ci/check.sh — the repo's full verification gate. Builds and tests every
# configuration that must stay green, then runs the static checks. Any failure
# exits nonzero; run this before merging.
#
#   ./ci/check.sh            # everything
#   ./ci/check.sh default    # one preset only (any configure-preset name)
#   ODF_CHECK_JOBS=4 ./ci/check.sh
#
# Presets covered (see CMakePresets.json):
#   default       RelWithDebInfo, full ctest suite (the tier-1 gate)
#   asan-ubsan    Debug + ASan/UBSan, full suite
#   tsan          ThreadSanitizer, concurrency-labeled suites
#   fault-inject  RelWithDebInfo + fault injection, full suite (includes torture)
#   debug-vm      invariant checkers armed: VM_BUG_ON, poisoning, lockdep, auto-verify
# Static checks:
#   scripts/odf_lint.py      repo-specific rules (see its docstring)
#   clang-tidy               over src/ when the binary exists (skipped otherwise —
#                            the container image may not ship it)
# Benchmark:
#   perfbench/selftest.py    every BENCHMARK.json workload at tiny size (`perfbench`)
#
# The run ends with a "gates NOT exercised" section naming every gate that skipped on this
# toolchain (no clang++, no clang-tidy, a label or preset that selected zero tests). Skips
# do not change the exit status; the section is there so a green run cannot hide them.

set -u -o pipefail

cd "$(dirname "$0")/.."

JOBS="${ODF_CHECK_JOBS:-$(nproc 2>/dev/null || echo 4)}"
ONLY="${1:-}"
FAILURES=()
NOT_EXERCISED=()

note() { printf '\n==== %s ====\n' "$*"; }

# Records a gate that did not run on this toolchain (reported at the end).
not_exercised() {
  echo "$1"
  NOT_EXERCISED+=("$1")
}

# Number of tests a ctest invocation would run (its arguments select them).
test_count() {
  ctest "$@" -N 2>/dev/null | sed -n 's/^Total Tests: *//p'
}

# One ctest label slice of the default build. A label that selects no test is reported as
# not exercised instead of passing silently.
run_label() {
  local label="$1"
  note "$label label (default preset)"
  if [[ "$(test_count --test-dir build -L "$label")" == "0" ]]; then
    not_exercised "$label label: no tests selected"
    return 0
  fi
  if ! ctest --test-dir build -L "$label" --output-on-failure; then
    FAILURES+=("$label label")
  fi
}

run_preset() {
  local preset="$1"
  if [[ -n "$ONLY" && "$ONLY" != "$preset" ]]; then
    return 0
  fi
  note "preset $preset: configure"
  if ! cmake --preset "$preset" >/dev/null; then
    FAILURES+=("$preset: configure"); return 1
  fi
  note "preset $preset: build"
  if ! cmake --build --preset "$preset" -j "$JOBS"; then
    FAILURES+=("$preset: build"); return 1
  fi
  note "preset $preset: test"
  if [[ "$(test_count --preset "$preset")" == "0" ]]; then
    not_exercised "preset $preset: no tests selected"
    return 0
  fi
  if ! ctest --preset "$preset"; then
    FAILURES+=("$preset: test"); return 1
  fi
}

run_preset default

# The reclaim slice again, by itself: `ctest -L reclaim` must stay a usable
# developer entry point (docs/reclaim.md), so CI exercises the label filter too.
if [[ -z "$ONLY" || "$ONLY" == "default" ]]; then
  run_label reclaim
fi

# Flight recorder + deterministic replay (docs/replay.md): the labeled suite, then the
# end-to-end determinism gate — record a mixed fork/fault/reclaim workload, replay it
# against a fresh kernel, and fail on any divergence in op outcomes, final memory digests,
# refcounts, or vmstat counters.
if [[ -z "$ONLY" || "$ONLY" == "default" ]]; then
  run_label replay
  note "replay determinism gate (odf-replay selftest)"
  if ! ./build/src/replay/odf-replay selftest build/odf-replay-selftest.odflog; then
    FAILURES+=("replay selftest")
  fi
fi

# Lock-sharding smoke (docs/performance.md "Lock sharding & TLB generations"): the fig09b
# bench in fast mode drives K faulting threads in parallel over disjoint ranges of ONE
# shared address space — a multi-threaded end-to-end pass through the sharded AS locks,
# the translation cache, and TLB generations that the unit suites exercise piecewise. Any
# refcount/ordering bug on those paths trips an ODF_CHECK/AllFree abort here.
if [[ -z "$ONLY" || "$ONLY" == "default" ]]; then
  note "fig09b multi-thread smoke (default preset, ODF_BENCH_FAST=1)"
  if ! ODF_BENCH_FAST=1 ODF_BENCH_JSON=0 ./build/bench/fig09b_concurrent_faults; then
    FAILURES+=("fig09b smoke")
  fi
fi

# Profiled-copy smoke: fig03 is the one bench that forks with a ForkProfile, so this runs the
# TimedCopyProfile instantiation of the shared PTE copier (src/mm/range_ops.h) end to end.
if [[ -z "$ONLY" || "$ONLY" == "default" ]]; then
  note "fig03 profiled-fork smoke (default preset, ODF_BENCH_FAST=1)"
  if ! ODF_BENCH_FAST=1 ODF_BENCH_JSON=0 ./build/bench/fig03_fork_profile; then
    FAILURES+=("fig03 smoke")
  fi
fi

# The repo benchmark's self-test (BENCHMARK.json, perfbench/): every workload at tiny size
# must pass its correctness checks and emit exactly the declared metrics. It builds its own
# tree (.bench_build/) on first use.
if [[ -z "$ONLY" || "$ONLY" == "perfbench" ]]; then
  note "perfbench self-test (all workloads, tiny size)"
  if ! python3 perfbench/selftest.py; then
    FAILURES+=("perfbench selftest")
  fi
fi

# Memory failure (docs/memory-failure.md): the labeled suite by itself — hard/soft
# offline, containment through shared ODF tables, quarantine permanence, the poisoned-PTE
# fault contract — must stay a usable developer entry point like the other labels.
if [[ -z "$ONLY" || "$ONLY" == "default" ]]; then
  run_label hwpoison
fi

# The recorder must stay fully compileable-out: -DODF_REPLAY=OFF folds every OpScope to
# nothing, and the tree (library, benches, tests) still builds. Build-only — the runtime
# suites run with the recorder compiled in above.
if [[ -z "$ONLY" || "$ONLY" == "replay-off" ]]; then
  note "replay-off: configure + build (-DODF_REPLAY=OFF)"
  if ! cmake -B build-replay-off -DCMAKE_BUILD_TYPE=RelWithDebInfo -DODF_REPLAY=OFF >/dev/null; then
    FAILURES+=("replay-off: configure")
  elif ! cmake --build build-replay-off -j "$JOBS"; then
    FAILURES+=("replay-off: build")
  fi
fi

# Memory failure must stay compileable-out the same way: -DODF_MEMORY_FAILURE=OFF makes
# the offline entry points return kNotSupported and drops the ECC hook, and the tree
# still builds. Build-only — the runtime suites run with the subsystem compiled in above.
if [[ -z "$ONLY" || "$ONLY" == "mf-off" ]]; then
  note "mf-off: configure + build (-DODF_MEMORY_FAILURE=OFF)"
  if ! cmake -B build-mf-off -DCMAKE_BUILD_TYPE=RelWithDebInfo -DODF_MEMORY_FAILURE=OFF >/dev/null; then
    FAILURES+=("mf-off: configure")
  elif ! cmake --build build-mf-off -j "$JOBS"; then
    FAILURES+=("mf-off: build")
  fi
fi

# Static lock-discipline verification (docs/debugging.md): when a clang++ is on PATH,
# build the default configuration with the thread-safety analysis promoted to errors —
# every GUARDED_BY/REQUIRES/scoped-capability contract in the tree is checked at compile
# time — then run the negative-compile harness, which proves the gate actually rejects
# the five violation classes (and accepts the positive control). Both self-skip on
# GCC-only containers; the annotations compile to nothing there.
if [[ -z "$ONLY" || "$ONLY" == "thread-safety" ]]; then
  if command -v clang++ >/dev/null 2>&1; then
    note "thread-safety: clang build with -Werror=thread-safety"
    if ! cmake -B build-clang-tsa -DCMAKE_BUILD_TYPE=RelWithDebInfo \
         -DCMAKE_CXX_COMPILER=clang++ -DODF_THREAD_SAFETY_ANALYSIS=ON >/dev/null; then
      FAILURES+=("thread-safety: configure")
    elif ! cmake --build build-clang-tsa -j "$JOBS"; then
      FAILURES+=("thread-safety: build")
    fi
  else
    not_exercised "clang -Werror=thread-safety build: clang++ not installed"
  fi
  note "thread-safety: negative-compile harness"
  bash tests/negative_compile/run.sh
  NEG_STATUS=$?
  if [[ $NEG_STATUS -eq 77 ]]; then
    not_exercised "negative_compile: skipped (no clang++)"
  elif [[ $NEG_STATUS -ne 0 ]]; then
    FAILURES+=("thread-safety: negative-compile harness")
  fi
fi

run_preset asan-ubsan
# The tsan preset IS the concurrency-under-TSan gate: its ctest preset filters to the
# `concurrency` label (frame_cache_test, concurrency_test — the disjoint-fault/overlapping-
# fork/kswapd stress and the concurrent-replay determinism test ride on that label).
run_preset tsan
run_preset fault-inject
run_preset debug-vm

if [[ -z "$ONLY" || "$ONLY" == "lint" ]]; then
  note "odf_lint"
  if ! python3 scripts/odf_lint.py; then
    FAILURES+=("odf_lint")
  fi

  note "clang-tidy"
  if command -v clang-tidy >/dev/null 2>&1; then
    # compile_commands.json comes from the default preset, which configures with
    # CMAKE_EXPORT_COMPILE_COMMANDS=ON — no separate reconfigure. Generate it first
    # if this invocation runs the lint slice alone.
    if [[ ! -f build/compile_commands.json ]] && ! cmake --preset default >/dev/null; then
      FAILURES+=("clang-tidy: configure")
    else
      mapfile -t TIDY_SOURCES < <(find src -name '*.cc' | sort)
      if ! clang-tidy -p build --quiet "${TIDY_SOURCES[@]}"; then
        FAILURES+=("clang-tidy")
      fi
    fi
  else
    not_exercised "clang-tidy: not installed (install it to enable this gate)"
  fi
fi

note "gates NOT exercised"
if ((${#NOT_EXERCISED[@]})); then
  printf '  %s\n' "${NOT_EXERCISED[@]}"
else
  echo "  (none)"
fi

if ((${#FAILURES[@]})); then
  note "FAILED"
  printf '  %s\n' "${FAILURES[@]}"
  exit 1
fi
note "all checks passed"
