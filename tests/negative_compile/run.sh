#!/usr/bin/env bash
# Negative-compile harness for the Clang thread-safety gate (docs/debugging.md
# "Static lock-discipline analysis").
#
# Each tests/negative_compile/case*.cc commits one lock-discipline violation
# against the REAL repo headers — unguarded field write, fault path without its
# shard, double shard acquire, release without acquire, shared hold where
# exclusive is required — and must be REJECTED by
# `clang++ -Werror=thread-safety`, with the rejection attributable to the
# thread-safety analysis (not a stray syntax error). positive_control.cc uses the
# same APIs correctly and must compile CLEAN, proving the annotations are present,
# non-vacuous, and not over-constraining.
#
# Requires clang++ (any version with -Wthread-safety). The container may only ship
# GCC — then this exits 77, which ctest maps to SKIPPED via SKIP_RETURN_CODE; the
# gate runs wherever clang is installed. Override the compiler with ODF_CLANG.
set -u -o pipefail

cd "$(dirname "$0")/../.."

CLANG="${ODF_CLANG:-clang++}"
if ! command -v "$CLANG" >/dev/null 2>&1; then
  echo "negative_compile: $CLANG not found; skipping (install clang to run this gate)"
  exit 77
fi

FLAGS=(-std=c++20 -fsyntax-only -I. -Wthread-safety -Werror=thread-safety)
FAIL=0

echo "== positive control (must compile clean) =="
if ! "$CLANG" "${FLAGS[@]}" tests/negative_compile/positive_control.cc; then
  echo "FAIL: positive_control.cc rejected — annotations over-constrain or are broken"
  FAIL=1
else
  echo "ok: positive_control.cc clean"
fi

echo "== violation cases (each must be rejected by the thread-safety analysis) =="
for case_file in tests/negative_compile/case*.cc; do
  if OUTPUT=$("$CLANG" "${FLAGS[@]}" "$case_file" 2>&1); then
    echo "FAIL: $case_file compiled but must be rejected"
    FAIL=1
  elif ! grep -q "thread-safety" <<<"$OUTPUT"; then
    echo "FAIL: $case_file rejected for the wrong reason (not thread-safety):"
    sed 's/^/    /' <<<"$OUTPUT"
    FAIL=1
  else
    echo "ok: $case_file rejected by -Werror=thread-safety"
  fi
done

if ((FAIL)); then
  echo "negative_compile: FAILED"
  exit 1
fi
echo "negative_compile: all $(ls tests/negative_compile/case*.cc | wc -l) violations rejected, control clean"
