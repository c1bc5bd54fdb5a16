#!/usr/bin/env python3
"""odf_lint: repo-specific static checks for the odf simulated kernel.

These rules complement the Clang thread-safety analysis (-Werror=thread-safety,
see docs/debugging.md "Static lock-discipline analysis"): the capability
annotations in src/util/thread_annotations.h prove hold-contracts the compiler
can see; the rules below encode the protocols it cannot — cross-function
ordering and which directory owns which primitive.

Rules (each suppressible per line with `// odf-lint: allow(<rule>)` on the
offending line or the line above it — always with a reason):

  raw-refcount
      PageMeta::refcount / PageMeta::pt_share_count may only be *mutated* inside
      src/phys/ (the FrameAllocator IncRef/DecRef/AddRefs/IncPtShare/DecPtShare
      family and their batch variants). Everywhere else a raw fetch_add/store on
      those counters bypasses the debug-vm underflow/saturation/freed-frame
      checks and the lockless-correctness story documented on the allocator API.

  naked-lock
      In the mm-critical directories (src/phys, src/pt, src/mm, src/core,
      src/proc, src/fs) plain std::lock_guard / unique_lock / scoped_lock /
      mutex.lock() are forbidden: those locks form the deadlock-relevant graph,
      so acquisitions must go through odf::debug::MutexGuard, which feeds the
      lockdep cycle detector in debug-vm builds (and compiles to exactly a
      std::lock_guard otherwise). Infrastructure below or beside the mm layer
      (src/util, src/trace, src/fi, src/debug itself) is exempt.

  raw-std-mutex
      Outside src/util/, lock primitives must be the annotated wrappers
      (odf::util::Mutex, SharedMutex, CondVar, MutexLock, ...): a raw
      std::mutex / std::shared_mutex / std::condition_variable or a std::
      lock adapter is invisible to the Clang thread-safety analysis, so
      every GUARDED_BY/REQUIRES contract downstream of it silently stops
      being checked. src/util/ itself is exempt — that is where the wrappers
      bottom out on the std primitives.

  gen-before-free
      In src/mm/ and src/reclaim/, dropping frame references after rewriting
      page-table entries (allocator.DecRef / DecRefBatch following a
      StoreEntry in the same function) requires a generation bump — an
      MmLockTable InvalidatePage/InvalidateRange/FlushAll — between the
      rewrite and the drop. "Gen before free" is the one load-bearing
      invariant of the lock-free read protocol (src/pt/mm_locks.h): a reader
      that pinned the old frame must fail its generation recheck before the
      frame can be freed and recycled. Paths exempt by construction (never-published
      frames, exclusive-gate eviction with a deferred flush) carry an allow
      with the argument.

  trace-outside-guard
      trace::Emit may only be called from the ODF_TRACE macro (src/trace). A
      direct call elsewhere records unconditionally, survives -DODF_TRACE=OFF
      builds, and breaks the zero-cost compile-out guarantee. (trace::Enabled
      is fine to call directly: it is constexpr false when compiled out.)

  missing-nodiscard
      A header-declared function whose unqualified name starts with `Try` and
      which returns non-void is a fallible API by repo convention (it reports
      failure through its return value — see docs/robustness.md). The
      declaration must carry [[nodiscard]] so ignoring the failure is a compile
      warning, not a silent leak.

  direct-writeback
      SwapSpace::TryWriteOut may only be called from src/reclaim/ and
      src/mm/swap.cc. Everywhere else, pushing a page to swap must go through
      the reclaim shrinker: a direct write-out bypasses the broadcast into
      every slot the sweep finds (other mappings keep referencing the freed
      frame) and the refcount test that guards it (docs/reclaim.md).

  table-mutex
      Kernel::table_mutex_ may only be named inside src/proc/kernel.cc (and its
      declaration in src/proc/kernel.h). After the lock-sharding refactor it
      protects exactly the pid -> Process map; any other file reaching for it is
      re-growing the global MM lock the sharded MmLockTable/MmGate design
      removed (docs/performance.md "Lock sharding & TLB generations").

  hwpoison-flag
      The poison/quarantine state machine (docs/memory-failure.md) has exactly
      two mutation surfaces: FrameAllocator::MarkHwPoison may be called from
      src/phys/ and the src/mf/ offline paths, and QuarantineLocked plus raw
      writes of kPageFlagHwPoison into PageMeta::flags belong to src/phys/
      alone. Anywhere else, setting the flag by hand skips the counter
      bookkeeping, the free-list diversion, and the allocated-vs-free
      quarantine timing the verifier's bijection checks depend on.

Output: one line per finding, `file:line:col: rule-id: message` (the format
compilers and editors parse), or a JSON array with --json. Fixture files under
tests/lint_fixtures/ are skipped by the default tree scan (they exist to be
dirty — tests/lint_selftest.py lints them explicitly).

Exit status: 0 when clean, 1 when any finding is reported, 2 on usage error.
"""

import argparse
import json
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Directories scanned at all (relative to the repo root).
SCAN_DIRS = ("src", "tests", "bench", "examples")

# Deliberately-dirty inputs: lint fixtures (tests/lint_selftest.py lints them
# explicitly) and the thread-safety negative-compile cases. Never part of the scan.
FIXTURE_DIR_NAME = "lint_fixtures"
EXCLUDED_DIR_NAMES = ("lint_fixtures", "negative_compile")

# naked-lock applies only where the mm lock graph lives.
LOCK_CHECKED_DIRS = (
    "src/phys",
    "src/pt",
    "src/mm",
    "src/core",
    "src/proc",
    "src/fs",
    "src/reclaim",
)

# gen-before-free applies where entry-rewrite-then-free sequences live.
GEN_CHECKED_DIRS = ("src/mm", "src/reclaim")

# direct-writeback: the only places allowed to push pages to the swap device.
WRITEBACK_ALLOWED = ("src/reclaim/", "src/mm/swap.cc")

ALLOW_RE = re.compile(r"//\s*odf-lint:\s*allow\(([a-z-]+)\)")

RAW_REFCOUNT_RE = re.compile(
    r"\.(?:refcount|pt_share_count)\s*\.\s*"
    r"(?:fetch_add|fetch_sub|store|exchange|compare_exchange\w*)\s*\("
)

NAKED_LOCK_RE = re.compile(
    r"std::(?:lock_guard|unique_lock|scoped_lock)\b|\.\s*(?:lock|unlock)\s*\(\s*\)"
)

# raw-std-mutex: the un-annotated primitives and their adapters.
RAW_STD_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_timed_mutex|condition_variable(?:_any)?|lock_guard|unique_lock|"
    r"shared_lock|scoped_lock)\b"
)

# gen-before-free: a frame-reference drop through the allocator...
GEN_FREE_RE = re.compile(r"\ballocator\s*(?:\.|->)\s*(?:DecRef|DecRefBatch)\s*\(")
# ... preceded in the same function by an entry rewrite ...
GEN_STORE_RE = re.compile(r"\bStoreEntry\s*\(")
# ... with no generation bump in between.
GEN_BUMP_RE = re.compile(
    r"\b(?:InvalidatePage|InvalidateRange|FlushAll)\s*\("
)
GEN_LOOKBACK = 60

TRACE_CALL_RE = re.compile(r"\btrace::Emit\s*\(")

WRITEBACK_RE = re.compile(r"(?:\.|->)TryWriteOut\s*\(")

# table-mutex: the process-table lock stays narrow; only kernel.cc may take it.
TABLE_MUTEX_RE = re.compile(r"\btable_mutex_\b")
TABLE_MUTEX_ALLOWED = ("src/proc/kernel.cc", "src/proc/kernel.h")

# hwpoison-flag: MarkHwPoison is the src/mf-facing accessor; QuarantineLocked and raw
# flag writes are allocator-internal.
HWPOISON_MARK_RE = re.compile(r"\bMarkHwPoison\s*\(")
HWPOISON_INTERNAL_RE = re.compile(
    r"\bQuarantineLocked\s*\(|\bflags\b[^=<>!()]*=[^=].*kPageFlagHwPoison"
)

# A Try* declaration line in a header: a return type token sequence followed by an
# UNqualified TryXxx( — qualified names (Foo::TryXxx) are definitions, and `.Try`/`->Try`
# are calls; neither takes the attribute.
TRY_DECL_RE = re.compile(
    r"^\s*(?:virtual\s+|static\s+|inline\s+|constexpr\s+|explicit\s+)*"
    r"(?P<ret>[A-Za-z_][A-Za-z0-9_:<>,\s*&]*?)\s+"
    r"(?P<name>Try[A-Z][A-Za-z0-9]*)\s*\("
)

# Function-boundary heuristic for backward scans: a closing brace or a definition
# opener at column zero ends the walk.
FUNC_BOUNDARY_RE = re.compile(r"^[}»]|^[A-Za-z_].*\)\s*(?:const\s*)?\{?\s*$")


def strip_strings_and_line_comment(line):
    """Crude but sufficient: drop string literals, then anything after //."""
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    cut = line.find("//")
    return line if cut < 0 else line[:cut]


def allowed(rule, lines, index):
    """True when line `index` (0-based) or the one above carries an allow for `rule`."""
    for i in (index, index - 1):
        if i < 0:
            continue
        match = ALLOW_RE.search(lines[i])
        if match and match.group(1) == rule:
            return True
    return False


def column_of(regex, raw, code):
    """1-based column of the first match, preferring the raw line (exact editor
    position) and falling back to the comment-stripped one."""
    match = regex.search(raw)
    if match is None:
        match = regex.search(code)
    return (match.start() + 1) if match else 1


def lint_file(rel_path, findings):
    path = os.path.join(REPO_ROOT, rel_path)
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()

    in_lock_dir = any(
        rel_path.startswith(d + os.sep) or rel_path.startswith(d + "/")
        for d in LOCK_CHECKED_DIRS
    )
    in_gen_dir = any(
        rel_path.startswith(d + os.sep) or rel_path.startswith(d + "/")
        for d in GEN_CHECKED_DIRS
    )
    in_phys = rel_path.startswith("src/phys/")
    in_mf = rel_path.startswith("src/mf/")
    in_trace = rel_path.startswith("src/trace/")
    in_debug = rel_path.startswith("src/debug/")
    in_util = rel_path.startswith("src/util/")
    is_fixture = FIXTURE_DIR_NAME in rel_path.split(os.sep) or (
        FIXTURE_DIR_NAME in rel_path.split("/")
    )
    writeback_ok = any(
        rel_path.startswith(d) if d.endswith("/") else rel_path == d
        for d in WRITEBACK_ALLOWED
    )
    is_header = rel_path.endswith(".h")

    # Fixtures opt into every directory-scoped rule so one file can exercise each.
    if is_fixture:
        in_lock_dir = in_gen_dir = True
        in_phys = in_mf = in_trace = in_debug = in_util = False
        writeback_ok = False

    # Pre-strip every line once: the backward-scanning rules need the stripped view
    # of earlier lines too (a "StoreEntry" in a comment must not count).
    stripped = []
    in_block_comment = False
    for raw in lines:
        line = raw
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                stripped.append("")
                continue
            line = line[end + 2:]
            in_block_comment = False
        if "/*" in line and "*/" not in line[line.find("/*"):]:
            line = line[: line.find("/*")]
            in_block_comment = True
        stripped.append(strip_strings_and_line_comment(line))

    for index, raw in enumerate(lines):
        code = stripped[index]
        if not code.strip():
            continue

        def report(rule, message, col):
            if not allowed(rule, lines, index):
                findings.append((rel_path, index + 1, col, rule, message))

        if not in_phys and RAW_REFCOUNT_RE.search(code):
            report(
                "raw-refcount",
                "raw refcount/pt_share_count mutation outside src/phys/ — use the "
                "FrameAllocator IncRef/DecRef/AddRefs/IncPtShare/DecPtShare APIs",
                column_of(RAW_REFCOUNT_RE, raw, code),
            )

        if in_lock_dir and NAKED_LOCK_RE.search(code):
            report(
                "naked-lock",
                "naked mutex primitive in an mm-critical directory — use "
                "odf::debug::MutexGuard so lockdep sees the acquisition",
                column_of(NAKED_LOCK_RE, raw, code),
            )

        if not in_util and RAW_STD_MUTEX_RE.search(code):
            report(
                "raw-std-mutex",
                "raw std lock primitive outside src/util/ — use odf::util::Mutex / "
                "SharedMutex / CondVar / MutexLock so the Clang thread-safety "
                "analysis sees the capability",
                column_of(RAW_STD_MUTEX_RE, raw, code),
            )

        if in_gen_dir and not is_header and GEN_FREE_RE.search(code):
            rewrote = False
            bumped_since_rewrite = False
            lo = max(0, index - GEN_LOOKBACK)
            for i in range(index - 1, lo - 1, -1):
                prev = stripped[i]
                if FUNC_BOUNDARY_RE.match(prev):
                    break
                if GEN_STORE_RE.search(prev):
                    rewrote = True
                    break  # Closest rewrite found; bumps scanned on the way here.
                if GEN_BUMP_RE.search(prev):
                    bumped_since_rewrite = True
            if rewrote and not bumped_since_rewrite:
                report(
                    "gen-before-free",
                    "frame references dropped after a StoreEntry with no generation "
                    "bump in between — bump the covered shard (MmLockTable "
                    "InvalidatePage/InvalidateRange/FlushAll) before the free so "
                    "lock-free readers fail their recheck (gen-before-free, "
                    "src/pt/mm_locks.h)",
                    column_of(GEN_FREE_RE, raw, code),
                )

        if not in_trace and TRACE_CALL_RE.search(code):
            report(
                "trace-outside-guard",
                "direct trace::Emit call outside src/trace — use the "
                "ODF_TRACE macro (compile-guarded and Enabled()-gated)",
                column_of(TRACE_CALL_RE, raw, code),
            )

        if rel_path not in TABLE_MUTEX_ALLOWED and TABLE_MUTEX_RE.search(code):
            report(
                "table-mutex",
                "Kernel::table_mutex_ referenced outside src/proc/kernel.cc — the "
                "process-table lock protects only the pid map; MM state is guarded "
                "by the per-AS MmLockTable and MmGate",
                column_of(TABLE_MUTEX_RE, raw, code),
            )

        if not writeback_ok and WRITEBACK_RE.search(code):
            report(
                "direct-writeback",
                "direct SwapSpace::TryWriteOut call outside src/reclaim/ — evict "
                "through the shrinker so every mapping of the frame is rewritten",
                column_of(WRITEBACK_RE, raw, code),
            )

        if not (in_phys or in_mf) and HWPOISON_MARK_RE.search(code):
            report(
                "hwpoison-flag",
                "MarkHwPoison call outside src/phys/ and src/mf/ — poisoning a "
                "frame without the offline protocol leaves mappings pointing at "
                "a quarantine-bound frame",
                column_of(HWPOISON_MARK_RE, raw, code),
            )
        if not in_phys and HWPOISON_INTERNAL_RE.search(code):
            report(
                "hwpoison-flag",
                "quarantine/poison-flag mutation outside src/phys/ — go through "
                "FrameAllocator::MarkHwPoison so the counters, free-list "
                "diversion, and verifier bijection stay consistent",
                column_of(HWPOISON_INTERNAL_RE, raw, code),
            )

        if is_header and not in_debug:
            decl = TRY_DECL_RE.match(code)
            specifiers = ("void", "return", "explicit", "static", "inline",
                          "virtual", "constexpr")
            if decl and decl.group("ret").split()[-1] not in specifiers:
                has_attr = "[[nodiscard]]" in raw or (
                    index > 0 and "[[nodiscard]]" in lines[index - 1]
                )
                if not has_attr:
                    report(
                        "missing-nodiscard",
                        f"fallible API {decl.group('name')}() returns a value but is "
                        "not [[nodiscard]]",
                        decl.start("name") + 1,
                    )


def collect_files():
    for top in SCAN_DIRS:
        base = os.path.join(REPO_ROOT, top)
        if not os.path.isdir(base):
            continue
        for root, dirs, names in os.walk(base):
            dirs[:] = [d for d in dirs if d not in EXCLUDED_DIR_NAMES]
            for name in sorted(names):
                if name.endswith((".h", ".cc")):
                    yield os.path.relpath(os.path.join(root, name), REPO_ROOT)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", help="specific files (default: whole tree)")
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit findings as a JSON array of "
        "{file, line, col, rule, message} objects",
    )
    args = parser.parse_args()

    files = args.files or sorted(collect_files())
    findings = []
    for rel_path in files:
        if not os.path.isfile(os.path.join(REPO_ROOT, rel_path)):
            print(f"odf_lint: no such file: {rel_path}", file=sys.stderr)
            return 2
        lint_file(rel_path, findings)

    if args.json:
        print(
            json.dumps(
                [
                    {
                        "file": rel_path,
                        "line": line,
                        "col": col,
                        "rule": rule,
                        "message": message,
                    }
                    for rel_path, line, col, rule, message in findings
                ],
                indent=2,
            )
        )
        return 1 if findings else 0

    for rel_path, line, col, rule, message in findings:
        print(f"{rel_path}:{line}:{col}: {rule}: {message}")
    if findings:
        print(f"odf_lint: {len(findings)} finding(s) in {len(files)} file(s)")
        return 1
    print(f"odf_lint: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
