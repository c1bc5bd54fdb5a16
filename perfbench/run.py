#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench, together with the library from src/,
into .bench_build/perfbench; later calls only rebuild what changed. Build output goes to
stderr. The benchmark's own output goes to stdout, and its last line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}. With --trace 0 the
metrics are the end-to-end metrics, with --trace 1 the per-layer metrics (and the span
log is written to .bench_build/spans/<workload>.csv). See perfbench/NOTES.md.

Self-test options: --size tiny runs a workload at a size where nothing is steady but
every path runs; --corrupt-model makes one expected value wrong on purpose.
"""
import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "odf_perfbench")
WORKLOADS = ["kv-snapshot", "fork-server", "fork-server-classic", "overcommit"]


def build():
    """Configures (once) and builds the benchmark binary. Raises on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "odf_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)


def source_identity():
    """Returns (source id, dirty flag) for the provenance record.

    In a git checkout that is the commit and whether tracked files differ from it.
    Elsewhere it is a digest of the sources the benchmark builds from.
    """
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, check=True).stdout.strip()
            status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                     "--untracked-files=no"],
                                    capture_output=True, text=True, check=True).stdout
            return "git:" + sha, "1" if status.strip() else "0"
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, _, files in sorted(os.walk(os.path.join(ROOT, top))):
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16], "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--corrupt-model", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    source, dirty = source_identity()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace, "--size", args.size,
               "--source", source, "--dirty", dirty]
    if args.corrupt_model:
        command.append("--corrupt-model")
    if args.trace == "1":
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out", os.path.join(spans_dir, args.workload + ".csv")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
