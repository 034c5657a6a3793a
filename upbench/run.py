#!/usr/bin/env python3
"""Builds and runs the upsimd end-to-end benchmark.

Run from the repository root:

    python3 upbench/run.py --workload campus-read --seed 1 --seconds 30 --trace 0
    python3 upbench/run.py --selftest

The first run configures and builds upbench/ (the upsim library, upsimd and
the benchmark program `upbench`, Release) into .bench_build/upbench; later
runs only check that the build is current.  The last stdout line of
`upbench` is the JSON result, and its exit code is the exit code.
README.md describes workloads and metrics.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BENCH = ROOT / "upbench"
BUILD = ROOT / ".bench_build" / "upbench"
TARGETS = ["upsimd", "upbench", "upbench_selftest"]


def fail(message):
    print("upbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no upsim sources under ./src; run from the repository root")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target"]
                 + TARGETS)
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                sys.stderr.write(log_path.read_text()[-4000:])
                fail("build failed (full log: %s)" % log_path)


def source_digest():
    """Commit id when the tree is a git checkout, else a digest of the
    sources the benchmark builds."""
    try:
        if not (ROOT / ".git").exists():
            raise OSError("not a git checkout")
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    files = sorted(p for d in ("src", "upbench") for p in (ROOT / d).rglob("*")
                   if p.is_file())
    files.append(ROOT / "examples" / "upsimd.cpp")
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.selftest:
        sys.exit(subprocess.call([str(BUILD / "upbench_selftest")]))
    out_dir = BUILD / "out"
    out_dir.mkdir(exist_ok=True)
    sys.stdout.flush()
    sys.exit(subprocess.call([
        str(BUILD / "upbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--upsimd", str(BUILD / "upsimd"),
        "--out-dir", str(out_dir),
        "--layers", str(BENCH / "layers.json"),
        "--commit", source_digest(),
    ]))


if __name__ == "__main__":
    main()
