#!/usr/bin/env python3
"""Run one workload of the ccsa benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the library, the ccsa_worker
binary and the benchmark binary ccsa_perfbench from source into the
directory named by $CARGO_TARGET_DIR (default .bench_build), then runs
it. The last line of stdout is the result JSON; per-run details (build
info, phase counts, chrome traces) are written under .bench_out/.
Exits non-zero without a result when the build or the run fails.

    python3 perfbench/run.py --self-test    # build and run the input tests
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("commit_cold", "rank_hot", "rank_hot_ipc", "retrain")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir, targets):
    """Build the targets, configuring first when the build directory
    cannot build yet; output goes to stderr."""
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                 "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    make = ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
            "--target", *targets]
    if subprocess.run(make, stdout=sys.stderr,
                      stderr=subprocess.DEVNULL).returncode == 0:
        return
    subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(make, check=True, stdout=sys.stderr)


def source_digest():
    """sha256 over the library and benchmark sources, so a result
    names the code that ran even outside a git checkout."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    """HEAD when ROOT is itself a git checkout, else "none"."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "none"
    return lines[1]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        if args.self_test:
            build(build_dir, ["perfbench_test_inputs"])
            return subprocess.run(
                [os.path.join(build_dir, "perfbench_test_inputs")]).returncode
        build(build_dir, ["ccsa_perfbench", "ccsa_worker"])
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed:", e)
        return 1

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "ccsa_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--worker", os.path.join(build_dir, "ccsa", "ccsa_worker"),
           "--out", out_dir, "--commit", git_commit(),
           "--source-digest", source_digest()]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded", RUN_TIMEOUT_S, "s")
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines[-1].startswith('{"correct"'):
        sys.stderr.write(run.stdout)
        log("perfbench: ccsa_perfbench exited", run.returncode, "without a result")
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
