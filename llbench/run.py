#!/usr/bin/env python3
"""Builds and runs the llbackup benchmark (llbench).

Run from the repository root:

    python3 llbench/run.py --workload oltp --seed 1 --seconds 10 --trace 0
    python3 llbench/run.py --self-test

The first run configures and builds the engine library from src/ and the
benchmark program from llbench/ into $CARGO_TARGET_DIR/llbench (default
.bench_build/llbench); later runs rebuild incrementally. The program's stdout
is passed through: report lines start with '#', and the last line is the
JSON result. Span dumps and full results go to .bench_out/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "llbench")
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print("llbench/run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "llbench")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the engine sources (src/) are missing next to llbench/")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", bdir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target"] +
                   targets, stdout=sys.stderr, check=True)
    return bdir


def source_id():
    """git commit when the checkout is a git repository, plus a digest of
    the sources the benchmark builds (the checkout may not be one)."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "llbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "git:%s src-sha256:%s" % (commit, digest.hexdigest()[:16])


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    if args.self_test:
        bdir = build(["llbench_test"])
        sys.exit(subprocess.run([os.path.join(bdir, "llbench_test")]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("need --workload, --seed, --seconds and --trace", 64)

    bdir = build(["llbench"])
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(bdir, "llbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--commit", source_id()]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("llbench did not finish within %d s" % RUN_TIMEOUT_S, 1)
    if run.returncode != 0:
        fail("llbench exited with code %d" % run.returncode, 1)

    lines = run.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail("metrics disagree with BENCHMARK.json: missing %s, extra %s, "
             "or units differ" % (missing, extra), 1)
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
