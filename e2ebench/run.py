#!/usr/bin/env python3
"""Builds and runs the dynagg end-to-end benchmark.

Run from the root of a dynagg checkout:

    python3 e2ebench/run.py --workload pushsum_1m --seed 1 --seconds 12 --trace 0
    python3 e2ebench/run.py --validate-only
    python3 e2ebench/run.py --self-test
    python3 e2ebench/run.py --all --seed 1 --seconds 12

The first call configures and builds the benchmark (and the dynagg library
it links) under .bench_build/ in the checkout, or under $CARGO_TARGET_DIR
when that is set; later calls only rebuild what changed. Build output goes
to standard error, so the last line of standard output is the benchmark's
JSON result. --all runs every workload with tracing off and then on, which
prints every end-to-end and per-layer metric by name with its unit.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["pushsum_1m", "membership_churn", "heavy_hitters_zipf",
             "async_loss"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build(targets):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    for target in targets:
        if not run_quiet(["cmake", "--build", out, "-j", jobs,
                          "--target", target]):
            return None
    return out


def main(argv):
    if "--self-test" in argv:
        out = build(["e2ebench_selftest"])
        if out is None:
            return 1
        return subprocess.run([os.path.join(out, "e2ebench_selftest")]).returncode
    out = build(["e2ebench"])
    if out is None:
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(out, "e2ebench")
    if "--all" in argv:
        rest = [a for a in argv if a != "--all"]
        status = 0
        for trace in ("0", "1"):
            for workload in WORKLOADS:
                status |= subprocess.run(
                    [binary, "--workload", workload, "--trace", trace] + rest
                ).returncode
        return status
    args = list(argv)
    traced = "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]
    if traced and "--workload" in args and "--spans-out" not in args:
        # The traced pass writes its spans next to the build.
        workload = args[args.index("--workload") + 1]
        seed = args[args.index("--seed") + 1] if "--seed" in args else "1"
        spans = os.path.join(os.path.dirname(out), "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans-out",
                 os.path.join(spans, workload + "-seed" + seed)]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
