#!/usr/bin/env python3
"""Builds the served range-search benchmark from this checkout and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
repository's libraries plus the perfbench binary (Release) under
.bench_build/perfbench (or under $CARGO_TARGET_DIR/perfbench when that is
set); later runs only re-check the build. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Each of these silently changes the program under measurement.
GUARDED_ENV = (
    "RSSE_GGM_PRG", "RSSE_MMAP", "RSSE_SHARDS", "RSSE_SEARCH_THREADS",
    "RSSE_BUILD_THREADS", "RSSE_NO_AVX2", "RSSE_NO_AVX512", "RSSE_FAILPOINTS",
)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    out = build_dir()
    binary = os.path.join(out, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "oracle_test", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return None
    return binary


def main(argv):
    set_vars = [v for v in GUARDED_ENV if v in os.environ]
    if set_vars:
        print("perfbench: refusing to run with %s set: it changes the "
              "program under measurement" % ", ".join(set_vars),
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "server.h")):
        print("perfbench: repository sources not found next to %s" % HERE,
              file=sys.stderr)
        return 2
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([binary] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
