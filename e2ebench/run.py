#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

    python3 e2ebench/run.py --workload lj --seed 1 --seconds 20 --trace 0

The engine and the benchmark program are built with CMake into
.bench_build/e2ebench at the repository root (incrementally after the
first run); build output goes to stderr. The program's
stdout is passed through, so the last line is the result JSON.
Exits non-zero without a result when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "e2ebench", "-j", jobs]]
    # Compiler temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        # Build chatter must not reach stdout, whose last line is the
        # result.
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                       check=True, timeout=BUILD_TIMEOUT_S)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    try:
        result = subprocess.run([os.path.join(BUILD, "e2ebench")]
                                + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: run timed out", file=sys.stderr)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
