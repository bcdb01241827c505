#!/usr/bin/env python3
"""Build the benchmark and run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds this directory's cargo package (its own workspace, depending on
the engine's crates by path) in release mode, then runs it with the given
arguments. Cargo's output goes to standard error, so the last line of
standard output is the benchmark's JSON result. Honours CARGO_TARGET_DIR.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def main():
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(target, "release", "perfbench")
    try:
        # On timeout, run() kills the benchmark and waits for it to end.
        return subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
