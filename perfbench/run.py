#!/usr/bin/env python3
"""Builds the benchmark harness and the shipped offchip-serve from source,
then runs the harness with the given arguments.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table2-c --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default: .bench_build in the checkout).
Cargo's messages go to stderr; stdout carries only the harness's output,
whose last line is the JSON result. A failed build exits 2 without a result.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    target = os.path.join(root, target) if not os.path.isabs(target) else target
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(here, "Cargo.toml"),
        "-p", "perfbench", "-p", "offchip-serve", "--bins",
    ]
    try:
        done = subprocess.run(build, env=env, stdout=sys.stderr, cwd=root)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return 2
    if done.returncode != 0:
        print(f"perfbench: build failed (exit {done.returncode})", file=sys.stderr)
        return 2
    harness = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    os.execve(harness, [harness] + sys.argv[1:], env)
    return 2  # not reached: execve replaces this process


if __name__ == "__main__":
    sys.exit(main())
