#!/usr/bin/env python3
"""Builds the benchmark package and runs one timed or traced run.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload grid_cold|mesh_cold|warm_all|all \
        [--seed N] [--seconds N] [--trace 0|1]

The build goes to $CARGO_TARGET_DIR (default .bench_build). `--trace 0`
runs the perfbench-timed binary (end-to-end metrics), `--trace 1` the
perfbench-traced one (per-layer metrics, counting allocator installed).
The last line of standard output is the JSON result. Exit codes: 0 all
output checks passed, 1 an output check or replication failed, 2 the
benchmark could not build or run (no result printed).
"""

import os
import subprocess
import sys


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return 2
    traced = "--trace" in argv and argv.index("--trace") + 1 < len(argv) \
        and argv[argv.index("--trace") + 1] == "1"
    binary = os.path.join(target, "release",
                          "perfbench-traced" if traced else "perfbench-timed")
    return subprocess.run([binary] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
