#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload clique4-lj-chan --seed 1 --seconds 30 --trace 0

The Go program in this directory is built into .bench_build/ with the Go build
cache and the Go tool's configuration directory (where it keeps telemetry
counters) kept there too, so the run reads and writes only inside the
checkout.
All arguments are passed to the program; its exit code is this script's.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    binary = os.path.join(BUILD, "perfbench")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, timeout=840)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    proc = subprocess.run([binary, "--out", BUILD] + sys.argv[1:], cwd=ROOT, timeout=175)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
