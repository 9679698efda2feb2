#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload whatif --seed 1 --seconds 10 --trace 0

Builds the benchmark (a Go module of its own that uses the repository's
packages through a replace directive) into .bench_build/, with every Go
cache kept there too, then runs it with the given arguments. The last
line of standard output is the result as one JSON object. Outside a full
checkout the build fails and this exits non-zero without a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "gotmp"),
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOENV="off",
    )
    binary = os.path.join(build, "perfbench", "perfbench")
    os.makedirs(os.path.dirname(binary), exist_ok=True)
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    out = os.path.join(build, "perfbench")
    return subprocess.run([binary, "-out", out] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
