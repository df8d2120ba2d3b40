#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the repository root.

    python3 perfbench/run.py --workload debug-loop --seed 1 --seconds 15 --trace 0

Builds the Go program in perfbench/ (its own module, which imports the
repository's packages through a replace directive) into .bench_build/,
with the Go build cache, module path and Go's config directory all kept
under .bench_build/ so the run reads and writes nothing outside the
checkout besides the Go toolchain itself. Then runs it with the given
arguments; the last line of its standard output is the result JSON.
Exits non-zero, without a result, if the build fails.
"""

import os
import shutil
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    out = os.path.join(root, ".bench_build")
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    go = shutil.which("go", path=env.get("PATH", "") + os.pathsep + "/usr/local/go/bin")
    if go is None:
        print("perfbench: go toolchain not found", file=sys.stderr)
        return 2
    binary = os.path.join(out, "perfbench")
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=bench, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run = subprocess.run([binary, "--workdir", out] + sys.argv[1:], cwd=root, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
