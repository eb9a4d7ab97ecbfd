#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Go build cache, temporary files and the binary stay under .bench_build
in the checkout. The arguments are passed to the benchmark unchanged; its
exit code is this script's.
"""
import os
import subprocess
import sys

root = os.getcwd()
here = os.path.dirname(os.path.abspath(__file__))
build = os.path.join(root, ".bench_build")
tmp = os.path.join(build, "tmp")
os.makedirs(tmp, exist_ok=True)

env = dict(os.environ)
env.update({
    "GOCACHE": os.path.join(build, "gocache"),
    "GOMODCACHE": os.path.join(build, "gomodcache"),
    "GOPATH": os.path.join(build, "gopath"),
    "XDG_CONFIG_HOME": os.path.join(build, "config"),
    "GOTMPDIR": tmp,
    "TMPDIR": tmp,
    "GOTOOLCHAIN": "local",
    "GOPROXY": "off",
    "GOWORK": "off",
})
binary = os.path.join(build, "perfbench")
built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
if built.returncode != 0:
    print("perfbench: build failed", file=sys.stderr)
    sys.exit(1)
sys.exit(subprocess.run([binary] + sys.argv[1:], env=env).returncode)
