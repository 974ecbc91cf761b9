#!/usr/bin/env python3
"""Build and run the SCIDIVE benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload udp-mixed --seed 1 --seconds 20 --trace 0

The Go program in this directory is built from source into the build
directory (CARGO_TARGET_DIR if set, else .bench_build under the checkout
root), with every Go cache and config directory kept inside it, and then
run with the same arguments. With --trace 1 the spans of the traced run
are written to <build dir>/spans-<workload>.csv. The last line of standard
output is the result object; see perfbench/doc.go.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv):
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(ROOT, build)
    os.makedirs(build, exist_ok=True)
    home = os.path.join(build, "home")
    gopath = os.path.join(build, "gopath")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go-cache"),
        "GOPATH": gopath,
        "GOMODCACHE": os.path.join(gopath, "pkg", "mod"),
        "GOENV": "off",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
    })
    go = shutil.which("go") or os.path.join(os.environ.get("GOROOT", "/usr/local/go"), "bin", "go")
    binary = os.path.join(build, "perfbench")
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed (run from a full checkout of the repository)", file=sys.stderr)
        return built.returncode or 1

    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        workload = "udp-mixed"
        if "--workload" in args:
            workload = args[args.index("--workload") + 1]
        args += ["--spans", os.path.join(build, "spans-%s.csv" % workload)]
    return subprocess.run([binary] + args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
