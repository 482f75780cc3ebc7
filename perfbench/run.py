#!/usr/bin/env python3
"""Build the daemon, the gateway and the benchmark's load generator from source,
then run one benchmark workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload cold_compile --seed 1 --seconds 30 --trace 0

Everything the build and the run write stays under .bench_build/ in the
checkout: the Go build cache, the binaries, temp dirs and trace files.
The last line of standard output is the JSON result.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")
BENCH = os.path.join(ROOT, "perfbench")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        TMPDIR=os.path.join(BUILD, "tmp"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def build(env, cwd, out, pkgs):
    cmd = ["go", "build", "-o", out] + pkgs
    res = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    args = sys.argv[1:]
    trace = "0"
    for i, a in enumerate(args[:-1]):
        if a == "--trace":
            trace = args[i + 1]
    for need in ("go.mod", os.path.join("cmd", "bisramgend"), os.path.join("cmd", "bisramgate")):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.exit("perfbench: run from the repository root (missing %s)" % need)
    env = go_env()
    for d in (BIN, env["TMPDIR"]):
        os.makedirs(d, exist_ok=True)
    build(env, ROOT, BIN + os.sep, ["./cmd/bisramgend", "./cmd/bisramgate"])
    build(env, BENCH, os.path.join(BIN, "loadgen"), ["./loadgen"])
    if trace == "1":
        build(env, BENCH, os.path.join(BIN, "layers"), ["./layers"])
    gen_args = [a.replace("--", "-", 1) if a.startswith("--") else a for a in args]
    os.environ["TMPDIR"] = env["TMPDIR"]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if res.returncode == 0:
            os.environ["BENCH_COMMIT"] = res.stdout.strip()
    os.execv(os.path.join(BIN, "loadgen"),
             ["loadgen"] + gen_args + ["-bin", BIN, "-tmp", os.path.join(BUILD, "tmp"),
                                       "-out", os.path.join(BUILD, "trace"),
                                       "-layers", os.path.join(BIN, "layers"), "-root", ROOT])


if __name__ == "__main__":
    main()
