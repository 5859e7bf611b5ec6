#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (the correctnet library from ../src plus the cn_perfbench binary)
in Release mode under $CARGO_TARGET_DIR (default .bench_build); later calls
rebuild only what changed. Build output goes to stderr; the benchmark's
stdout passes through unchanged, its last line being the JSON result. See
perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["mc-vgg-xbar", "campaign-lenet-faults", "serve-lenet-digital"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    p.add_argument("--tiny", action="store_true",
                   help="self-test sizes (see perfbench/selftest.py)")
    p.add_argument("--digests", default=os.path.join(HERE, "digests.txt"),
                   help="reference digests file (the self-test passes a corrupted copy)")
    return p.parse_args(argv)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(target), "perfbench")


def run_logged(cmd):
    """Runs a build step; its output is shown (on stderr) only if it fails."""
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
        sys.exit(1)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.stderr.write("run.py: the correctnet sources (CMakeLists.txt, src/) are "
                         "missing next to perfbench/\n")
        sys.exit(1)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd)
    run_logged(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    return os.path.join(out, "cn_perfbench")


def main(argv):
    args = parse_args(argv)
    binary = build()
    spans = os.path.join(build_dir(), "spans-%s-%d-%d.json" % (args.workload, args.seed, args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--digests", args.digests, "--spans-out", spans]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    code = subprocess.run(cmd).returncode
    return code if code >= 0 else 1  # killed by a signal


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
