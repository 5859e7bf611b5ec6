#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny sizes.

    python3 perfbench/selftest.py

For every workload, untraced and traced: the run exits 0, its last line is
the result object with exactly the contract's keys, nothing failed, and the
metrics are exactly the ones BENCHMARK.json declares for that mode, each with
its declared unit. Then a forced digest mismatch (a corrupted copy of
digests.txt) must count failed operations and clear `correct`, and a
directory holding only BENCHMARK.json and perfbench/ must make run.py fail
without printing a result. Exits 1 on the first failed check.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py: build_dir and the workload list)


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def bench(workload, trace, cwd=ROOT, digests=None):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    if digests:
        cmd += ["--digests", digests]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)


def result_of(proc, what):
    if proc.returncode != 0:
        fail("%s exited %d:\n%s" % (what, proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(what + " printed nothing")
    r = json.loads(lines[-1])
    if set(r) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (what, sorted(r)))
    if not isinstance(r["attempted"], int) or r["attempted"] < 1:
        fail("%s: attempted %r" % (what, r["attempted"]))
    return r


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if [w["name"] for w in spec["workloads"]] != run.WORKLOADS:
        fail("BENCHMARK.json workloads differ from run.py's")

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            what = "%s --trace %d" % (workload, trace)
            r = result_of(bench(workload, trace), what)
            if not r["correct"] or r["failed"] != 0:
                fail("%s: correct=%s failed=%d" % (what, r["correct"], r["failed"]))
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != declared[trace]:
                missing = sorted(set(declared[trace]) - set(got))
                extra = sorted(set(got) - set(declared[trace]))
                wrong = sorted(k for k in got if k in declared[trace] and got[k] != declared[trace][k])
                fail("%s: missing %s, undeclared %s, wrong unit %s" % (what, missing, extra, wrong))
            for k, v in r["metrics"].items():
                if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
                    fail("%s: %s = %r" % (what, k, v["value"]))
            print("ok   %-40s %d metrics, %d operations" % (what, len(got), r["attempted"]))

    os.makedirs(run.build_dir(), exist_ok=True)
    corrupt = os.path.join(run.build_dir(), "digests-corrupt.txt")
    with open(os.path.join(HERE, "digests.txt")) as src, open(corrupt, "w") as dst:
        for line in src:
            parts = line.split()
            if len(parts) == 2 and not parts[0].startswith("#"):
                line = "%s %016x\n" % (parts[0], int(parts[1], 16) ^ 1)
            dst.write(line)
    for workload in run.WORKLOADS:
        what = workload + " with a corrupted digest"
        r = result_of(bench(workload, 0, digests=corrupt), what)
        if r["correct"] or r["failed"] < 1:
            fail("%s: correct=%s failed=%d" % (what, r["correct"], r["failed"]))
        print("ok   %-40s failed %d of %d" % (what, r["failed"], r["attempted"]))

    bare = os.path.join(run.build_dir(), "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench(run.WORKLOADS[0], 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("a directory without the sources must fail silently on stdout (exit %d)"
             % proc.returncode)
    print("ok   %-40s exit %d" % ("without the repository sources", proc.returncode))
    print("selftest passed")


if __name__ == "__main__":
    main()
