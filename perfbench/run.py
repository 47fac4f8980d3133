#!/usr/bin/env python3
"""Builds and runs the mvstore benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It configures and builds two variants of perfbench/ against src/ under
$CARGO_TARGET_DIR (default .bench_build): an optimized one that runs the
workload, and a gprof (-pg) one that the traced run profiles. Each run
first executes the model checker's self-test. The program's readable report
is passed through; the last line printed is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 1 the metrics are the
per-layer set, including the cpu.* self-time shares read from gprof.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170
# src/ modules whose functions the cpu.* shares attribute; a function counts
# toward the first of these its demangled name mentions (Tracer is the
# common/trace layer), and toward cpu.other when it mentions none.
MODULE_PATTERN = re.compile(
    r"mvstore::(?:(Tracer)\b|(sim|store|view|storage|index)::)")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir, extra_flags, targets):
    """Configures (once) and builds `targets`; build output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + extra_flags
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed in " + build_dir)
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", build_dir, "--parallel", jobs, "--target"]
    if subprocess.run(command + targets, stdout=sys.stderr).returncode != 0:
        fail("build failed in " + build_dir)


def run(command, cwd=None):
    """Runs `command` to completion (killed after RUN_TIMEOUT_S)."""
    try:
        return subprocess.run(command, cwd=cwd, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(command))


def cpu_shares(binary, workload, seed, work_dir):
    """Self-time share of each src module in a gprof profile of one pass."""
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    profiled = run([binary, "--workload", workload, "--seed", str(seed),
                    "--profile"], cwd=work_dir)
    gmon = os.path.join(work_dir, "gmon.out")
    if profiled.returncode != 0 or not os.path.exists(gmon):
        fail("profiled pass failed:\n" + profiled.stdout + profiled.stderr)
    report = run(["gprof", "-b", "-p", binary, gmon], cwd=work_dir)
    if report.returncode != 0:
        fail("gprof failed:\n" + report.stderr)
    self_s = {name: 0.0 for name in
              ("sim", "store", "view", "storage", "index", "trace", "other")}
    # Flat-profile rows: % time, cumulative s, self s, [calls, self/call,
    # total/call,] name.
    row = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(.+)$")
    for line in report.stdout.splitlines():
        match = row.match(line)
        if not match:
            continue
        module = MODULE_PATTERN.search(match.group(2))
        key = "other"
        if module:
            key = "trace" if module.group(1) else module.group(2)
        self_s[key] += float(match.group(1))
    total = sum(self_s.values())
    if total <= 0:
        fail("gprof recorded no samples")
    return {"cpu." + name: {"value": s / total, "unit": "share"}
            for name, s in self_s.items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "store", "cluster.h")):
        fail("run from the root of an mvstore checkout (no src/ here)")
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"), "perfbench")
    release = os.path.join(build_root, "release")
    gprof = os.path.join(build_root, "gprof")
    build(release, [], ["perfbench", "perfbench_selftest"])
    build(gprof, ["-DCMAKE_CXX_FLAGS=-pg", "-DCMAKE_EXE_LINKER_FLAGS=-pg"],
          ["perfbench"])

    selftest = run([os.path.join(release, "perfbench_selftest")])
    if selftest.returncode != 0:
        sys.stdout.write(selftest.stdout)
    print("model-check self-test: " +
          ("pass" if selftest.returncode == 0 else "FAIL"))

    measured = run([os.path.join(release, "perfbench"),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)])
    sys.stderr.write(measured.stderr)
    lines = measured.stdout.splitlines()
    if measured.returncode != 0 or not lines:
        fail("benchmark failed:\n" + measured.stdout)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    result = json.loads(lines[-1])
    result["correct"] = result["correct"] and selftest.returncode == 0
    if args.trace:
        result["metrics"].update(cpu_shares(
            os.path.join(gprof, "perfbench"), args.workload, args.seed,
            os.path.join(build_root, "profile-" + args.workload)))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
