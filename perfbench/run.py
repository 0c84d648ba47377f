#!/usr/bin/env python3
"""FDX benchmark: builds its program from ../src and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload batch_csv --seed 1 --seconds 12 \
        --trace 0

Workloads: batch_csv, wide_corr, oocore_bounded, service_sessions (see
BENCHMARK.json for why each one exists). The first run configures and
builds perfbench/ (which compiles ../src) into .bench_build/perfbench.

stdout: a host block, one line per metric (name, value, unit, sample
count), any failed checks and a verdict, then as the last line one JSON
object {"correct", "attempted", "failed", "metrics"} whose metrics are
BENCHMARK.json's "end_to_end" list (--trace 0) or "per_layer" list
(--trace 1). The full result, host block and sample counts included, is
kept in .bench_build/results/, with the Chrome trace of traced runs.

Extra flags for the smoke check (perfbench/smoke.py): --toy runs toy
input sizes, --corrupt-fds swaps every discovered FD set for a wrong one
before it is checked.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
WORKLOADS = ("batch_csv", "wide_corr", "oocore_bounded", "service_sessions")
# A hung run is killed instead of blocking its caller past three minutes.
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no FDX sources next to perfbench/ (expected src/)")
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "fdx_perfbench",
         "-j", str(os.cpu_count() or 1)],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD, "fdx_perfbench")


def source_version():
    """The git commit when there is one, else a digest of src/."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--corrupt-fds", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]

    binary = build()
    os.makedirs(RESULTS, exist_ok=True)
    stem = "%s-seed%d-trace%s" % (args.workload, args.seed, args.trace)
    command = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", args.trace,
        "--workdir", os.path.join(ROOT, ".bench_build", "work"),
        "--trace-file", os.path.join(RESULTS, stem + ".trace.json"),
        "--commit", source_version(),
    ]
    if args.toy:
        command.append("--toy")
    if args.corrupt_fds:
        command.append("--corrupt-fds")
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("fdx_perfbench did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail("fdx_perfbench exited with %d" % done.returncode)
    for line in lines[:-1]:
        print(line)
    full = json.loads(lines[-1])
    with open(os.path.join(RESULTS, stem + ".json"), "w") as f:
        json.dump(full, f, indent=1)

    metrics = {}
    for metric in wanted:
        got = full["metrics"].get(metric["name"])
        if got is None:
            fail("metric %s missing from the %s result" %
                 (metric["name"], args.workload))
        if got["unit"] != metric["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s" %
                 (metric["name"], got["unit"], metric["unit"]))
        metrics[metric["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": full["correct"],
                      "attempted": full["attempted"],
                      "failed": full["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
