#!/usr/bin/env python3
"""Smoke check of the FDX benchmark at toy input sizes.

Run from the repository root:

    python3 perfbench/smoke.py

For every workload it runs perfbench/run.py three times — untraced,
traced, and with --corrupt-fds — and checks that:
  * every end-to-end metric the workload reports is printed by name, and
    the result line carries every BENCHMARK.json end-to-end metric;
  * the traced run prints every per-layer metric and writes a Chrome
    trace whose layer self times add up to the traced wall time;
  * outputs are judged correct, and a deliberately wrong FD set is
    counted as a failure.
Exits non-zero on the first problem.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# End-to-end metrics printed per workload (p99s need 1000 samples, which
# the toy service run reaches within its seconds).
COMMON = ["setup_s", "time_to_fds_s", "peak_rss_mb", "fd_f1", "failed_frac"]
PRINTED = {
    "batch_csv": COMMON,
    "wide_corr": COMMON,
    "oocore_bounded": COMMON + ["store_bytes_ratio"],
    "service_sessions": COMMON + [
        "service_rps", "fresh_discover_p50_ms", "fresh_discover_p99_ms",
        "cached_discover_p50_ms", "append_p50_ms", "append_p99_ms"],
}
SECONDS = {"service_sessions": "4"}
LAYERS = ("data", "core", "linalg", "store", "service")


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7",
               "--seconds", SECONDS.get(workload, "1"), "--trace", trace,
               "--toy"] + list(extra)
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    if done.returncode != 0:
        sys.exit("smoke: %s failed:\n%s" % (" ".join(command), done.stderr))
    lines = done.stdout.splitlines()
    printed = {line.split()[1] for line in lines[:-1]
               if line.startswith(workload + " ")}
    return printed, json.loads(lines[-1])


def expect(ok, message):
    if not ok:
        sys.exit("smoke: " + message)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for workload, names in PRINTED.items():
        printed, result = run(workload, "0")
        missing = [n for n in names if n not in printed]
        expect(not missing, "%s did not print %s" % (workload, missing))
        expect(sorted(result["metrics"]) == sorted(end_to_end),
               "%s result line metrics differ from BENCHMARK.json" % workload)
        expect(result["correct"] and result["failed"] == 0,
               "%s judged its outputs wrong" % workload)

        printed, result = run(workload, "1")
        missing = [n for n in per_layer if n not in printed]
        expect(not missing, "%s traced run did not print %s" %
               (workload, missing))
        expect(result["correct"], "%s traced run judged wrong" % workload)
        values = {k: v["value"] for k, v in result["metrics"].items()}
        parts = sum(values["self.%s_s" % layer] for layer in LAYERS)
        parts += values["self.unattributed_s"]
        expect(abs(parts - values["traced_wall_s"]) <=
               1e-6 + 1e-6 * values["traced_wall_s"],
               "%s layer self times do not add up to the wall time" %
               workload)
        trace = os.path.join(ROOT, ".bench_build", "results",
                             "%s-seed7-trace1.trace.json" % workload)
        with open(trace) as f:
            events = json.load(f)["traceEvents"]
        expect(events and all(e["ph"] == "X" and "parent" in e["args"]
                              for e in events),
               "%s trace file is not Chrome trace-event JSON" % workload)

        _, result = run(workload, "0", "--corrupt-fds")
        expect(not result["correct"] and result["failed"] > 0,
               "%s did not count a wrong FD set as a failure" % workload)
        print("smoke: %s ok" % workload)
    print("smoke: all workloads ok")


if __name__ == "__main__":
    main()
