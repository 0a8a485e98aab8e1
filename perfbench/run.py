#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout. The first run configures and
builds a Release binary under .bench_build/perfbench (build output goes
to stderr); later runs only re-check the build. The benchmark binary
prints a report and, as its last line, each metric's name and value.
This script prints the report and then, as its last line, the JSON
result: it takes the workloads, metric names and units from
BENCHMARK.json (their one source), checks the names the binary printed
and adds the units. It exits with the binary's code. A traced run also
writes its spans to .bench_build/perfbench/trace-<workload>.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the binary; returns False on failure."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            # A half-configured tree would make the next run skip this step.
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    result = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                            stdout=sys.stderr)
    return result.returncode == 0 and os.path.exists(BINARY)


def to_result(line, spec, trace):
    """The binary's result line with BENCHMARK.json's units attached.

    Untraced, every end-to-end metric must be present; traced, a
    per-layer metric a workload never calls is absent and reads 0. A
    name BENCHMARK.json does not list is an error (ValueError)."""
    raw = json.loads(line)
    group = spec["per_layer" if trace == "1" else "end_to_end"]
    values = raw["values"]
    unknown = set(values) - {m["name"] for m in group}
    missing = {m["name"] for m in group} - set(values)
    if unknown or (missing and trace == "0"):
        raise ValueError("metrics not in BENCHMARK.json: %s, missing: %s"
                         % (sorted(unknown), sorted(missing)))
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in group}
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def invoke(spec, workload, seed, seconds, trace, extra=()):
    """Runs the built binary; returns (exit code, report lines, result).

    The result is None when the binary printed none or an invalid one,
    and the exit code is then nonzero."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", trace, *extra]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4, [], None
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        return proc.returncode or 2, lines, None
    try:
        result = to_result(lines[-1], spec, trace)
    except (ValueError, KeyError) as e:
        print("perfbench: bad result line: %s" % e, file=sys.stderr)
        return 5, lines, None
    return proc.returncode, lines[:-1], result


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    return parser.parse_args(argv)


def main(argv):
    spec = load_spec()
    args = parse_args(argv, spec)
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3
    extra = []
    if args.trace == "1":
        extra = ["--trace-out", os.path.join(
            BUILD_DIR, "trace-%s.json" % args.workload)]
    code, report, result = invoke(spec, args.workload, args.seed,
                                  args.seconds, args.trace, extra)
    for line in report:
        print(line)
    if result is not None:
        print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
