#!/usr/bin/env python3
"""Small-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

Builds the benchmark (as run.py does), then runs every workload on a
shrunken input and checks that:
  * BENCHMARK.json keeps the format the benchmark contract fixes;
  * every workload in BENCHMARK.json runs, and every end-to-end metric
    (untraced) and every per-layer metric (traced) named there prints
    with its unit, on two seeds, with no failed check; the binary prints
    no metric BENCHMARK.json does not name (run.py refuses it);
  * layer_targets.json gives a target for every per-layer metric;
  * a deliberately wrong reference answer (--corrupt-reference) is
    counted as a failed operation and makes the run exit nonzero, so the
    oracle is shown able to fail.
Exits 0 when every check passes.
"""

import json
import os
import re
import subprocess
import sys

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SECONDS = 0.5


def load_targets():
    with open(os.path.join(run.HERE, "layer_targets.json")) as f:
        return json.load(f)["metrics"]


def check_spec(spec, failures):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        failures.append("BENCHMARK.json keys %s" % sorted(spec))
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            failures.append("workload entry %s" % w)
    seen = set()
    for group, fields in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for m in spec[group]:
            if set(m) != fields or not NAME.match(m["name"]) or \
                    not UNIT.match(m["unit"]) or m["name"] in seen or \
                    m["better"] not in ("lower", "higher"):
                failures.append("%s entry %s" % (group, m))
            if group == "end_to_end" and not 0 < m["bound"] <= 0.25:
                failures.append("bound of %s" % m["name"])
            seen.add(m["name"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower" \
            or setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        failures.append("setup_s must be in s, lower-better, largest bound")


def check_run(spec, workload, seed, trace, failures):
    code, _, result = run.invoke(spec, workload, seed, SECONDS, trace,
                                 ["--small"])
    where = "%s seed %d trace %s" % (workload, seed, trace)
    if code != 0 or result is None:
        failures.append("%s: exit %d" % (where, code))
        return
    if result["correct"] is not True or result["failed"] != 0 or \
            result["attempted"] < 1:
        failures.append("%s: correct=%s failed=%s attempted=%s" % (
            where, result["correct"], result["failed"], result["attempted"]))
    group = spec["per_layer" if trace == "1" else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in group}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != expected:
        failures.append("%s: metrics %s, want %s" % (where, printed, expected))
    if trace == "0":
        zero = [k for k, v in result["metrics"].items() if not v["value"] > 0]
        if zero:
            failures.append("%s: end-to-end metrics not > 0: %s" % (where, zero))


def main():
    if not run.build():
        print("selftest: build failed", file=sys.stderr)
        return 1
    failures = []
    spec = run.load_spec()
    check_spec(spec, failures)
    workloads = [w["name"] for w in spec["workloads"]]
    targets = load_targets()
    per_layer = {m["name"] for m in spec["per_layer"]}
    if set(targets) != per_layer:
        failures.append("layer_targets.json covers %s" %
                        sorted(set(targets) ^ per_layer))
    for name, t in targets.items():
        if t["on"] not in workloads + ["all"] or \
                not set(t["flat_on"]) <= set(workloads):
            failures.append("layer target %s: %s" % (name, t))
    for workload in workloads:
        for seed in (1, 2):
            check_run(spec, workload, seed, "0", failures)
        check_run(spec, workload, 1, "1", failures)
        code, _, result = run.invoke(spec, workload, 1, SECONDS, "0",
                                     ["--small", "--corrupt-reference"])
        if code == 0 or result is None or result["correct"] is not False or \
                result["failed"] < 1:
            failures.append("%s: a wrong reference answer was not counted "
                            "(exit %d, result %s)" % (workload, code, result))
        print("selftest: %s done" % workload)
    for failure in failures:
        print("FAIL " + failure)
    print("selftest: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0

if __name__ == "__main__":
    sys.exit(main())
