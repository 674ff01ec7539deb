#!/usr/bin/env python3
"""Builds the mapping-session benchmark from this checkout and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark and the library sources under
src/ are compiled (Release) into .bench_build/; the first run builds, later
runs only relink what changed. The benchmark's last line of standard output is
its JSON result. Before it is printed, the result is checked against
BENCHMARK.json: every metric of the run's kind (end_to_end for --trace 0,
per_layer for --trace 1) must be present, with the declared unit and a finite
value. The traced run also writes its spans to .bench_build/spans/.
"""
import argparse
import json
import math
import os
import resource
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
ADDRESS_SPACE_LIMIT = 3 << 30


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 1


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return "library sources (src/) not found next to perfbench/"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "mapping_bench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return "build step failed: " + " ".join(step)
    return None


def limit_memory():
    # A runaway search must fail this run, not exhaust a shared machine.
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT,
                                            ADDRESS_SPACE_LIMIT))


def check(result, spec, traced):
    declared = spec["per_layer" if traced else "end_to_end"]
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        missing = sorted(set(want) - set(metrics))
        extra = sorted(set(metrics) - set(want))
        return "metric names differ: missing %s, undeclared %s" % (missing,
                                                                  extra)
    for name, unit in want.items():
        value = metrics[name].get("value")
        if metrics[name].get("unit") != unit:
            return "metric %s has unit %r, declared %r" % (
                name, metrics[name].get("unit"), unit)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return "metric %s has no finite value" % name
    for key in ("correct", "attempted", "failed"):
        if key not in result:
            return "result lacks %r" % key
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return fail("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail("unknown workload " + args.workload)

    error = build()
    if error:
        return fail(error)

    command = [os.path.join(BUILD, "mapping_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans", os.path.join(
            spans, "%s-%d.jsonl" % (args.workload, args.seed))]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          preexec_fn=limit_memory)
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return fail("no JSON result line (exit code %d)" % done.returncode)
    error = check(result, spec, bool(args.trace))
    if error:
        return fail(error)
    print(lines[-1])
    if done.returncode != 0 or not result["correct"]:
        return fail("the run's output check failed (exit code %d)" %
                    done.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
