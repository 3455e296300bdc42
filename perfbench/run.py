#!/usr/bin/env python3
"""Build the benchmark from source and run one workload, or the self-test.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

A run builds perfbench/main.exe with dune (into _build/, dune's shared
cache off) and hands its arguments to it; the last line of standard
output is the JSON result.  Outside a checkout of the repository (no
dune-project or lib/ next to perfbench/) the build cannot succeed, and
the script exits with status 2 without printing a result.
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root; dune-project and lib/ are missing",
              file=sys.stderr)
        sys.exit(2)
    cmd = ["dune", "build", "--root", ".", "--cache=disabled", "--display=quiet",
           "./perfbench/main.exe"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(2)


def run(args):
    """Run the benchmark binary; return (last-line JSON, full stdout)."""
    out = subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1]), out


def self_test():
    """Every printed metric has the name and unit BENCHMARK.json declares,
    and a planted wrong plan is counted as a failure on every workload."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in [x["name"] for x in spec["workloads"]]:
        for trace in (0, 1):
            res, _ = run(["--workload", w, "--seed", "3", "--seconds", "1", "--trace", str(trace)])
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{w} trace {trace}: metrics {sorted(got.items())} "
                                f"differ from BENCHMARK.json {sorted(declared[trace].items())}")
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{w} trace {trace}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] != 0:
                problems.append(f"{w} trace {trace}: clean run reported failures: {res}")
        res, _ = run(["--workload", w, "--seed", "3", "--seconds", "1", "--trace", "0",
                      "--plant-wrong-plan"])
        if res["correct"] or res["failed"] < 1:
            problems.append(f"{w}: planted wrong plan was not counted: {res}")
    # the stored optima are checked at the default seed
    _, out = run(["--workload", "dphyp_exact", "--seed", "1", "--seconds", "1", "--trace", "0"])
    if "reference optimum: checked 0" in out or "reference optimum: checked" not in out:
        problems.append("dphyp_exact --seed 1 did not check any stored optimum")
    for p in problems:
        print("self-test: " + p, file=sys.stderr)
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    build()
    if sys.argv[1:] == ["--self-test"]:
        sys.exit(self_test())
    sys.exit(subprocess.run([EXE] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
