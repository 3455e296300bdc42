#!/usr/bin/env python3
"""Same-run A/B comparison of the working tree against a git revision.

Run from the repository root:

    python3 tools/ab.py --workload NAME [--base REV] [--pairs N]
                        [--seed S] [--seconds T] [--trace 0|1]

The base revision (default HEAD, i.e. the uncommitted changes are the
change; use --base HEAD~1 once they are committed) is exported with
`git archive` into .ab/base-<sha> and reused there on later calls.
Both trees are built and run by their own perfbench/run.py with the
same arguments.  The runs alternate in N pairs, and every other pair
runs the change first, so drift of a shared host lands on both sides.

For every metric the table shows both medians, the change's move, how
many pairs the change won (by the metric's direction in BENCHMARK.json)
and the interquartile range of the base runs.  The verdict is `better`
or `worse` when the change wins (or loses) at least 9 of every 10 pairs
and the medians differ by more than the base's IQR, `-` otherwise.
Fewer than 10 pairs (default 10) never get a verdict: they are too few
to back a claim.

Exit status: 0; 1 if any run reports a failed check; 2 on bad usage.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys


WORKDIR = ".ab"
MIN_PAIRS = 10


def export(base):
    """Export REV into WORKDIR/base-<sha> unless it is already there."""
    sha = subprocess.run(["git", "rev-parse", "--verify", base + "^{commit}"],
                         stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    tree = os.path.join(os.path.abspath(WORKDIR), "base-" + sha[:12])
    if not os.path.isdir(tree):
        partial = tree + ".partial"
        shutil.rmtree(partial, ignore_errors=True)
        os.makedirs(partial)
        archive = subprocess.Popen(["git", "archive", sha], stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", partial], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit(f"ab: git archive {sha} failed")
        os.rename(partial, tree)
    return sha, tree


def run(tree, args):
    """One perfbench run in TREE; returns its result object."""
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=tree,
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"ab: perfbench in {tree} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def directions(path):
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def quartile_gap(xs):
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q3 - q1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--base", default="HEAD")
    p.add_argument("--pairs", type=int, default=MIN_PAIRS)
    p.add_argument("--seed", default="1")
    p.add_argument("--seconds", default="20")
    p.add_argument("--trace", default="0", choices=["0", "1"])
    a = p.parse_args()
    if a.pairs < 1:
        p.error("--pairs must be at least 1")
    if not (os.path.isfile("dune-project") and os.path.isfile("BENCHMARK.json")):
        p.error("run from the repository root")
    sha, base_tree = export(a.base)
    args = ["--workload", a.workload, "--seed", a.seed, "--seconds", a.seconds,
            "--trace", a.trace]
    sides = {"base": (base_tree, []), "change": (os.getcwd(), [])}
    broken = 0
    for i in range(a.pairs):
        for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
            tree, results = sides[side]
            res = run(tree, args)
            results.append(res)
            qps = res["metrics"].get("throughput_qps", {}).get("value")
            print(f"pair {i + 1}/{a.pairs} {side:6}: correct={res['correct']} "
                  f"failed={res['failed']} throughput_qps={qps}", file=sys.stderr)
            if not res["correct"] or res["failed"] != 0:
                broken += 1
    better = directions("BENCHMARK.json")
    base_runs, change_runs = sides["base"][1], sides["change"][1]
    names = [m for m in base_runs[0]["metrics"] if m in change_runs[0]["metrics"]]
    print(f"A/B {a.workload} seed {a.seed}, {a.seconds} s, trace {a.trace}: "
          f"base {a.base} ({sha[:12]}) vs working tree, {a.pairs} pairs")
    print(f"{'metric':34} {'unit':6} {'base':>12} {'change':>12} {'move':>8} "
          f"{'wins':>6} {'base IQR':>10}  verdict")
    for m in names:
        b = [r["metrics"][m]["value"] for r in base_runs]
        c = [r["metrics"][m]["value"] for r in change_runs]
        mb, mc, iqr = statistics.median(b), statistics.median(c), quartile_gap(b)
        sign = {"lower": -1, "higher": 1}.get(better.get(m), 0)
        wins = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
        losses = sum(1 for x, y in zip(b, c) if sign * (y - x) < 0)
        clear = sign != 0 and a.pairs >= MIN_PAIRS and abs(mc - mb) > iqr
        verdict = ("better" if clear and wins * 10 >= 9 * a.pairs
                   else "worse" if clear and losses * 10 >= 9 * a.pairs else "-")
        move = f"{100 * (mc - mb) / mb:+.1f}%" if mb else "-"
        unit = base_runs[0]["metrics"][m]["unit"]
        print(f"{m:34} {unit:6} {mb:12.6g} {mc:12.6g} {move:>8} "
              f"{wins:>3}/{a.pairs:<2} {iqr:10.4g}  {verdict}")
    if broken:
        print(f"ab: {broken} run(s) reported failed checks", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
