#!/usr/bin/env python3
"""Steadiness tool: run one workload N times and report each metric's spread.

    python3 perfbench/steady.py --workload <name> [--runs 10] [--first-seed 1]
                                [--seconds <s>] [--trace 0|1] [--compare <raw>]

Run from the repository root. Each run uses the next seed (first-seed,
first-seed + 1, ...) through perfbench/run.py, as the harness does. For each
metric it prints the median, the quartiles (statistics.quantiles, n=4), the
quartile spread as a share of the median, the largest relative deviation
from the median, and, for end-to-end metrics, the bound from BENCHMARK.json
with a verdict: "steady" when the spread is below a third of the bound.
The share of failed operations must be the same in every run. Raw results
go to .bench_out/steady-<workload>[-trace].json; a copy of an earlier one
passed as --compare is the first set of a two-set comparison: for each
end-to-end metric it prints how far this set's median is worse than that
set's, as a share of it, against the bound, and the two failed shares.
Exits 2 when a spread or a median shift is out of line, 0 otherwise.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", help="raw results of an earlier set")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print("run with seed %d failed (exit %d)" % (seed, proc.returncode))
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        print("seed %-4d %s" % (seed, "  ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items()
            if k in bounds or args.trace)), flush=True)

    shares = {r["failed"] / r["attempted"] for r in results}
    print("\nfailed/attempted: %s" % ("same in every run (%g)" % min(shares)
                                      if len(shares) == 1 else "DIFFERS"))
    steady = len(shares) == 1
    print("%-36s %12s %12s %12s %8s %8s %7s" % (
        "metric", "median", "q1", "q3", "iqr/med", "maxdev", "bound"))
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (
            values[0], None, values[0])
        spread = (q3 - q1) / median if median else float("nan")
        maxdev = max(abs(v - median) for v in values) / median if median else float("nan")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "steady" if spread < bound / 3 else "NOT steady"
            steady = steady and spread < bound / 3
        print("%-36s %12.6g %12.6g %12.6g %8.4f %8.4f %7s %s" % (
            name, median, q1, q3, spread, maxdev,
            "" if bound is None else "%.3g" % bound, verdict))

    if args.compare:
        steady = compare(args.compare, results, bounds, better) and steady

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "steady-%s%s.json" % (
        args.workload, "-trace" if args.trace else ""))
    with open(path, "w", encoding="utf-8") as f:
        json.dump(results, f, indent=1)
    print("\nraw results: %s" % os.path.relpath(path, ROOT))
    return 0 if steady else 2


def compare(path, second, bounds, better):
    """Median shift of each end-to-end metric from the set in `path`."""
    with open(path, encoding="utf-8") as f:
        first = json.load(f)
    print("\nagainst %s (%d runs):" % (os.path.relpath(path, ROOT), len(first)))
    print("%-36s %12s %12s %8s %7s" % ("metric", "median 1", "median 2",
                                       "worse by", "bound"))
    ok = True
    for name, bound in bounds.items():
        m1 = statistics.median(r["metrics"][name]["value"] for r in first)
        m2 = statistics.median(r["metrics"][name]["value"] for r in second)
        worse = (m2 - m1) / m1 if better[name] == "lower" else (m1 - m2) / m1
        verdict = "ok" if worse <= bound else "WORSE"
        ok = ok and worse <= bound
        print("%-36s %12.6g %12.6g %8.4f %7.3g %s" % (name, m1, m2, worse,
                                                       bound, verdict))
    shares = [{r["failed"] / r["attempted"] for r in s} for s in (first, second)]
    same = len(shares[0] | shares[1]) == 1
    print("failed/attempted: %s" % ("same in both sets" if same else "DIFFERS"))
    return ok and same


if __name__ == "__main__":
    sys.exit(main())
