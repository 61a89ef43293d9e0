#!/usr/bin/env python3
"""Build the benchmark driver and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/ (the megads libraries plus megabench) in an optimised build under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only let
the build tool confirm nothing changed. Build output goes to stderr, so the
last line on stdout is the driver's result line. A traced run writes its
spans to .bench_out/trace-<workload>-<seed>.jsonl.

Exits non-zero, without a result line, when the build fails, the driver
fails a check, or its result line does not match BENCHMARK.json.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            # Leave no half-configured tree behind: the next call starts over.
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "--target", "megabench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(out, "megabench")


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([binary, "--selftest"], timeout=RUN_TIMEOUT_S).returncode

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            out_dir, "trace-%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: megabench timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print("run.py: megabench exited with %d" % proc.returncode, file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    want = expected_metrics(args.trace)
    if sorted(got) != sorted(want):
        sys.stderr.write(proc.stdout)
        print("run.py: metrics %s do not match BENCHMARK.json %s" % (got, want),
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
