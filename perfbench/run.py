#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload stream_probe --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

The script builds cmd/hjserve and the perfbench command from the source
tree, then runs one workload (or each in turn, in its own process, for
`all`). Builds, the Go build cache, spill files and span dumps all stay
under .bench_build/ in the current directory. The last line of standard
output is the result object; a single-workload run exits non-zero, and
prints no result, if the build fails or the run does not report
exactly the metrics BENCHMARK.json declares.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["stream_probe", "spill_skew", "serve_mix"]
OUT = ".bench_build"


def go_env(out):
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOTMPDIR=os.path.join(out, "tmp"),
        TMPDIR=os.path.join(out, "tmp"),
        GOPATH=os.path.join(out, "gopath"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),  # go env file and telemetry
        GOTOOLCHAIN="local",  # never fetch a toolchain
        GOPROXY="off",  # the module has no dependencies to fetch
        GOFLAGS="",
        GOWORK="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    return env


def build(out, env):
    """Build hjserve and perfbench; return their paths or None."""
    bins = os.path.join(out, "bin")
    hjserve = os.path.join(bins, "hjserve")
    bench = os.path.join(bins, "perfbench")
    steps = [
        (["go", "build", "-o", hjserve, "./cmd/hjserve"], "."),
        (["go", "build", "-o", bench, "."], "perfbench"),
    ]
    for cmd, cwd in steps:
        if not os.path.isdir(cwd):
            print(f"run.py: {cwd} is missing; run from the repository root", file=sys.stderr)
            return None
        # Build output goes to stderr so stdout carries only results.
        if subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr).returncode != 0:
            print(f"run.py: {' '.join(cmd)} failed", file=sys.stderr)
            return None
    return hjserve, bench


def run_one(workload, args, bench, hjserve, env):
    """Run one workload; return (exit code, result object or None)."""
    cmd = [bench, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--hjserve", hjserve, "--scratch", os.path.abspath(OUT),
           "--spec", os.path.abspath("BENCHMARK.json")]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} did not finish in 170 s", file=sys.stderr)
        return 1, None
    lines = proc.stdout.splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if result is None:
        print(f"run.py: {workload} printed no result (exit {proc.returncode})", file=sys.stderr)
        return proc.returncode or 1, None
    return proc.returncode, result


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    out = os.path.abspath(OUT)
    env = go_env(out)
    bins = build(out, env)
    if bins is None:
        return 2
    hjserve, bench = bins

    if args.workload != "all":
        code, result = run_one(args.workload, args, bench, hjserve, env)
        if result is not None:
            print(json.dumps(result))
        return code

    worst, results = 0, {}
    for w in WORKLOADS:
        print(f"== {w}")
        code, results[w] = run_one(w, args, bench, hjserve, env)
        worst = max(worst, code)
    print("\nmetric".ljust(32) + "".join(w.rjust(14) for w in WORKLOADS))
    units = {k: m["unit"] for r in results.values() if r for k, m in r["metrics"].items()}
    for name, unit in sorted(units.items()):
        row = [results[w]["metrics"][name]["value"] if results[w] else float("nan") for w in WORKLOADS]
        print(f"{name} ({unit})".ljust(31) + "".join(f"{v:14.4f}" for v in row))
    print(json.dumps(results))
    return worst


if __name__ == "__main__":
    sys.exit(main())
