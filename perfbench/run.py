#!/usr/bin/env python3
"""Builds and runs the klest benchmark (the Rust package next to this file).

Usage, from the repository root:

  python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1
  python3 perfbench/run.py steady --workload <name> [--runs K] [--seed N]
                                  [--seconds S]
  python3 perfbench/run.py counters [--seed N]
  python3 perfbench/run.py reference [--seed N]

A workload run prints, as its last line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--workload all` runs the
four workloads one after another, each in its own process. `steady` runs
one workload K times back to back, untraced (seeds N, N+1, ...; S
defaults to `run_seconds` in BENCHMARK.json), and prints the median,
quartiles and min/max of every end-to-end metric, and the spread
(interquartile range over median) the bounds in BENCHMARK.json are set
from. `counters` and `reference` are passed to the benchmark binary.

The binary is built with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default: `.bench_build` at the repository root).
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["kle_cold", "table1_mc", "edit_retime", "serve_steady"]


def build():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(3)
    return os.path.join(target, "release", "perfbench")


def run_binary(binary, args, capture=False):
    done = subprocess.run([binary] + args, cwd=ROOT,
                          stdout=subprocess.PIPE if capture else None, text=True)
    return done.returncode, (done.stdout if capture else "")


def option(args, name, default):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def steady(binary, args):
    workload = option(args, "--workload", "")
    if workload not in WORKLOADS:
        sys.stderr.write("steady needs --workload <%s>\n" % "|".join(WORKLOADS))
        return 2
    runs = int(option(args, "--runs", "5"))
    seed = int(option(args, "--seed", "1"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        run_seconds = json.load(f)["run_seconds"]
    seconds = option(args, "--seconds", str(run_seconds))
    values = {}
    for k in range(runs):
        code, out = run_binary(binary, ["--workload", workload, "--seed", str(seed + k),
                                        "--seconds", seconds, "--trace", "0"], capture=True)
        last = out.strip().splitlines()[-1] if out.strip() else ""
        if code != 0 or not last.startswith("{"):
            sys.stdout.write(out)
            sys.stderr.write("run %d (seed %d) failed\n" % (k, seed + k))
            return 1
        result = json.loads(last)
        for name, m in result["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print("seed %d: attempted %d failed %d correct %s" % (seed + k, result["attempted"],
                                                             result["failed"], result["correct"]))
    print("%-26s %-9s %12s %12s %12s %12s %12s %8s" % (
        "metric", "unit", "median", "q1", "q3", "min", "max", "spread"))
    for name, (unit, v) in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
        spread = (q3 - q1) / med if med else 0.0
        print("%-26s %-9s %12.4f %12.4f %12.4f %12.4f %12.4f %7.2f%%" % (
            name, unit, med, q1, q3, min(v), max(v), 100 * spread))
    return 0


def main():
    args = sys.argv[1:]
    binary = build()
    if args and args[0] == "steady":
        sys.exit(steady(binary, args[1:]))
    if args and args[0] in ("counters", "reference"):
        sys.exit(run_binary(binary, args)[0])
    if option(args, "--workload", "") == "all":
        worst = 0
        for w in WORKLOADS:
            i = args.index("--workload")
            code, _ = run_binary(binary, args[:i + 1] + [w] + args[i + 2:])
            worst = max(worst, code)
        sys.exit(worst)
    sys.exit(run_binary(binary, args)[0])


if __name__ == "__main__":
    main()
