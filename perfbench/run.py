#!/usr/bin/env python3
"""Build the engine benchmark from source and run one workload, or all.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <flat-fixpoint|nested-values|ivm-churn|all> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a cargo package of its own (perfbench/Cargo.toml) built
offline into $CARGO_TARGET_DIR (default .bench_build). Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result. The
exit code is the benchmark's: non-zero if the build fails, an argument is
wrong, or any output check fails.

`--workload all` runs the three workloads one after the other, each in a
process of its own (the global intern pool only grows and `peak_rss_mb`
is a process's high-water mark, so a shared process would carry one
workload's state into the next). Its result line carries every
workload's metrics as `<workload>/<metric>`, plus the chain-vs-atom
rows: `nested_over_flat.<op>.<ms_p50|us_per_tuple>`, the nested-values
figure over the flat-fixpoint one.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
RUN_TIMEOUT_S = 175
WORKLOADS = ["flat-fixpoint", "nested-values", "ivm-churn"]
DEDUCTIVE_OPS = ["dl_tc_linear", "dl_tc_nonlinear", "dl_neg", "col_setheavy"]


def arg(args, flag, default):
    if flag in args[:-1]:
        return args[args.index(flag) + 1]
    return default


def pin_to_one_cpu():
    """Keep the benchmark and its calibration helper on one CPU, so the
    helper's kernel sees the same host speed as the engines."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_one(binary, args, env):
    """Run the benchmark binary; return (exit code, stdout lines)."""
    try:
        p = subprocess.run([binary, "--out", OUT] + args, env=env,
                           stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S, preexec_fn=pin_to_one_cpu)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3, []
    return p.returncode, p.stdout.splitlines()


def comparison_rows(seed, trace):
    """nested-values over flat-fixpoint for each deductive op's median
    latency and cost per derived tuple, from the two reports."""
    layer = {}
    for w in ("flat-fixpoint", "nested-values"):
        path = os.path.join(OUT, f"report-{w}-seed{seed}-trace{trace}.json")
        with open(path) as f:
            layer[w] = json.load(f)["per_layer"]
    rows = {}
    for op in DEDUCTIVE_OPS:
        for suffix in ("ms_p50", "us_per_tuple"):
            name = f"deductive.{op}.{suffix}"
            flat = layer["flat-fixpoint"][name]["value"]
            nested = layer["nested-values"][name]["value"]
            rows[f"nested_over_flat.{op}.{suffix}"] = {
                "value": nested / flat if flat else 0.0, "unit": "ratio"}
    return rows


def run_all(binary, args, env):
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        wargs = list(args)
        wargs[wargs.index("--workload") + 1] = w
        code, lines = run_one(binary, wargs, env)
        print("\n".join(lines[:-1]))
        try:
            r = json.loads(lines[-1])
        except (IndexError, ValueError):
            return code or 1
        result["correct"] &= r["correct"]
        result["attempted"] += r["attempted"]
        result["failed"] += r["failed"]
        for name, m in r["metrics"].items():
            result["metrics"][f"{w}/{name}"] = m
    rows = comparison_rows(arg(args, "--seed", "1"), arg(args, "--trace", "0"))
    print("== nested-values / flat-fixpoint ==")
    for name, m in rows.items():
        print(f"    {name:<44} {m['value']:>10.2f}x")
    result["metrics"].update(rows)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:]
    if arg(args, "--workload", None) == "all":
        return run_all(binary, args, env)
    code, lines = run_one(binary, args, env)
    if lines:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
