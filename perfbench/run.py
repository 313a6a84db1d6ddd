#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: paper_catalog, analyze_bulk, service_sessions (see
perfbench/README.md). The script builds `glc-serve` and `glc-worker`
from the repository workspace and the `glc-perfbench` binary from
perfbench/Cargo.toml, in release mode and offline, under
$CARGO_TARGET_DIR (default `.bench_build`), then runs it. The
binary's last stdout line is the JSON result; it must hold exactly the
metrics BENCHMARK.json lists for the mode (`end_to_end` untraced,
`per_layer` traced), each in its unit. Build output goes to stderr.
Any build or run failure exits non-zero without a result.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ("paper_catalog", "analyze_bulk", "service_sessions")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse(argv):
    args = {}
    it = iter(argv)
    for flag in it:
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            fail(f"unknown flag {flag}")
        value = next(it, None)
        if value is None:
            fail(f"{flag} expects a value")
        args[flag] = value
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        if flag not in args:
            fail(f"missing {flag}")
    if args["--workload"] not in WORKLOADS:
        fail(f"unknown workload {args['--workload']}; expected one of {', '.join(WORKLOADS)}")
    return args


def cargo(target, cargo_args):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "-q", *cargo_args],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if result.returncode != 0:
        fail(f"build failed: cargo {' '.join(cargo_args)}")


def main():
    args = parse(sys.argv[1:])
    root = os.getcwd()
    for needed in ("Cargo.toml", "crates", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"run from the repository root: {needed} is missing")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    repo_target = os.path.join(target, "repo")
    bench_target = os.path.join(target, "perfbench")
    cargo(repo_target, ["-p", "glc-service", "--bin", "glc-serve", "--bin", "glc-worker"])
    cargo(bench_target, ["--manifest-path", os.path.join("perfbench", "Cargo.toml")])

    bench = os.path.join(bench_target, "release", "glc-perfbench")
    command = [
        bench,
        "--workload", args["--workload"],
        "--seed", args["--seed"],
        "--seconds", args["--seconds"],
        "--trace", args["--trace"],
        "--serve", os.path.join(repo_target, "release", "glc-serve"),
        "--worker", os.path.join(repo_target, "release", "glc-worker"),
        "--scratch", os.path.join(target, "scratch"),
    ]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        fail(f"glc-perfbench exited with {run.returncode}")
    lines = run.stdout.splitlines()
    if not lines:
        fail("glc-perfbench printed no result")
    check_metrics(json.loads(lines[-1]), args["--trace"] == "1")
    sys.stdout.write(run.stdout)


def check_metrics(result, traced):
    """Checks every reported metric against BENCHMARK.json, the one list
    of metric names and units."""
    with open("BENCHMARK.json") as spec_file:
        spec = json.load(spec_file)
    section = "per_layer" if traced else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    for name, metric in result["metrics"].items():
        if name not in units:
            fail(f"metric {name} is not in the {section} list of BENCHMARK.json")
        if metric["unit"] != units[name]:
            fail(f"metric {name} has unit {metric['unit']}, BENCHMARK.json says {units[name]}")
    missing = [name for name in units if name not in result["metrics"]]
    if missing:
        fail(f"the {section} metrics {', '.join(missing)} were not reported")


if __name__ == "__main__":
    main()
