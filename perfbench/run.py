#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload (or all three).

usage (from the repository root):
    python3 perfbench/run.py --workload <smp_churn_10k|enclave_calls_x86|fleet_mesh_4|all> \
        --seed <n> --seconds <s> --trace <0|1>

`--workload all` runs the three workloads one after another.

The build goes to $CARGO_TARGET_DIR (default: .bench_build in the current
directory); cargo's own output goes to stderr. The benchmark prints a
human-readable block and, as the last line of stdout, one JSON result
object. A provenance record per run is written under perfbench/results/.
The exit code is non-zero, with no result line, when the build or the run
fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175
WORKLOADS = ["smp_churn_10k", "enclave_calls_x86", "fleet_mesh_4"]


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "tyche-perfbench")
    args = sys.argv[1:]
    runs = [args]
    if "--workload" in args:
        i = args.index("--workload") + 1
        if i < len(args) and args[i] == "all":
            runs = [args[:i] + [w] + args[i + 1:] for w in WORKLOADS]
    for run_args in runs:
        cmd = [exe, *run_args, "--out", os.path.join(HERE, "results")]
        try:
            run = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1
        if run.returncode != 0:
            return run.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
