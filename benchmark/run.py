#!/usr/bin/env python3
"""Build the benchmark from source and run one workload in its own process.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The binary is built with cargo into
$CARGO_TARGET_DIR (default `.bench_build`); build output goes to standard
error, so the last line of standard output is the workload's JSON result.
The exit code is the benchmark's: non-zero when the build fails (for
example outside a full checkout) or the workload cannot run.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("design_paper", "kron_count", "kron_permuted_shards", "rmat_count")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("benchmark build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "kron-e2e-bench")
    run = subprocess.run(
        [
            binary,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", args.trace,
        ]
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
