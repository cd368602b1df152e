#!/usr/bin/env python3
"""Run every workload several times and judge each end-to-end metric's spread.

    python3 benchmark/steadiness.py [--runs 10] [--first-seed 1]
                                    [--save set.json] [--compare earlier.json]

Run from the repository root.  Each run is `benchmark/run.py` with its own
seed and the run length from BENCHMARK.json, for every workload listed
there.  For every workload and
end-to-end metric it prints the median, the quartiles (Python's
`statistics.quantiles(values, n=4)`), min and max, and the spread
(q3 − q1) / median against the metric's bound: a spread under a third of
the bound is steady, and one above the bound fails.
`--compare` checks a saved earlier set: no median may be worse than the
earlier one by more than its bound, and the share of failed operations
must be identical.  The exit code is non-zero when any judgement fails.
"""

import argparse
import json
import statistics
import subprocess
import sys

HERE = "benchmark"


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [
            sys.executable, f"{HERE}/run.py",
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with {out.returncode}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # Keep the workload's own figures ("<name> <number> ...") beside it.
    result["figures"] = {}
    for line in lines[:-1]:
        words = line.split()
        if len(words) >= 2:
            try:
                result["figures"][words[0]] = float(words[1])
            except ValueError:
                pass
    return result


def worse_by(metric, earlier, later):
    """How much worse `later` is than `earlier`, as a share of `earlier`."""
    if metric["better"] == "lower":
        return (later - earlier) / earlier
    return (earlier - later) / earlier


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]

    results = {}
    for workload in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(run_once(workload, seed, bench["run_seconds"]))
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{m['name']}={runs[-1]['metrics'][m['name']]['value']:.6g}" for m in metrics
            ), flush=True)
        results[workload] = runs

    earlier = None
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)
    ok = True
    print(f"{'workload':<22}{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'min':>12}{'max':>12}{'spread':>9}{'bound':>7}  verdict")
    for workload, runs in results.items():
        if not all(r["correct"] for r in runs):
            ok = False
            print(f"{workload}: a run reported wrong output")
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) != 1:
            ok = False
            print(f"{workload}: failed share differs between runs: {sorted(shares)}")
        for metric in metrics:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            verdicts = []
            if spread > metric["bound"]:
                ok = False
                verdicts.append("TOO WIDE")
            elif spread > metric["bound"] / 3:
                verdicts.append("within bound, above a third")
            else:
                verdicts.append("steady")
            if earlier is not None:
                before = [r["metrics"][name]["value"] for r in earlier[workload]]
                drift = worse_by(metric, statistics.median(before), q2)
                verdicts.append(f"vs earlier {drift:+.1%}")
                if drift > metric["bound"]:
                    ok = False
                    verdicts.append("REGRESSED")
                before_shares = {r["failed"] / r["attempted"] for r in earlier[workload]}
                if before_shares != shares:
                    ok = False
                    verdicts.append("FAILED SHARE CHANGED")
            print(f"{workload:<22}{name:<14}{q2:>12.6g}{q1:>12.6g}{q3:>12.6g}"
                  f"{min(values):>12.6g}{max(values):>12.6g}{spread:>9.2%}"
                  f"{metric['bound']:>7.2f}  {'; '.join(verdicts)}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
