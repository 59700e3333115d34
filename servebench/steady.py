#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same build agree?

    python3 servebench/steady.py [--runs 10] [--workloads a,b]
                                 [--seconds N] [--first-seed 1] [--json PATH]

Run from the repository root. For every workload in BENCHMARK.json it runs
the benchmark command `--runs` times in each of two sets, each run with its
own seed, and interleaves the sets (run i of set A, run i of set B, ...). It
reports, per workload and end-to-end metric, each set's median and quartiles
and the quartile spread as a share of the median. The sets agree on a metric
when both spreads stay within the metric's bound in BENCHMARK.json and the
two medians differ by no more than the bound, as a share of the first. The
share of failed requests must be the same in both sets. Exit code 0 when
everything agrees.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SETS = 2


def run_once(command, workload, seed, seconds):
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if done.returncode != 0 or result is None:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"steady: {workload} seed {seed} failed (exit {done.returncode})")
    return result, wall


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=int, default=0,
                        help="run length; default run_seconds from BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w]
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]

    # samples[set][workload] -> list of (result, wall)
    samples = [{w: [] for w in workloads} for _ in range(SETS)]
    for i in range(args.runs):
        # Alternate which set goes first, so slow drift of the host hits both sets.
        for s in ((0, 1) if i % 2 == 0 else (1, 0)):
            seed = args.first_seed + s * args.runs + i
            for w in workloads:
                result, wall = run_once(bench["command"], w, seed, seconds)
                samples[s][w].append((result, wall))
                print(f"set {s} run {i} {w} seed {seed}: {wall:.1f}s "
                      f"attempted={result['attempted']} failed={result['failed']}",
                      file=sys.stderr, flush=True)

    all_agree = True
    summary = {"runs": args.runs, "seconds": seconds, "workloads": {}}
    walls = []
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':26} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}  verdict")
        entry = {}
        shares = set()
        for s in range(SETS):
            for result, wall in samples[s][w]:
                shares.add(result["failed"] / result["attempted"])
                walls.append(wall)
        for m in metrics:
            name, bound = m["name"], m["bound"]
            rows = []
            for s in range(SETS):
                values = [r["metrics"][name]["value"] for r, _ in samples[s][w]]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else float("inf")
                rows.append({"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "values": values})
            verdicts = []
            base = rows[0]["median"]
            for s, row in enumerate(rows):
                ok = row["spread"] <= bound
                if s > 0:
                    ok = ok and base != 0 and abs(row["median"] - base) / abs(base) <= bound
                verdicts.append(ok)
                print(f"  {name:26} {s:>3} {row['median']:12.5g} {row['q1']:12.5g} "
                      f"{row['q3']:12.5g} {row['spread']:7.3f} {bound:6.2f}  "
                      f"{'agree' if ok else 'DISAGREE'}")
            all_agree = all_agree and all(verdicts)
            entry[name] = {"sets": rows, "bound": bound, "agree": all(verdicts)}
        same_share = len(shares) == 1
        all_agree = all_agree and same_share
        print(f"  failed share per run: {sorted(shares)} "
              f"({'same' if same_share else 'DIFFERS'})")
        entry["failed_share_same"] = same_share
        summary["workloads"][w] = entry

    mean_wall = statistics.mean(walls)
    print(f"\nmean run wall time {mean_wall:.1f}s, max {max(walls):.1f}s")
    summary["mean_wall_s"] = mean_wall
    summary["max_wall_s"] = max(walls)
    summary["agree"] = all_agree
    path = args.json or os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                                     "servebench", "steady.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(summary, f, indent=1)
    print(f"{'all sets agree' if all_agree else 'sets DISAGREE'}; summary in {path}")
    sys.exit(0 if all_agree else 1)


if __name__ == "__main__":
    main()
