#!/usr/bin/env python3
"""Same-host A/B of two source trees on one ledger workload.

    python3 ledger/ab.py --base DIR_A --head DIR_B --workload build

DIR_A and DIR_B are checkouts of the two commits (for example
`git archive <commit> | tar -x -C DIR`). Both must carry the same ledger/
and BENCHMARK.json: copy the newer benchmark into the older tree first, so
only the engine differs. Runs ten pairs of `run_seconds` runs (from the
head's BENCHMARK.json), alternating which side goes first, with seeds
1..10, and prints each end-to-end metric's median and
quartiles per side, the share of pairs the head won, and the base's own
spread (IQR / median) to judge the difference against.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10  # README's claim rule (head wins at least 9 of 10) assumes ten


def run(tree, workload, seed, seconds):
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each tree builds into its own
    out = subprocess.run(
        [sys.executable, os.path.join("ledger", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("ab: run in %s failed:\n%s" % (tree, out.stderr[-2000:]))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("ab: %s answered wrongly (seed %d)" % (tree, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--head", required=True)
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    with open(os.path.join(args.head, "BENCHMARK.json")) as f:
        ledger = json.load(f)
    better = {m["name"]: m["better"] for m in ledger["end_to_end"]}
    seconds = ledger["run_seconds"]

    base, head = [], []
    for seed in range(1, PAIRS + 1):
        order = [(args.base, base), (args.head, head)]
        if seed % 2 == 0:
            order.reverse()
        for tree, into in order:
            into.append(run(tree, args.workload, seed, seconds))
        print("pair %d done" % seed, file=sys.stderr)

    for name, direction in better.items():
        b = [r[name] for r in base]
        h = [r[name] for r in head]
        qb = statistics.quantiles(b, n=4)
        qh = statistics.quantiles(h, n=4)
        wins = sum((y < x) if direction == "lower" else (y > x)
                   for x, y in zip(b, h))
        print("%-16s base %.5g [%.5g, %.5g]  head %.5g [%.5g, %.5g]  "
              "head wins %d/%d  base spread %.3f" %
              (name, statistics.median(b), qb[0], qb[2],
               statistics.median(h), qh[0], qh[2], wins, len(b),
               (qb[2] - qb[0]) / statistics.median(b)))


if __name__ == "__main__":
    main()
