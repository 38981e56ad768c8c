#!/usr/bin/env python3
"""Oracle self-test: a wrong answer must show up as a failure.

    python3 ledger/selftest.py

Runs every workload twice through ledger/run.py, SECONDS each: once as is, which must
report failed = 0, and once with --inject-wrong 3, which flips one oracle
comparison in three and must report failed > 0 and correct = false.
Exits non-zero when either expectation does not hold.
"""
import json
import os
import subprocess
import sys

SECONDS = 2  # short: the self-test checks the oracles, not the timings
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run(workload, inject):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "1",
         "--seconds", str(SECONDS), "--trace", "0",
         "--inject-wrong", str(inject)],
        capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("selftest: %s run failed:\n%s" % (workload, out.stderr))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ok = True
    for workload in ["build", "bt", "serve"]:
        clean = run(workload, 0)
        wrong = run(workload, 3)
        passed = (clean["correct"] and clean["failed"] == 0 and
                  not wrong["correct"] and wrong["failed"] > 0)
        ok = ok and passed
        print("%-6s clean %d/%d failed, injected %d/%d failed: %s" %
              (workload, clean["failed"], clean["attempted"],
               wrong["failed"], wrong["attempted"],
               "ok" if passed else "FAIL"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
