#!/usr/bin/env python3
"""Build chronolog from source and run one ledger workload.

    python3 ledger/run.py --workload build|bt|serve --seed N --seconds S \
        --trace 0|1 [--inject-wrong K]

Run from the repository root. The engine and the harness (ledger/src) are
built with CMake in Release mode into $CARGO_TARGET_DIR/ledger (default
.bench_build/ledger). The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics: every end_to_end metric of
BENCHMARK.json for --trace 0, every per_layer metric for --trace 1 (the
harness reports a layer the workload does not reach as an explicit 0, and a
metric it does not report fails the run). A full report, host record included,
goes to ledger_out/. See ledger/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "ledger")
OUT_DIR = os.path.join(ROOT, "ledger_out")
RUN_TIMEOUT_S = 170


def fail(message):
    print("ledger: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "ledger")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    made = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "ledger_bench")


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["build", "bt", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--inject-wrong", type=int, default=0,
                        help="flip one oracle comparison in K (self-test)")
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            ledger = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    wanted = ledger["per_layer" if args.trace else "end_to_end"]

    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    trace_out = os.path.join(OUT_DIR, stem + ".trace.json") if args.trace else ""
    env = dict(os.environ)
    # Engine defaults only: the sequential evaluator chronolog-serve runs.
    env.pop("CHRONOLOG_NUM_THREADS", None)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--inject-wrong", str(args.inject_wrong),
               "--report", os.path.join(OUT_DIR, stem + ".report.json"),
               "--commit", git_commit()]
    if trace_out:
        command += ["--trace-out", trace_out]
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("ledger_bench did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail("ledger_bench exited with %d" % run.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    names = {m["name"] for m in wanted}
    extra = sorted(set(metrics) - names)
    if extra:
        fail("metrics missing from BENCHMARK.json: %s" % ", ".join(extra))
    for m in wanted:
        if m["name"] not in metrics:
            fail("metric %s not measured" % m["name"])
        elif metrics[m["name"]]["unit"] != m["unit"]:
            fail("unit of %s is %s, BENCHMARK.json says %s" %
                 (m["name"], metrics[m["name"]]["unit"], m["unit"]))
    ordered = {m["name"]: metrics[m["name"]] for m in wanted}
    print("note: fail_ratio %d/%d = %.6f" %
          (result["failed"], result["attempted"],
           result["failed"] / max(result["attempted"], 1)))
    if trace_out:
        print("note: Chrome trace written to %s" % os.path.relpath(trace_out))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": ordered}))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
