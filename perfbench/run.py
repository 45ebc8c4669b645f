#!/usr/bin/env python3
"""Simulator benchmark: host cost per simulated access (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload broadcast-64 --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all          # every workload, interleaved
    python3 perfbench/run.py --pin                   # re-pin references.json

The first call builds perfbench/ (and the simulator libraries it
compiles from src/) in .bench_build/perfbench.  The last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics of the traced
run with --trace 1.  The line before it summarises every metric as
median, quartiles and sample count; a traced run also prints its exact
work ledger (every count-valued metric) as {"ledger": {...}}.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
REFERENCES = os.path.join(HERE, "references.json")
WORKLOADS = ["broadcast-64", "filtered-64", "churn-16"]
# Seeds whose run JSON is pinned in references.json: the default seed
# and one held out, so a claimed gain can be re-checked on a seed that
# was not used while the change was written.
PINNED_SEEDS = [1, 1009]
# Rounds of the interleaved `--workload all` mode, and how it folds a
# workload's per-round values: the best round for the timings, the
# largest peak memory; the exact counts agree in every round.
ALL_ROUNDS = 3
ROUND_FOLD = {"setup_s": min}


def log(*args):
    print("perfbench:", *args, file=sys.stderr)


def build():
    """Configure once, then bring the binary up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "system", "sim_system.hh")):
        log("simulator sources not found under", os.path.join(ROOT, "src"))
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "--target", "perfbench", "--parallel", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release", *generator])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, timeout=850).returncode != 0:
            log("build failed:", " ".join(step))
            return False
    return True


def measure(workload, seed, seconds, trace, references):
    """One perfbench invocation; its raw record, or None if it failed."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=seconds * 2 + 60)
    except subprocess.TimeoutExpired:
        log(workload, "timed out")
        return None
    if done.returncode != 0:
        log(workload, "exited with", done.returncode)
        return None
    record = json.loads(done.stdout.strip().splitlines()[-1])
    check_reference(record, references)
    return record


def check_reference(record, references):
    """A run whose JSON differs from the pinned reference fails whole.

    A traced run makes only the first of the seed's inputs."""
    pinned = references.get(record["workload"], {}).get(str(record["seed"]))
    digests = record["digests"]
    if pinned is not None and pinned[:len(digests)] != digests:
        log(record["workload"], "seed", record["seed"], "run JSON",
            digests, "differs from the pinned", pinned)
        record["failed"] = record["attempted"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def value(metric):
    return metric["value"] if "value" in metric else statistics.median(metric["samples"])


def merge(records):
    """Fold the rounds of one workload into one record."""
    out = {"attempted": 0, "failed": 0, "metrics": {}}
    for record in records:
        out["attempted"] += record["attempted"]
        out["failed"] += record["failed"]
        for name, m in record["metrics"].items():
            slot = out["metrics"].setdefault(name, {"unit": m["unit"], "samples": []})
            slot["samples"] += m["samples"]
            fold = ROUND_FOLD.get(name, max)
            slot["value"] = fold(slot.get("value", value(m)), value(m))
    return out


def report(workload, seed, trace, record):
    """Print the summary (and ledger) lines and the result line."""
    metrics = record["metrics"]
    attempted, failed = record["attempted"], record["failed"]
    if trace == 0:
        metrics["pass_share"] = {"unit": "share",
                                 "samples": [1.0 - failed / max(1, attempted)]}
    summary = {}
    for name, m in metrics.items():
        q1, q3 = quartiles(m["samples"])
        summary[name] = {"value": value(m),
                         "median": statistics.median(m["samples"]), "q1": q1,
                         "q3": q3, "n": len(m["samples"]), "unit": m["unit"]}
    print(json.dumps({"summary": {"workload": workload, "seed": seed,
                                  "trace": trace, "metrics": summary}}))
    if trace == 1:
        print(json.dumps({"ledger": {"workload": workload, "seed": seed, **{
            name: s["value"] for name, s in summary.items() if s["unit"] == "count"}}}))
    print(json.dumps({
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": s["value"], "unit": s["unit"]}
                    for name, s in summary.items()},
    }))
    return failed == 0


def run_all(seed, seconds, trace, references):
    """Every workload in one command, interleaved round by round so that
    host drift hits them alike; one result line per workload."""
    records = {w: [] for w in WORKLOADS}
    rounds = ALL_ROUNDS if trace == 0 else 1
    for r in range(rounds):
        order = WORKLOADS[r % len(WORKLOADS):] + WORKLOADS[:r % len(WORKLOADS)]
        for workload in order:
            record = measure(workload, seed, seconds / (rounds * len(WORKLOADS)),
                             trace, references)
            if record is None:
                return False
            records[workload].append(record)
    ok = True
    for workload in WORKLOADS:
        ok &= report(workload, seed, trace, merge(records[workload]))
    return ok


def pin():
    """Re-pin the run-JSON digests for every workload and pinned seed."""
    pinned = {}
    for workload in WORKLOADS:
        pinned[workload] = {}
        for seed in PINNED_SEEDS:
            record = measure(workload, seed, 0.1, 0, {})
            if record is None or record["failed"]:
                log("not pinning", workload, "seed", seed)
                return False
            pinned[workload][str(seed)] = record["digests"]
    with open(REFERENCES, "w") as f:
        json.dump(pinned, f, indent=2, sort_keys=True)
        f.write("\n")
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite references.json from this tree")
    args = parser.parse_args()
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.pin:
        return 0 if pin() else 1
    with open(REFERENCES) as f:
        references = json.load(f)
    if args.workload == "all":
        return 0 if run_all(args.seed, args.seconds, args.trace, references) else 1
    record = measure(args.workload, args.seed, args.seconds, args.trace, references)
    if record is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    report(args.workload, args.seed, args.trace, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
