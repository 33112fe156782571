#!/usr/bin/env python3
"""Benchmark of record for qrgrid: builds bench_suite against the
repository's library and runs its workloads. Stdlib only.

  python3 benchsuite/suite_run.py                   every workload, 3 processes each
  python3 benchsuite/suite_run.py --traced          per-layer metrics + span self times
  python3 benchsuite/suite_run.py --smoke           reduced sizes, whole suite < 15 s
  python3 benchsuite/suite_run.py --workload churn-fair --seed 7 --seconds 15 --trace 0
  python3 benchsuite/suite_run.py --write-reference regenerate suite_reference.json
  python3 benchsuite/suite_run.py --selftest        negative control of the reference check

Every run prints each metric by name and unit and checks the outputs: the
program's own invariants plus, where they apply, the reference values in
suite_reference.json. With one --workload the last stdout line is the
result object {"correct", "attempted", "failed", "metrics"}. With every
workload, each process's results go to --results (default
<build>/bench_results.json), the input of suite_compare.py.

The build goes to --build (default .bench_build); traces are written
there as bench_trace.<workload>.json. Metric names, units, directions and
bounds come from BENCHMARK.json at the repository root.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_PATH = os.path.join(HERE, "suite_reference.json")
REFERENCE_SEED = 2026
WORKLOADS = ["backlog-easy", "churn-fair", "wan-contended", "paper-figures",
             "tsqr-factor"]
# Workloads whose reference values depend on the seed; the others are
# compared at every seed.
SEEDED = {"backlog-easy", "churn-fair", "wan-contended"}
PROCESS_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(source, build_dir):
    """Configures (once) and builds bench_suite; returns its path."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            homes = [line.split("=", 1)[1].strip() for line in f
                     if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if [os.path.realpath(h) for h in homes] != [os.path.realpath(HERE)]:
            raise RuntimeError(
                "%s holds another CMake project's build; give --build a "
                "directory of its own" % build_dir)
    else:
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release",
                        "-DQRGRID_ROOT=" + os.path.abspath(source)],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir, "--target", "bench_suite",
                    "-j", "4"], stdout=sys.stderr, check=True,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "bench_suite")


def run_process(binary, workload, seed, seconds, trace, smoke, out_dir):
    """One fresh bench_suite process; returns its result object."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", out_dir] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError("%s: bench_suite exited %d: %s"
                           % (workload, proc.returncode, proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_mismatches(workload, observed, reference, seed, smoke):
    """Differences between a process's reference values and the committed
    ones (exact comparison); empty where the reference does not apply."""
    entry = reference["workloads"].get(workload)
    if smoke or entry is None:
        return []
    if workload in SEEDED and seed != reference["seed"]:
        return []
    bad = []
    for key, want in entry.items():
        got = observed.get(key)
        if isinstance(want, list) and isinstance(got, list) and \
                len(want) == len(got):
            diffs = [i for i, (w, g) in enumerate(zip(want, got)) if w != g]
            if diffs:
                i = diffs[0]
                bad.append("%s[%d]: expected %r, got %r (%d differ)"
                           % (key, i, want[i], got[i], len(diffs)))
        elif got != want:
            bad.append("%s: expected %r, got %r" % (key, want, got))
    return bad


def load_reference():
    with open(REFERENCE_PATH) as f:
        return json.load(f)


def median_metrics(runs, names):
    out = {}
    for name in names:
        values = [run["metrics"][name] for run in runs]
        if any(v is None for v in values):
            raise RuntimeError("metric %s is not finite" % name)
        out[name] = statistics.median(values)
    return out


def self_times(path):
    """Per span name: [count, total ms, self ms], where a span's self time
    is its duration minus the union of its direct children's intervals."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    children = {}
    for e in events:
        children.setdefault(e["args"]["parent"], []).append(
            (e["ts"], e["ts"] + e["dur"]))
    stats = {}
    for e in events:
        start, end = e["ts"], e["ts"] + e["dur"]
        covered, cursor = 0.0, start
        for lo, hi in sorted(children.get(e["args"]["id"], [])):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        s = stats.setdefault(e["name"], [0, 0.0, 0.0])
        s[0] += 1
        s[1] += e["dur"] / 1e3
        s[2] += (e["dur"] - covered) / 1e3
    return stats


def print_self_times(path):
    if not os.path.exists(path):
        return
    print("  span self times (%s):" % os.path.basename(path))
    print("    %-20s %8s %12s %12s" % ("span", "count", "total ms", "self ms"))
    for name, (count, total, own) in sorted(self_times(path).items()):
        print("    %-20s %8d %12.3f %12.3f" % (name, count, total, own))


def run_workload(args, binary, workload, reference, defs):
    """Runs `args.repeats` processes of one workload, prints its metrics,
    and returns (runs, medians, correct, attempted, failed)."""
    runs = [run_process(binary, workload, args.seed, args.seconds, args.trace,
                        args.smoke, args.build)
            for _ in range(args.repeats)]
    mismatches = []
    for run in runs:
        run["reference_mismatches"] = reference_mismatches(
            workload, run["reference"], reference, args.seed, args.smoke)
        mismatches += run["reference_mismatches"]
    medians = median_metrics(runs, [d["name"] for d in defs])
    attempted = sum(int(run["attempted"]) for run in runs)
    failed = sum(int(run["failed"]) for run in runs)
    correct = failed == 0 and not mismatches
    print("%s (seed %d, %d process%s, %s)" % (
        workload, args.seed, len(runs), "" if len(runs) == 1 else "es",
        "per-layer" if args.trace else "end-to-end"))
    for d in defs:
        values = " ".join("%.6g" % run["metrics"][d["name"]] for run in runs)
        print("  %-28s %14.6g %-6s [%s]" % (d["name"], medians[d["name"]],
                                             d["unit"], values))
    print("  %-28s %14s        (failed/attempted)" % (
        "fail_frac", "%d/%d" % (failed, attempted)))
    for run in runs:
        for err in run["errors"]:
            print("  FAILED CHECK: " + err)
    for bad in mismatches:
        print("  REFERENCE MISMATCH: " + bad)
    if args.trace:
        print_self_times(os.path.join(args.build,
                                      "bench_trace.%s.json" % workload))
    return runs, medians, correct, attempted, failed


def write_reference(args, binary):
    reference = {"seed": REFERENCE_SEED, "workloads": {}}
    for workload in WORKLOADS:
        result = run_process(binary, workload, REFERENCE_SEED, 1, False, False,
                             args.build)
        if result["failed"]:
            raise RuntimeError("%s failed its checks: %s"
                               % (workload, result["errors"]))
        reference["workloads"][workload] = result["reference"]
        print("reference: %s (%d values)" % (workload, len(result["reference"])))
    with open(REFERENCE_PATH, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote " + REFERENCE_PATH)


def selftest(args, binary):
    """Negative control: the reference check must accept the committed
    values and reject them with one value moved by one ulp."""
    reference = load_reference()
    workload = "churn-fair"
    result = run_process(binary, workload, REFERENCE_SEED, 1, False, False,
                         args.build)
    observed = result["reference"]
    clean = reference_mismatches(workload, observed, reference,
                                 REFERENCE_SEED, False)
    corrupted = json.loads(json.dumps(reference))
    values = corrupted["workloads"][workload]
    values["makespan_s"] = math.nextafter(values["makespan_s"], math.inf)
    dirty = reference_mismatches(workload, observed, corrupted,
                                 REFERENCE_SEED, False)
    held_out = reference_mismatches(workload, observed, corrupted, 7, False)
    ok = not result["failed"] and not clean and len(dirty) == 1 and \
        not held_out
    print("selftest: clean %s, corrupted %s, held-out seed %s -> %s" % (
        clean or "matches", dirty, held_out or "not compared",
        "OK" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measurement window per process")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--repeats", type=int, default=None,
                        help="fresh processes per workload (default 3 for "
                             "all workloads, 1 for one)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--build", default=".bench_build")
    parser.add_argument("--results", default=None)
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    args.trace = bool(args.trace or args.traced)
    if args.repeats is None:
        args.repeats = 3 if args.workload == "all" and not args.smoke else 1

    try:
        binary = build(ROOT, args.build)
        if args.write_reference:
            write_reference(args, binary)
            return 0
        if args.selftest:
            return selftest(args, binary)
        spec = load_spec()
        defs = spec["per_layer" if args.trace else "end_to_end"]
        reference = load_reference()
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        summary = {"seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "smoke": args.smoke,
                   "metrics": defs, "workloads": {}}
        all_correct, attempted, failed = True, 0, 0
        for workload in workloads:
            runs, medians, correct, att, fail = run_workload(
                args, binary, workload, reference, defs)
            summary["workloads"][workload] = {
                "runs": runs, "median": medians, "correct": correct}
            all_correct &= correct
            attempted += att
            failed += fail
    except (OSError, RuntimeError, subprocess.SubprocessError) as e:
        print("suite_run: error: %s" % e, file=sys.stderr)
        return 1

    if args.workload != "all":
        median = summary["workloads"][args.workload]["median"]
        print(json.dumps({
            "correct": all_correct, "attempted": attempted, "failed": failed,
            "metrics": {d["name"]: {"value": median[d["name"]],
                                    "unit": d["unit"]} for d in defs}}))
        return 0
    results = args.results or os.path.join(args.build, "bench_results.json")
    with open(results, "w") as f:
        json.dump(summary, f, indent=1)
    print("results written to %s; %s" % (
        results, "every check passed" if all_correct else "CHECKS FAILED"))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
