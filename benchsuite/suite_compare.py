#!/usr/bin/env python3
"""Compares two sets of benchmark runs by the rules of a gain claim.

  python3 benchsuite/suite_compare.py A.json B.json
  python3 benchsuite/suite_compare.py --run PARENT_SRC CHANGE_SRC \\
      [--pairs 10] [--workload all] [--seconds 15] [--seed 2026] [--out DIR]

A is the parent, B the change; both are suite_run.py result files (or
are produced by --run). --run builds this one benchmark against both
source trees and runs --pairs pairs per workload, alternating which side
goes first; pair i uses seed + i on both sides. Stdlib only.

Per workload and metric it reports each side's median and quartiles, how
many pairs B won (ties count for neither side), and a verdict:
  gain        over at least 10 pairs, B won at least 9/10 of them and the
              medians differ by more than A's interquartile range;
  regression  B's median is worse than A's by more than the metric's bound;
  unresolved  a spread (IQR over median) exceeds the bound, unless every
              run of B beats every run of A;
  same        within the bound.
Per-layer metrics have no bound: a time reads gain, loss (the gain rule
mirrored) or same; a count reads same only when every pair agrees
exactly. A gain does not count when B failed more operations.
Exits 1 on any regression or added failure.
"""
import argparse
import json
import os
import statistics
import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import suite_run  # noqa: E402

# Units whose values are exact counts, compared for equality.
EXACT_UNITS = {"count", "B"}
# Fewer pairs than this never read as a gain or a loss.
MIN_PAIRS = 10


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare_metric(d, a, b):
    """Verdict and summary numbers for one metric's A and B runs."""
    lower = d["better"] == "lower"
    beats = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if beats(y, x))
    losses = sum(1 for x, y in pairs if beats(x, y))
    worse = ((b_med - a_med) if lower else (a_med - b_med)) / a_med \
        if a_med else 0.0
    gap = abs(b_med - a_med)
    bound = d.get("bound")
    spread = max((a_q3 - a_q1) / a_med if a_med else 0.0,
                 (b_q3 - b_q1) / b_med if b_med else 0.0)
    enough = len(pairs) >= MIN_PAIRS
    if d["unit"] in EXACT_UNITS:
        verdict = "same" if a == b else "differs"
    elif enough and wins >= 0.9 * len(pairs) and beats(b_med, a_med) and \
            gap > a_q3 - a_q1:
        verdict = "gain"
    elif bound is None:
        verdict = "loss" if enough and losses >= 0.9 * len(pairs) and \
            gap > a_q3 - a_q1 else "same"
    elif spread > bound and not all(beats(y, x) for x in a for y in b):
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regression"
    else:
        verdict = "same"
    return {"a": (a_q1, a_med, a_q3), "b": (b_q1, b_med, b_q3),
            "wins": wins, "pairs": len(pairs), "worse": worse,
            "verdict": verdict}


def compare(a_res, b_res):
    """Prints the report; returns True when nothing regressed."""
    defs = a_res["metrics"]
    ok = True
    rows, details = [], []
    for workload, a_w in a_res["workloads"].items():
        b_w = b_res["workloads"].get(workload)
        if b_w is None:
            continue
        a_failed = sum(int(r["failed"]) for r in a_w["runs"])
        b_failed = sum(int(r["failed"]) for r in b_w["runs"])
        verdicts = {}
        for d in defs:
            a = [r["metrics"][d["name"]] for r in a_w["runs"]]
            b = [r["metrics"][d["name"]] for r in b_w["runs"]]
            if not any(a + b):
                continue  # a layer this workload does not run
            c = compare_metric(d, a, b)
            if c["verdict"] == "gain" and b_failed > a_failed:
                c["verdict"] = "gain void: more failures"
            ok &= c["verdict"] != "regression"
            better = 0.0 - 100.0 * c["worse"]  # 0.0 - x keeps zero unsigned
            verdicts.setdefault(c["verdict"], []).append(
                "%s %+.1f%%" % (d["name"], better))
            details.append("%-14s %-26s %10.4g [%.4g, %.4g]  %10.4g [%.4g, %.4g]"
                           "  %5s  %+7.1f%%  %s" % (
                               workload, d["name"], c["a"][1], c["a"][0],
                               c["a"][2], c["b"][1], c["b"][0], c["b"][2],
                               "%d/%d" % (c["wins"], c["pairs"]),
                               better, c["verdict"]))
        if b_failed > a_failed:
            ok = False
        rows.append("%-14s failed %d -> %d; %s" % (
            workload, a_failed, b_failed, "; ".join(
                "%s: %s" % (v, ", ".join(m)) for v, m in sorted(
                    verdicts.items()))))
    print("Per workload (change in B's favour: + better):")
    print("\n".join(rows))
    print("\n%-14s %-26s %-30s %-30s %5s %8s  %s" % (
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
        "B won", "change", "verdict"))
    print("\n".join(details))
    return ok


def run_pairs(args):
    """Builds the benchmark against both trees; runs alternating pairs."""
    spec = suite_run.load_spec()
    defs = spec["per_layer" if args.trace else "end_to_end"]
    os.makedirs(args.out, exist_ok=True)
    sides = []
    for name, source in (("a", args.parent), ("b", args.change)):
        build_dir = os.path.join(args.out, "build-" + name)
        sides.append({"binary": suite_run.build(source, build_dir),
                      "dir": build_dir,
                      "result": {"seed": args.seed, "seconds": args.seconds,
                                 "trace": args.trace, "smoke": False,
                                 "metrics": defs, "workloads": {}}})
    workloads = suite_run.WORKLOADS if args.workload == "all" \
        else [args.workload]
    for i in range(args.pairs):
        order = sides if i % 2 == 0 else sides[::-1]
        for workload in workloads:
            for side in order:
                run = suite_run.run_process(
                    side["binary"], workload, args.seed + i, args.seconds,
                    args.trace, False, side["dir"])
                side["result"]["workloads"].setdefault(
                    workload, {"runs": []})["runs"].append(run)
                print("pair %d %s %s done" % (i, workload, side["dir"]),
                      file=sys.stderr)
    paths = []
    for name, side in zip("AB", sides):
        path = os.path.join(args.out, name + ".json")
        with open(path, "w") as f:
            json.dump(side["result"], f, indent=1)
        paths.append(path)
    print("runs written to %s and %s" % tuple(paths))
    return sides[0]["result"], sides[1]["result"]


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("files", nargs="*", help="A.json B.json")
    parser.add_argument("--run", nargs=2, metavar=("PARENT_SRC", "CHANGE_SRC"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", default="all",
                        choices=suite_run.WORKLOADS + ["all"])
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--seed", type=int, default=suite_run.REFERENCE_SEED)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=".bench_build/compare")
    args = parser.parse_args()
    if args.run:
        args.parent, args.change = args.run
        a_res, b_res = run_pairs(args)
    elif len(args.files) == 2:
        with open(args.files[0]) as f:
            a_res = json.load(f)
        with open(args.files[1]) as f:
            b_res = json.load(f)
    else:
        parser.error("give A.json B.json, or --run PARENT_SRC CHANGE_SRC")
    return 0 if compare(a_res, b_res) else 1


if __name__ == "__main__":
    sys.exit(main())
