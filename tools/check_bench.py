#!/usr/bin/env python3
"""Perf-regression gate over the bench's self-profiled trajectory.

Compares a fresh BENCH_job_service.json (written by bench_job_service)
against the committed bench/BENCH_baseline.json and fails loudly when
the run drifted. Two kinds of columns, two kinds of gates:

* Virtual-time results (makespan_s, mean_wait_s, crit_run_frac) and the
  profiler's per-phase call counts are byte-deterministic for a given
  job count, so they are gated EXACTLY (1e-9 relative): any drift means
  the scheduler's decisions changed, which is a correctness event, not a
  perf event.
* Wall time, peak RSS, and the per-phase wall-share are machine-
  dependent, so they are gated by ratio: total wall <= baseline x
  --wall-factor (default 3), peak RSS <= baseline x --rss-factor
  (default 2), and each phase's share of the summed wall of the
  top-level phases within +/- --share-drift (default 0.25) absolute of
  the baseline share. Nested phases (NESTED_PHASES) also get a share of
  that sum, but add nothing to it, so adding or dropping one moves no
  other phase's share. The share gate is what catches "one phase quietly
  became the bottleneck" even when total wall still fits the
  (deliberately loose) factor.

A markdown diff report is always written (--report), pass or fail, so
CI can archive it as an artifact. Exit 0 on pass, 1 on any violation.
Stdlib only.

Usage:
  check_bench.py BENCH_job_service.json [--baseline bench/BENCH_baseline.json]
                 [--report report.md] [--wall-factor 3.0] [--rss-factor 2.0]
                 [--share-drift 0.25]
"""

import argparse
import json
import sys

EXACT_REL_TOL = 1e-9
EXACT_FIELDS = ("makespan_s", "mean_wait_s", "crit_run_frac")
# Phases timed inside another phase (src/sched/profiler.hpp): their wall
# is already part of their parent's.
NESTED_PHASES = ("shadow", "place", "profile-compute", "wan-rebalance")


def rel_drift(current, base):
    if base == current:
        return 0.0
    return abs(current - base) / max(abs(base), abs(current), 1e-300)


def phase_shares(profile):
    total = sum(p["wall_s"] for name, p in profile.items()
                if name not in NESTED_PHASES)
    if total <= 0.0:
        return {name: 0.0 for name in profile}
    return {name: p["wall_s"] / total for name, p in profile.items()}


def main():
    parser = argparse.ArgumentParser(
        description="Gate a bench run against the committed baseline.")
    parser.add_argument("current", help="fresh BENCH_job_service.json")
    parser.add_argument("--baseline", default="bench/BENCH_baseline.json")
    parser.add_argument("--report", default="bench_regression_report.md",
                        help="markdown diff report (always written)")
    parser.add_argument("--wall-factor", type=float, default=3.0)
    parser.add_argument("--rss-factor", type=float, default=2.0)
    parser.add_argument("--share-drift", type=float, default=0.25)
    args = parser.parse_args()

    with open(args.current) as f:
        cur = json.load(f)
    with open(args.baseline) as f:
        base = json.load(f)

    failures = []
    lines = ["# Bench regression report", "",
             f"current: `{args.current}` vs baseline: `{args.baseline}`", ""]

    if cur.get("jobs") != base.get("jobs"):
        failures.append(
            f"job count mismatch: run has {cur.get('jobs')}, baseline was "
            f"seeded at {base.get('jobs')} — deterministic columns are only "
            "comparable at the same count")

    base_rows = {(r["scenario"], r["config"]): r
                 for r in base.get("scenarios", [])}
    cur_rows = {(r["scenario"], r["config"]): r
                for r in cur.get("scenarios", [])}
    missing = sorted(set(base_rows) - set(cur_rows))
    for key in missing:
        failures.append(f"scenario row missing from run: {key}")
    extra = sorted(set(cur_rows) - set(base_rows))
    for key in extra:
        lines.append(f"- note: new scenario row not in baseline: `{key}`")

    lines += ["", "## Deterministic virtual-time columns (exact)", "",
              "| scenario | config | field | baseline | current | drift |",
              "|---|---|---|---|---|---|"]
    for key in sorted(base_rows):
        if key not in cur_rows:
            continue
        b, c = base_rows[key], cur_rows[key]
        for field in EXACT_FIELDS:
            if field not in b:
                continue
            drift = rel_drift(c.get(field, float("nan")), b[field])
            mark = "" if drift <= EXACT_REL_TOL else " **FAIL**"
            lines.append(f"| {key[0]} | {key[1]} | {field} | {b[field]:.17g}"
                         f" | {c.get(field, float('nan')):.17g}"
                         f" | {drift:.3g}{mark} |")
            if drift > EXACT_REL_TOL:
                failures.append(
                    f"{key[0]}/{key[1]} {field} drifted {drift:.3g} "
                    f"relative ({b[field]:.17g} -> "
                    f"{c.get(field, float('nan')):.17g}); virtual-time "
                    "results must be bit-stable")

    lines += ["", "## Wall time and memory (ratio gates)", ""]
    b_tot, c_tot = base.get("totals", {}), cur.get("totals", {})
    b_wall, c_wall = b_tot.get("wall_s", 0.0), c_tot.get("wall_s", 0.0)
    wall_ratio = c_wall / b_wall if b_wall > 0 else float("inf")
    lines.append(f"- total wall: {b_wall:.3f} s -> {c_wall:.3f} s "
                 f"(x{wall_ratio:.2f}, budget x{args.wall_factor})")
    if wall_ratio > args.wall_factor:
        failures.append(f"total wall time x{wall_ratio:.2f} over baseline "
                        f"(budget x{args.wall_factor})")
    b_rss, c_rss = b_tot.get("peak_rss_kb", -1), c_tot.get("peak_rss_kb", -1)
    if b_rss > 0 and c_rss > 0:
        rss_ratio = c_rss / b_rss
        lines.append(f"- peak RSS: {b_rss} kB -> {c_rss} kB "
                     f"(x{rss_ratio:.2f}, budget x{args.rss_factor})")
        if rss_ratio > args.rss_factor:
            failures.append(f"peak RSS x{rss_ratio:.2f} over baseline "
                            f"(budget x{args.rss_factor})")

    lines += ["", "## Self-profiled phase breakdown", "",
              "| phase | base share | cur share | drift | base calls "
              "| cur calls |", "|---|---|---|---|---|---|"]
    b_prof, c_prof = base.get("profile", {}), cur.get("profile", {})
    if b_prof and not c_prof:
        failures.append("run carries no profile object but baseline does")
    if b_prof and c_prof:
        for name in sorted(set(b_prof) - set(c_prof)):
            failures.append(f"phase missing from run profile: {name}")
        # A phase the baseline has never seen (a freshly instrumented
        # subsystem, e.g. wan-rebalance) is reported, not failed: the
        # exact call-count and share gates pick it up once the baseline
        # is regenerated with the new phase in place.
        for name in sorted(set(c_prof) - set(b_prof)):
            lines.append(f"- note: new phase not in baseline profile: "
                         f"`{name}` ({c_prof[name]['calls']} calls)")
        b_share, c_share = phase_shares(b_prof), phase_shares(c_prof)
        for name in sorted(b_prof):
            if name not in c_prof:
                continue
            drift = abs(c_share[name] - b_share[name])
            bc, cc = b_prof[name]["calls"], c_prof[name]["calls"]
            mark = ""
            if drift > args.share_drift:
                failures.append(
                    f"phase '{name}' wall share drifted "
                    f"{b_share[name]:.3f} -> {c_share[name]:.3f} "
                    f"(> {args.share_drift} absolute)")
                mark = " **FAIL**"
            if bc != cc:
                failures.append(
                    f"phase '{name}' call count changed {bc} -> {cc}; "
                    "scope entries are deterministic for a fixed workload")
                mark = " **FAIL**"
            lines.append(f"| {name} | {b_share[name]:.4f} "
                         f"| {c_share[name]:.4f} | {drift:.4f} "
                         f"| {bc} | {cc}{mark} |")

    lines += ["", "## Verdict", ""]
    if failures:
        lines.append(f"**FAIL** — {len(failures)} violation(s):")
        lines += [f"1. {f}" for f in failures]
    else:
        lines.append("**PASS** — within all tolerances.")

    with open(args.report, "w") as f:
        f.write("\n".join(lines) + "\n")

    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    print(("FAIL" if failures else "PASS") +
          f": bench vs baseline ({len(base_rows)} rows checked, "
          f"report: {args.report})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
