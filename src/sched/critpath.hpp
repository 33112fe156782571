// Critical-path analysis over a recorded service trace.
//
// The wait-blame taxonomy (sched/telemetry.hpp) says why each job
// waited; this answers the sharper question the paper's scheduling
// sections keep returning to: which of those waits actually MOVED the
// makespan? The analyzer rebuilds the dependency structure of one run
// from its event stream — each attempt's start is enabled by whatever
// event happened at exactly that instant (a completion or kill
// releasing nodes, an outage recovery, the job's own requeue or
// arrival) — and walks it backward from the makespan-defining attempt.
// The result is a chain of segments that tile [0, makespan] exactly:
//
//   run          an attempt on the critical chain held its nodes
//   outage       the chain's next attempt sat behind a down cluster
//   wait         the chain's next attempt sat in the queue (attributed
//                by BlameCategory when the run carried kWaitBlame)
//   pre-arrival  the virtual time before the chain's first job existed
//
// Exact double equality is sound here: the service is byte-
// deterministic and every enabling event carries the SAME double the
// dependent start was stamped with, so "at exactly that instant" is a
// == comparison, not a tolerance.
//
// Beyond the chain, the same enabling edges give per-attempt slack —
// how far an attempt's finish could slip before it joins the critical
// chain (0 for attempts on it) — reported per job as the minimum over
// its attempts.
#pragma once

#include <array>
#include <map>
#include <ostream>
#include <vector>

#include "sched/telemetry.hpp"

namespace qrgrid::sched {

/// One tile of the critical chain (chronological in the report).
struct CritSegment {
  enum class Kind : int { kRun = 0, kOutage, kWait, kPreArrival };
  Kind kind = Kind::kRun;
  /// The job whose attempt ran (kRun) or whose pending wait this tile
  /// explains (kWait/kOutage/kPreArrival); always >= 0 except for a
  /// kPreArrival of an empty run.
  int job = -1;
  /// The recovered cluster (kOutage only), -1 otherwise.
  int cluster = -1;
  double t0_s = 0.0;
  double t1_s = 0.0;
  /// Dominant BlameCategory of a kWait tile (largest blamed overlap),
  /// -1 when the trace carried no kWaitBlame events for the window.
  int blame = -1;
};
std::string crit_segment_kind_name(CritSegment::Kind kind);

struct CriticalPathReport {
  double makespan_s = 0.0;
  /// The chain, chronological; tiles [0, makespan_s] exactly — tiles()
  /// is the analyzer's self-check.
  std::vector<CritSegment> chain;
  int chain_attempts = 0;  ///< kRun tiles on the chain
  /// Chain composition by tile kind.
  double run_s = 0.0;
  double outage_s = 0.0;
  double wait_s = 0.0;
  double pre_arrival_s = 0.0;
  /// kWait composition by BlameCategory (zeros when blame was off).
  std::array<double, kBlameCategoryCount> wait_blame_s{};
  /// Per-job slack: how far the job's tightest attempt could slip
  /// before the makespan moves; 0 for jobs on the critical chain.
  std::map<int, double> job_slack_s;

  double path_length_s() const {
    double total = 0.0;
    for (const CritSegment& seg : chain) total += seg.t1_s - seg.t0_s;
    return total;
  }

  /// Does the chain tile [0, run_makespan_s] of the run it came from?
  /// An empty chain does for a zero makespan; otherwise the first tile
  /// starts at 0, each tile ends exactly where the next begins, and the
  /// last tile and makespan_s both equal the argument. Exact double
  /// equality: every boundary is a recorded event time.
  bool tiles(double run_makespan_s) const;
};

/// Rebuilds the run's dependency structure from a recorded stream and
/// extracts the makespan-critical chain. The stream must be a complete
/// run (every attempt closed), as produced by GridJobService::run with
/// a tracer armed; an empty or attempt-free stream yields an empty
/// report.
CriticalPathReport analyze_critical_path(
    const std::vector<ServiceTraceEvent>& events);

/// Deterministic JSON rendering (round-trip doubles, stable key order):
/// totals, the chain, and the per-job slack map.
void write_critpath_json(const CriticalPathReport& report,
                         std::ostream& out);

}  // namespace qrgrid::sched
