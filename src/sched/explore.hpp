// Exhaustive same-instant interleaving explorer for the grid job service.
//
// The service resolves every event due at one virtual instant in a
// pinned order: finishes, then outage recoveries, then failures, then
// arrivals — and WITHIN each class by a deterministic tie-break (seq,
// pop order, job id). Those within-class tie-breaks are scheduling
// choices, not physics: any order is legal, and a correctness property
// that only holds under the canonical one is a bug waiting for a
// different clock. This harness drives a service through its event loop
// one step at a time, snapshots the full state before every step
// (GridJobService::snapshot — the rollback token), and exhaustively
// enumerates every alternative order a TieOracle could impose at every
// same-instant tie, validating the full TraceValidator invariant set
// plus report-level conservation on every leaf. Bounded instances only
// (a handful of jobs, 2-3 clusters): the tree is exponential in the
// number of ties by design.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sched/service.hpp"
#include "sched/telemetry.hpp"

namespace qrgrid::sched {

/// Tie oracle that replays a fixed prescription of choices — decision i
/// picks prescription[i] — and falls back to 0 (the canonical order)
/// past its end, logging every decision it is consulted on. The log is
/// both the branch discovery input of the explorer and the reproduction
/// recipe of a violating leaf: re-running a fresh service with the
/// logged choices as the prescription replays the exact interleaving.
class PrescribedOracle : public TieOracle {
 public:
  struct Decision {
    TieOracle::Kind kind = TieOracle::Kind::kCompletion;
    double t_s = 0.0;  ///< virtual instant of the tie
    int k = 0;         ///< candidates tied (always >= 2 when consulted)
    int chosen = 0;
  };

  PrescribedOracle() = default;
  explicit PrescribedOracle(std::vector<int> prescription)
      : prescription_(std::move(prescription)) {}

  int choose(Kind kind, double t_s, int k) override;

  const std::vector<Decision>& log() const { return log_; }

 private:
  std::vector<int> prescription_;
  std::vector<Decision> log_;
};

/// Builds one fresh service per enumerated interleaving, identically
/// configured every time (the snapshot's configuration tags enforce
/// this), with the explorer's tracer/metrics bound through
/// ServiceOptions. The tracer must be bound (leaf validation reads it);
/// metrics may be ignored by the factory.
using ServiceFactory = std::function<std::unique_ptr<GridJobService>(
    ServiceTracer* tracer, MetricsRegistry* metrics)>;

struct ExploreLimits {
  /// Hard cap on fully-enumerated interleavings; hitting it sets
  /// ExploreResult::truncated instead of running forever on an instance
  /// with too many ties.
  long long max_leaves = 20000;
};

/// One invariant violation found on one leaf, with the absolute choice
/// sequence that reproduces it from a fresh run: install
/// PrescribedOracle(prescription) on a factory-built service, run the
/// same workload, and the violating interleaving replays exactly.
struct ExploreViolation {
  std::string what;
  std::vector<int> prescription;
};

struct ExploreResult {
  long long leaves = 0;           ///< interleavings fully enumerated
  long long decision_points = 0;  ///< distinct k>1 ties branched on
  int max_fanout = 0;             ///< widest tie encountered
  bool truncated = false;         ///< max_leaves stopped the enumeration
  std::vector<ExploreViolation> violations;
  /// The canonical (all-zeros) leaf: its report, and its recorded event
  /// stream serialized by a SnapshotWriter — byte-comparable
  /// against an oracle-free plain run of the same factory/workload.
  ServiceReport canonical_report;
  std::string canonical_trace_bytes;

  bool ok() const { return violations.empty(); }
};

/// Depth-first enumeration of every legal same-instant ordering of
/// `jobs` on factory-built services. The first leaf is the canonical
/// order; every subsequent leaf deviates from an earlier one at exactly
/// one decision (first-deviation enumeration — each interleaving is
/// visited once), resuming from the pre-decision snapshot rather than
/// replaying from the start. Every leaf is validated with the full
/// TraceValidator invariant set plus report-level conservation (one
/// outcome per job, fate counts consistent with the report tallies);
/// violations — including a qrgrid::Error thrown mid-leaf — are
/// collected with their reproduction prescriptions, never rethrown.
ExploreResult explore_interleavings(const ServiceFactory& factory,
                                    const std::vector<Job>& jobs,
                                    const ExploreLimits& limits = {});

/// Attempt start/finish instants of the canonical (oracle-free) run —
/// the collision points an outage-kill timing sweep aims failure
/// boundaries at, so kills land exactly ON a start or completion
/// instant instead of strictly between events.
std::vector<double> harvest_attempt_instants(const ServiceFactory& factory,
                                             const std::vector<Job>& jobs);

}  // namespace qrgrid::sched
