// Pluggable scheduling policies for the grid job service.
//
// GridJobService used to dispatch on a closed Policy enum: queue ordering
// lived in JobQueue::before and the backfill decision was an `if (easy)`
// inside run(). This interface is that seam made explicit — a
// SchedulingPolicy owns
//
//   queue ordering        before():        which pending job is owed next
//   reservation/backfill  backfills():     may later jobs jump a blocked
//                                          head, bounded by its shadow time
//   shadow pricing        wan_priced_shadow(): price running jobs' WAN
//                                          drain estimates into the shadow
//   service accounting    on_attempt_start()/reset(): accrued state for
//                                          deficit-based orderings
//
// so a new policy never reopens service.cpp: implement the interface,
// add a Policy value, and give it a name in policy_of/policy_name and a
// case in make_policy — the one selection path. Placement is not a
// policy decision: every policy places through the same meta-scheduler
// walk (master-id cluster order, or idlest-WAN-first under
// ServiceOptions::wan_aware).
//
// Five built-ins (make_policy):
//
//   fcfs       strict (priority desc, arrival, id); the head blocks all.
//   spjf       shortest predicted job first (Section-IV Equation (1)).
//   easy       classic EASY: ARRIVAL-ordered FCFS head holding a shadow
//              reservation; later jobs backfill iff their estimate ends
//              before it. Priority-blind, as Lifka's original — byte-
//              identical to the PR-4 enum dispatch on uniform priority.
//   prio-easy  priority-aware EASY: the queue orders (priority desc,
//              arrival, id), so a higher-priority pending job CLAIMS the
//              shadow reservation from a lower-priority blocked head the
//              moment it arrives; under shared-WAN contention the shadow
//              additionally prices every running attempt's drain estimate
//              (GridWanModel::drain_estimates_s), restoring the no-delay
//              property the plain-EASY reservation loses under contention.
//   fair       weighted fair-share: deficit-round-robin over accumulated
//              service. Every started attempt charges its expected
//              node-seconds to Job::user, normalized by Job::weight; the
//              queue orders by (normalized service deficit, arrival, id),
//              so the least-served-per-weight user always owns the head.
#pragma once

#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sched/job.hpp"

namespace qrgrid::sched {

class MetricsRegistry;
class SnapshotWriter;
class SnapshotReader;

class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  /// Strict weak ordering of the pending queue; the front is the next
  /// job the policy owes the grid.
  virtual bool before(const PendingEntry& a, const PendingEntry& b) const = 0;

  /// Reservation/backfill: when true, a blocked head holds an EASY
  /// reservation at its shadow time and any later pending job may start
  /// now iff its estimated completion does not outlast that promise.
  virtual bool backfills() const { return false; }

  /// When true (and shared-WAN contention is on), the shadow time prices
  /// each running attempt's WAN drain estimate into its estimated finish
  /// instead of trusting walltime/replay bounds the drains can outlast.
  virtual bool wan_priced_shadow() const { return false; }

  /// When true, ordering keys change as service accrues (fair-share):
  /// the queue must re-establish policy order before ordered access.
  virtual bool dynamic_order() const { return false; }

  /// --- Incremental order maintenance (the JobQueue sync protocol) ---
  /// A dynamic-order policy's keys move only at well-defined instants
  /// (fair-share: on_attempt_start). Instead of a full re-sort per
  /// dispatch, the queue buckets its entries by order_class() and asks
  /// which classes moved, reinserting only those classes' entries.
  /// Static-key policies never move and pay zero resort cost.

  /// Equivalence class of entries whose keys move together (fair-share:
  /// the user id — one charge moves every queued job of that user).
  virtual int order_class(const Job&) const { return 0; }
  /// Classes whose keys moved since the last call, in first-moved order;
  /// the call consumes them. A dynamic_order() policy MUST report every
  /// key it moves here — the queue has no full-reinsert fallback. This
  /// is queue bookkeeping, not scheduling state, hence const.
  virtual std::vector<int> moved_classes() const { return {}; }

  /// Wait-blame attribution hook (ServiceOptions::wait_blame): is the
  /// queue holding `behind` back for a PRIORITY-class reason — `ahead`
  /// ordered first because it outranks `behind`, not merely because it
  /// arrived earlier? Distinguishes BlameCategory::kPriorityDisplaced
  /// from kHeldBehindReservation; never consulted by a scheduling
  /// decision. Default: a strictly higher job priority displaces.
  virtual bool displaces(const Job& ahead, const Job& behind) const {
    return ahead.priority > behind.priority;
  }

  /// Accounting hook: one attempt of `job` started and is expected to
  /// hold `node_seconds` node-seconds (requeued attempts charge again).
  virtual void on_attempt_start(const Job& job, double node_seconds);

  /// Forgets accrued state (fair-share deficits). run() calls it first,
  /// so one service can serve several workloads byte-identically.
  virtual void reset() {}

  /// Snapshot seam (sched/snapshot.hpp): one overload per visitor, since
  /// a virtual cannot be a template. Policy-private scheduling state only
  /// (fair-share deficits; nothing for the static-key policies). The
  /// service snapshots between steps, after the queue has synced, so
  /// moved-class bookkeeping is never serialized — loading restores a
  /// clean-synced policy.
  virtual void visit(SnapshotWriter&) {}
  virtual void visit(SnapshotReader&) {}

  /// Observability seam: the service binds its (optional) metrics
  /// registry before a run so policies can report their own decision
  /// costs and accrued state. Null (the default) disables recording;
  /// metrics never influence a scheduling decision.
  void bind_metrics(MetricsRegistry* metrics) { metrics_ = metrics; }

 protected:
  MetricsRegistry* metrics_ = nullptr;
};

/// The PR-1 FCFS dispatch as a policy object: (priority desc, arrival,
/// id), no backfilling.
class FcfsPolicy : public SchedulingPolicy {
 public:
  bool before(const PendingEntry& a, const PendingEntry& b) const override;
};

/// Shortest predicted job first: (predicted seconds, id).
class SpjfPolicy : public SchedulingPolicy {
 public:
  bool before(const PendingEntry& a, const PendingEntry& b) const override;
};

/// Classic EASY backfilling: arrival-ordered head with a shadow
/// reservation. Priority-blind (see prio-easy for the priority-aware
/// variant); identical to the PR-4 dispatch whenever priorities are
/// uniform — which the legacy-equivalence suites pin byte-for-byte.
class EasyBackfillPolicy : public SchedulingPolicy {
 public:
  bool before(const PendingEntry& a, const PendingEntry& b) const override;
  bool backfills() const override { return true; }
};

/// Priority-aware EASY: (priority desc, arrival, id) ordering means a
/// higher-priority pending job claims the head slot — and with it the
/// shadow reservation — from a lower-priority blocked head; plus
/// WAN-priced shadow times under contention.
class PriorityEasyPolicy : public SchedulingPolicy {
 public:
  bool before(const PendingEntry& a, const PendingEntry& b) const override;
  bool backfills() const override { return true; }
  bool wan_priced_shadow() const override { return true; }
};

/// Weighted fair-share: deficit-round-robin over accumulated service.
/// Orders by (service[user]/weight ascending, arrival, id); started
/// attempts charge expected node-seconds to their user.
class FairSharePolicy : public SchedulingPolicy {
 public:
  bool before(const PendingEntry& a, const PendingEntry& b) const override;
  bool dynamic_order() const override { return true; }
  /// Fair-share displacement is a deficit story, not a priority one: the
  /// head displaces a placeable later job when its user is strictly less
  /// served per weight.
  bool displaces(const Job& ahead, const Job& behind) const override;
  void on_attempt_start(const Job& job, double node_seconds) override;
  void reset() override {
    service_.clear();
    moved_users_.clear();
  }

  /// A started attempt moves the deficit key of exactly one user, so only
  /// that user's queued jobs need reinsertion — the queue leaves everyone
  /// else's entries in place.
  int order_class(const Job& job) const override { return job.user; }
  std::vector<int> moved_classes() const override {
    return std::exchange(moved_users_, {});
  }

  /// Normalized service a user has accumulated (node-seconds / weight);
  /// 0 for users never charged. Exposed for the fairness test suite.
  double normalized_service(int user) const;

  /// The deficit map (sorted-user order; raw f64 bits keep restored
  /// ordering keys bit-exact).
  void visit(SnapshotWriter& w) override;
  void visit(SnapshotReader& r) override;

 private:
  template <class V>
  void visit_fields(V& v);

  std::unordered_map<int, double> service_;
  /// Users charged since the queue last synced, in first-charged order.
  mutable std::vector<int> moved_users_;
};

/// Policy object for one enum value (the CLI's fcfs|spjf|easy|prio-easy|
/// fair): the only way the service obtains its policy.
std::unique_ptr<SchedulingPolicy> make_policy(Policy policy);

}  // namespace qrgrid::sched
