#include "sched/policy.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "sched/snapshot.hpp"
#include "sched/telemetry.hpp"

namespace qrgrid::sched {

namespace {

/// Shared tail of the FCFS-family orderings: earlier arrival first, then
/// smaller id — the final tie-break every policy ends in, which is what
/// pins byte-identical queue order on fully tied jobs.
bool arrival_then_id(const PendingEntry& a, const PendingEntry& b) {
  if (a.job.arrival_s != b.job.arrival_s) {
    return a.job.arrival_s < b.job.arrival_s;
  }
  return a.job.id < b.job.id;
}

bool priority_then_arrival(const PendingEntry& a, const PendingEntry& b) {
  if (a.job.priority != b.job.priority) {
    return a.job.priority > b.job.priority;
  }
  return arrival_then_id(a, b);
}

}  // namespace

void SchedulingPolicy::on_attempt_start(const Job&, double) {
  if (metrics_ != nullptr) metrics_->add("policy.attempt_starts");
}

bool FcfsPolicy::before(const PendingEntry& a, const PendingEntry& b) const {
  return priority_then_arrival(a, b);
}

bool SpjfPolicy::before(const PendingEntry& a, const PendingEntry& b) const {
  if (a.predicted_s != b.predicted_s) return a.predicted_s < b.predicted_s;
  return a.job.id < b.job.id;
}

bool EasyBackfillPolicy::before(const PendingEntry& a,
                                const PendingEntry& b) const {
  return arrival_then_id(a, b);
}

bool PriorityEasyPolicy::before(const PendingEntry& a,
                                const PendingEntry& b) const {
  return priority_then_arrival(a, b);
}

bool FairSharePolicy::before(const PendingEntry& a,
                             const PendingEntry& b) const {
  const double da = normalized_service(a.job.user);
  const double db = normalized_service(b.job.user);
  if (da != db) return da < db;  // least-served-per-weight user first
  return arrival_then_id(a, b);
}

bool FairSharePolicy::displaces(const Job& ahead, const Job& behind) const {
  // Mirrors before(): the deficit key is the user's normalized service,
  // so the head genuinely outranks (rather than merely pre-dates) a
  // later job only when its user is strictly less served per weight.
  return normalized_service(ahead.user) < normalized_service(behind.user);
}

void FairSharePolicy::on_attempt_start(const Job& job, double node_seconds) {
  SchedulingPolicy::on_attempt_start(job, node_seconds);
  QRGRID_CHECK_MSG(job.weight > 0.0, "job " << job.id
                                            << " has non-positive weight "
                                            << job.weight);
  service_[job.user] += node_seconds / job.weight;
  if (std::find(moved_users_.begin(), moved_users_.end(), job.user) ==
      moved_users_.end()) {
    moved_users_.push_back(job.user);
  }
  if (metrics_ != nullptr) {
    metrics_->set("policy.fair.normalized_service.user." +
                      std::to_string(job.user),
                  service_[job.user]);
  }
}

double FairSharePolicy::normalized_service(int user) const {
  const auto it = service_.find(user);
  return it == service_.end() ? 0.0 : it->second;
}

template <class V>
void FairSharePolicy::visit_fields(V& v) {
  v(service_);
  if constexpr (V::kLoading) {
    moved_users_.clear();
    for (const auto& [user, deficit] : service_) {
      QRGRID_CHECK_MSG(!std::isnan(deficit),
                       "corrupt snapshot: deficit of user " << user);
    }
  }
}

void FairSharePolicy::visit(SnapshotWriter& w) { visit_fields(w); }
void FairSharePolicy::visit(SnapshotReader& r) { visit_fields(r); }

std::unique_ptr<SchedulingPolicy> make_policy(Policy policy) {
  switch (policy) {
    case Policy::kFcfs: return std::make_unique<FcfsPolicy>();
    case Policy::kSpjf: return std::make_unique<SpjfPolicy>();
    case Policy::kEasyBackfill:
      return std::make_unique<EasyBackfillPolicy>();
    case Policy::kPriorityEasy:
      return std::make_unique<PriorityEasyPolicy>();
    case Policy::kFairShare: return std::make_unique<FairSharePolicy>();
  }
  throw Error("make_policy: unknown policy enum value");
}

}  // namespace qrgrid::sched
