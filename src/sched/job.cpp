#include "sched/job.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "sched/policy.hpp"
#include "sched/telemetry.hpp"

namespace qrgrid::sched {

Policy policy_of(const std::string& name) {
  if (name == "fcfs") return Policy::kFcfs;
  if (name == "spjf") return Policy::kSpjf;
  if (name == "easy") return Policy::kEasyBackfill;
  if (name == "prio-easy") return Policy::kPriorityEasy;
  if (name == "fair") return Policy::kFairShare;
  throw Error("unknown policy '" + name +
              "' (fcfs|spjf|easy|prio-easy|fair)");
}

std::string policy_name(Policy policy) {
  switch (policy) {
    case Policy::kFcfs: return "fcfs";
    case Policy::kSpjf: return "spjf";
    case Policy::kEasyBackfill: return "easy";
    case Policy::kPriorityEasy: return "prio-easy";
    case Policy::kFairShare: return "fair";
  }
  return "?";
}

void check_job(const Job& job) {
  QRGRID_CHECK_MSG(std::isfinite(job.arrival_s) && job.m >= job.n &&
                       job.n >= 1 && job.procs >= 1 &&
                       job.walltime_s >= 0.0 && job.weight > 0.0 &&
                       job.tree >= core::TreeKind::kFlat &&
                       job.tree <= core::TreeKind::kGridHierarchical,
                   "malformed job " << job.id);
}

std::string fate_name(JobFate fate) {
  switch (fate) {
    case JobFate::kCompleted: return "completed";
    case JobFate::kWalltimeKilled: return "walltime";
    case JobFate::kOutageFailed: return "outage";
  }
  return "?";
}

bool PendingOrder::operator()(const PendingEntry& a,
                              const PendingEntry& b) const {
  return policy->before(a, b);
}

JobQueue::JobQueue(const SchedulingPolicy* policy)
    : policy_(policy),
      set_(PendingOrder{policy}),
      track_classes_(policy->dynamic_order()) {}

JobQueue::JobQueue(Policy policy)
    : owned_(make_policy(policy)), set_(PendingOrder{owned_.get()}) {
  policy_ = owned_.get();
  track_classes_ = policy_->dynamic_order();
}

JobQueue::~JobQueue() = default;

void JobQueue::index_insert(Set::iterator it) {
  buckets_[policy_->order_class(it->job)].emplace(it->job.id, it);
}

void JobQueue::index_erase(Set::const_iterator it) {
  const auto b = buckets_.find(policy_->order_class(it->job));
  QRGRID_CHECK(b != buckets_.end());
  b->second.erase(it->job.id);
  if (b->second.empty()) buckets_.erase(b);
}

void JobQueue::sync() {
  if (!track_classes_) return;
  const std::vector<int> classes = policy_->moved_classes();
  if (classes.empty()) return;
  // Extraction by stored iterator is comparison-free, so it is safe even
  // though the tree's invariant no longer matches the mutated keys; the
  // remaining entries (whose keys did not move) stay mutually consistent,
  // and reinsertion compares fresh keys against them.
  std::vector<PendingEntry> moved;
  for (const int cls : classes) {
    const auto b = buckets_.find(cls);
    if (b == buckets_.end()) continue;  // no queued jobs of this class
    for (auto& [id, it] : b->second) {
      moved.push_back(std::move(const_cast<PendingEntry&>(*it)));
      set_.erase(it);
    }
    buckets_.erase(b);
  }
  for (PendingEntry& e : moved) index_insert(set_.insert(std::move(e)));
  if (metrics_ != nullptr) {
    metrics_->add("policy.resorts");
    if (!moved.empty()) {
      metrics_->add("policy.resort_reinserts",
                    static_cast<long long>(moved.size()));
    }
  }
}

void JobQueue::push(Job job, double predicted_s) {
  sync();  // insertion compares; never against stale keys (the old
           // upper_bound-over-unsorted-range UB for dynamic policies)
  auto it = set_.emplace_hint(set_.end(),
                              PendingEntry{std::move(job), predicted_s});
  if (track_classes_) index_insert(it);
}

const Job& JobQueue::front() {
  sync();
  QRGRID_CHECK(!set_.empty());
  return set_.begin()->job;
}

Job JobQueue::pop_front() {
  sync();
  QRGRID_CHECK(!set_.empty());
  Job job;
  take(set_.begin(), job);
  return job;
}

JobQueue::const_iterator JobQueue::begin() {
  sync();
  return set_.begin();
}

JobQueue::const_iterator JobQueue::take(const_iterator it, Job& out) {
  if (track_classes_) index_erase(it);
  out = std::move(const_cast<PendingEntry&>(*it).job);
  return set_.erase(it);
}

}  // namespace qrgrid::sched
