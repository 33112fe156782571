#include "sched/job.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
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
  QRGRID_CHECK_MSG(std::isfinite(job.arrival_s) && std::isfinite(job.m) &&
                       job.m >= job.n && job.n >= 1 && job.procs >= 1 &&
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

bool JobQueue::QueueOrder::operator()(const PendingEntry& a,
                                      const PendingEntry& b) const {
  if (policy->before(a, b)) return true;
  if (policy->before(b, a)) return false;
  return a.seq < b.seq;
}

JobQueue::JobQueue(const SchedulingPolicy* policy)
    : policy_(policy),
      set_(PendingOrder{policy}),
      order_{policy},
      track_classes_(policy->dynamic_order()),
      track_procs_(policy->backfills()) {
  QRGRID_CHECK_MSG(!(track_procs_ && track_classes_),
                   "a backfilling policy must keep static order keys: "
                   "the backfill index sorts its buckets by keys a "
                   "dynamic_order() policy moves");
}

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
  auto it = set_.emplace_hint(
      set_.end(), PendingEntry{std::move(job), predicted_s, next_seq_++});
  if (track_classes_) index_insert(it);
  if (track_procs_) {
    Bucket& bucket = by_procs_.try_emplace(it->job.procs, order_).first->second;
    bucket.emplace_hint(bucket.end(), it);
  }
}

const Job& JobQueue::front() {
  sync();
  QRGRID_CHECK(!set_.empty());
  return set_.begin()->job;
}

Job JobQueue::pop_front() {
  sync();
  QRGRID_CHECK(!set_.empty());
  return take(set_.begin());
}

JobQueue::const_iterator JobQueue::begin() {
  sync();
  return set_.begin();
}

Job JobQueue::take(const_iterator it) {
  if (track_classes_) index_erase(it);
  if (track_procs_) {
    const auto b = by_procs_.find(it->job.procs);
    QRGRID_CHECK(b != by_procs_.end());
    const auto slot = b->second.find(it);
    QRGRID_CHECK(slot != b->second.end());
    b->second.erase(slot);
    if (b->second.empty()) by_procs_.erase(b);
  }
  Job out = std::move(const_cast<PendingEntry&>(*it).job);
  set_.erase(it);
  return out;
}

std::map<int, std::vector<int>> JobQueue::procs_index() const {
  std::map<int, std::vector<int>> index;
  for (const auto& [procs, bucket] : by_procs_) {
    std::vector<int>& ids = index[procs];
    for (const const_iterator it : bucket) ids.push_back(it->job.id);
  }
  return index;
}

JobQueue::Candidates JobQueue::candidates(int depth) {
  QRGRID_CHECK_MSG(track_procs_,
                   "backfill candidates need a backfilling policy's queue");
  return Candidates(*this, depth);
}

JobQueue::Candidates::Candidates(JobQueue& queue, int depth)
    : queue_(&queue), later_{&queue.order_}, bound_(queue.set_.end()) {
  if (queue.set_.empty()) return;
  // Candidates sit at positions 1 .. size-1; a depth short of the last
  // one bounds the pass at position `depth`.
  if (depth > 0 && static_cast<std::size_t>(depth) < queue.set_.size() - 1) {
    bound_ = std::next(queue.set_.begin(), depth);
  }
  seek(*queue.set_.begin());  // the head holds the reservation
}

void JobQueue::Candidates::seek(const PendingEntry& behind) {
  heap_.clear();
  for (const auto& [procs, bucket] : queue_->by_procs_) {
    const auto at = bucket.upper_bound(behind);
    if (at != bucket.end()) heap_.push_back({at, bucket.end()});
  }
  std::make_heap(heap_.begin(), heap_.end(), later_);
}

const PendingEntry* JobQueue::Candidates::next() {
  if (visiting_) {  // priced and kept: its bucket moves on
    visiting_ = false;
    if (++current_.at != current_.end) {
      heap_.push_back(current_);
      std::push_heap(heap_.begin(), heap_.end(), later_);
    }
  }
  if (heap_.empty()) return nullptr;
  std::pop_heap(heap_.begin(), heap_.end(), later_);
  current_ = heap_.back();
  heap_.pop_back();
  const const_iterator entry = *current_.at;
  if (bound_ != queue_->set_.end() && queue_->order_(*bound_, *entry)) {
    heap_.clear();  // the merge passed the depth-th candidate
    return nullptr;
  }
  visiting_ = true;
  return &*entry;
}

void JobQueue::Candidates::skip_procs() {
  QRGRID_CHECK(visiting_);
  visiting_ = false;  // the bucket stays out of the merge until a take()
}

Job JobQueue::Candidates::take() {
  QRGRID_CHECK(visiting_);
  visiting_ = false;
  const const_iterator entry = *current_.at;
  const bool last = entry == bound_;
  const PendingEntry behind = *entry;  // the seek key outlives the entry
  Job job = queue_->take(entry);
  if (last) {
    heap_.clear();  // the pass ends with the depth-th candidate
  } else {
    seek(behind);
  }
  return job;
}

}  // namespace qrgrid::sched
