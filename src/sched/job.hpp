// Job model and policy-ordered pending queue of the grid job service.
//
// The paper factors ONE tall-skinny matrix across the grid; the service
// layer queues STREAMS of such factorizations. A Job is the request (when
// it arrives, the matrix shape, how many processes it wants, which
// reduction tree); the JobQueue holds not-yet-started jobs in the order
// mandated by the active SchedulingPolicy (sched/policy.hpp), which owns
// the comparator the queue keeps itself sorted by. For backfilling
// policies the queue also indexes its jobs by requested process count,
// which is what the EASY backfill pass walks (JobQueue::candidates).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/tree.hpp"

namespace qrgrid::sched {

class MetricsRegistry;
class SchedulingPolicy;

/// Names for the built-in policy objects (sched/policy.hpp). The service
/// dispatches through the SchedulingPolicy interface, never on this enum;
/// it survives as the CLI/options spelling and make_policy's factory key.
enum class Policy {
  kFcfs,          ///< (priority desc, arrival); the head blocks everything
  kSpjf,          ///< shortest predicted job first (Section-IV cost model)
  kEasyBackfill,  ///< classic arrival-ordered EASY backfilling
  kPriorityEasy,  ///< EASY where higher priority claims the reservation
  kFairShare,     ///< weighted fair-share, deficit-round-robin per user
};

/// Parses "fcfs" | "spjf" | "easy" | "prio-easy" | "fair"; throws
/// qrgrid::Error otherwise.
Policy policy_of(const std::string& name);
std::string policy_name(Policy policy);

/// One queued TSQR factorization request.
struct Job {
  int id = 0;
  double arrival_s = 0.0;  ///< virtual submission time
  double m = 0.0;          ///< matrix rows
  int n = 0;               ///< matrix columns (tall-skinny: m >> n)
  int procs = 0;           ///< processes requested (rounded up to nodes)
  /// Larger runs earlier among FCFS equals; plain EASY is priority-blind
  /// (classic Lifka), prio-easy orders the whole queue by it and lets it
  /// claim the shadow reservation.
  int priority = 0;
  /// Submitting user id: the fair-share policy's accounting key. Jobs of
  /// one user share the accumulated-service deficit.
  int user = 0;
  /// The user's fair-share weight (> 0): accrued service is divided by it,
  /// so a weight-2 user is owed twice the node-seconds of a weight-1 user
  /// before falling behind in the deficit order.
  double weight = 1.0;
  core::TreeKind tree = core::TreeKind::kGridHierarchical;
  /// User-supplied walltime estimate (the batch system's -l walltime=…).
  /// 0 = unlimited. When set, EASY's reservation and backfill decisions
  /// use THIS number while execution uses the exact replay — and the job
  /// is killed (finally, no requeue) if an attempt runs past it.
  double walltime_s = 0.0;

  /// Snapshot field list (sched/snapshot.hpp).
  template <class V>
  void visit(V& v) {
    v(id, arrival_s, m, n, procs, priority, user, weight, tree, walltime_s);
  }
};

/// Throws qrgrid::Error unless the job is well-formed: a finite arrival,
/// a finite m >= n >= 1, procs >= 1, walltime_s >= 0, weight > 0, and a
/// known tree. The service's admission preflight and snapshot restore both
/// gate on it.
void check_job(const Job& job);

/// How a job left the service.
enum class JobFate {
  kCompleted,       ///< factorization finished
  kWalltimeKilled,  ///< attempt exceeded the user walltime (final)
  kOutageFailed,    ///< outage-killed with no retries left (final)
};
std::string fate_name(JobFate fate);

/// What the service records when a job leaves it — by completing or by
/// being killed for the last time. Exactly one outcome per submitted job.
struct JobOutcome {
  Job job;
  double start_s = 0.0;        ///< start of the final attempt
  double finish_s = 0.0;       ///< completion or final kill instant
  double service_s = 0.0;      ///< virtual seconds held by the final attempt
  double gflops = 0.0;         ///< useful rate inside the allocation
  std::vector<int> clusters;   ///< master cluster ids the job ran on
  std::vector<int> nodes_per_cluster;  ///< parallel to `clusters`
  int nodes = 0;               ///< total nodes held for service_s
  bool backfilled = false;     ///< started ahead of an EASY reservation
  JobFate fate = JobFate::kCompleted;
  int attempts = 1;            ///< 1 + number of outage requeues
  double wasted_node_s = 0.0;  ///< node-seconds burnt by killed attempts
  double credited_s = 0.0;     ///< replay seconds banked by restart credit
  /// Tightest shadow time EASY ever promised while this job was the
  /// blocked head (+inf when it never was); the service guarantees
  /// start_s <= reserved_start_s in fault-free, contention-free runs.
  double reserved_start_s = std::numeric_limits<double>::infinity();
  /// Shared-WAN stretch of the final attempt: service_s over what the
  /// attempt would have taken on an idle grid (its cached replay
  /// remainder plus checkpoint overhead). Exactly 1 when contention
  /// modeling is off; >= 1 for completed jobs when it is on (< 1 can
  /// only appear on killed attempts, whose service_s was truncated).
  double wan_slowdown = 1.0;

  /// --- Real-execution record of the FINAL attempt (msg-runtime backend
  /// only; all neutral under the des-replay backend). ---
  bool executed = false;      ///< the attempt actually ran on msg::Runtime
  bool exec_aborted = false;  ///< and was killed mid-run (outage/walltime)
  /// Measured virtual makespan of the real factorization (to the abort
  /// point for killed attempts); 0 when not executed.
  double measured_s = 0.0;
  /// Real numerics of the completed execution; NaN when not executed or
  /// aborted before the factorization finished.
  double residual = std::numeric_limits<double>::quiet_NaN();
  double orthogonality = std::numeric_limits<double>::quiet_NaN();

  /// Wait-blame attribution (ServiceOptions::wait_blame): seconds of
  /// this job's wait per BlameCategory, indexed by the category's int
  /// value (kBlameCategoryCount entries). The entries sum to wait_s()
  /// exactly. Empty when attribution was off.
  std::vector<double> blame_s;

  bool completed() const { return fate == JobFate::kCompleted; }
  double wait_s() const { return start_s - job.arrival_s; }
  double turnaround_s() const { return finish_s - job.arrival_s; }

  template <class V>
  void visit(V& v) {
    v(job, start_s, finish_s, service_s, gflops, clusters, nodes_per_cluster,
      nodes, backfilled, fate, attempts, wasted_node_s, credited_s,
      reserved_start_s, wan_slowdown, executed, exec_aborted, measured_s,
      residual, orthogonality, blame_s);
  }
};

/// What a SchedulingPolicy's queue comparator sees: the job plus the
/// Section-IV runtime estimate (SPJF's sort key; stored for reporting
/// under the other policies).
struct PendingEntry {
  Job job;
  double predicted_s = 0.0;
  /// Queue bookkeeping, not a policy key: JobQueue::push's running
  /// count, which orders entries whose keys tie (the multiset keeps
  /// equal keys in push order). Not snapshot state: restore re-pushes
  /// in queue order, which renumbers in the same order.
  std::uint64_t seq = 0;

  template <class V>
  void visit(V& v) { v(job, predicted_s); }
};

/// The comparator object an ordered pending-queue structure sorts by;
/// defined out of line so job.hpp needs only the policy declaration.
struct PendingOrder {
  const SchedulingPolicy* policy = nullptr;
  bool operator()(const PendingEntry& a, const PendingEntry& b) const;
};

/// Pending jobs kept in the active policy's order, so `front()` is
/// always the next job the policy owes — an ordered multiset, O(log n)
/// per push/pop instead of the old sorted vector's O(n) shifts.
///
/// Dynamic-order policies (fair-share) mutate their keys as attempts
/// start; the queue re-establishes order INCREMENTALLY through the
/// policy's moved_classes() hook: entries are bucketed by order_class()
/// (fair-share: the user), and a sync extracts and reinserts only the
/// moved classes' entries. Every ordered accessor (front/pop_front/
/// push/begin) syncs first, so a stale order — or a comparison under a
/// mutated key, the old upper_bound UB — is never observable.
/// Static-key policies never move and pay nothing.
///
/// Backfilling policies (which must have static keys) also keep a
/// per-`procs` index: for each requested process count, that size's
/// entries in queue order. A placement depends on nothing of a job but
/// its procs and the free state, so the backfill pass (candidates())
/// is a lazy merge of these buckets that skips the rest of a bucket
/// whose next member cannot be placed, until an admission changes the
/// free state. The index is derived state: maintained by push and
/// every removal, rebuilt by the snapshot load's pushes, never
/// serialized.
class JobQueue {
 public:
  using Set = std::multiset<PendingEntry, PendingOrder>;
  using const_iterator = Set::const_iterator;

 private:
  /// Queue order: the policy key, then the push count — the multiset's
  /// own order under static keys, and a strict total order. Transparent,
  /// so a bucket of queue positions can be searched by entry.
  struct QueueOrder {
    using is_transparent = void;
    const SchedulingPolicy* policy = nullptr;
    bool operator()(const PendingEntry& a, const PendingEntry& b) const;
    bool operator()(const_iterator a, const_iterator b) const {
      return (*this)(*a, *b);
    }
    bool operator()(const PendingEntry& a, const_iterator b) const {
      return (*this)(a, *b);
    }
    bool operator()(const_iterator a, const PendingEntry& b) const {
      return (*this)(*a, b);
    }
  };
  /// One procs value's queue positions, in queue order.
  using Bucket = std::set<const_iterator, QueueOrder>;

 public:
  /// Borrows the policy; the caller keeps it alive and in sync with any
  /// state its comparator reads. Throws qrgrid::Error for a policy that
  /// both backfills and has dynamic_order(): the backfill index sorts
  /// its buckets by keys such a policy would move under it.
  explicit JobQueue(const SchedulingPolicy* policy);

  /// Optional counter sink: each sync with work records one
  /// `policy.resorts` plus the entries reinserted
  /// (`policy.resort_reinserts`). Null disables recording.
  void bind_metrics(MetricsRegistry* metrics) { metrics_ = metrics; }

  void push(Job job, double predicted_s);
  /// Re-establishes policy order after the comparator's inputs changed.
  /// Called implicitly by every ordered accessor; public for callers
  /// that mutate policy state directly (tests) and want the order now.
  void resort() { sync(); }

  bool empty() const { return set_.empty(); }
  std::size_t size() const { return set_.size(); }

  const Job& front();
  Job pop_front();

  /// Ordered read-only walk (the wait-blame pass). begin() syncs.
  const_iterator begin();
  const_iterator end() const { return set_.end(); }

  /// One backfill pass over the candidates behind the head: the first
  /// `depth` entries after it in the queue order the pass starts with
  /// (depth 0 = all of them), visited in that order as a lazy merge of
  /// the per-procs buckets. After next() returns a candidate the caller
  /// either
  ///   - skip_procs(): its procs cannot be placed on the current free
  ///     state, so no later member of its bucket can either — the
  ///     bucket leaves the merge until the next take();
  ///   - take(): admits it; the free state changed, so every bucket
  ///     seeks again to its first member behind the admitted position;
  ///   - neither: it stays queued, and its bucket moves on.
  /// The pass ends when the merge runs out or passes the depth-th
  /// candidate, or right after that candidate is taken. Only
  /// backfilling policies' queues have the index; nothing may push
  /// while a pass is open.
  class Candidates {
   public:
    /// The next candidate in queue order, or null when the pass is over.
    const PendingEntry* next();
    void skip_procs();
    Job take();

   private:
    friend class JobQueue;
    struct Cursor {
      Bucket::const_iterator at;
      Bucket::const_iterator end;
    };
    /// Heap order: the cursor whose entry comes later in the queue sinks.
    struct Later {
      const QueueOrder* order;
      bool operator()(const Cursor& a, const Cursor& b) const {
        return (*order)(*b.at, *a.at);
      }
    };
    Candidates(JobQueue& queue, int depth);
    /// Restarts the merge at every bucket's first member after `behind`.
    void seek(const PendingEntry& behind);

    JobQueue* queue_;
    Later later_;
    /// Bucket cursors, min-heap by position; empty once the pass is over.
    std::vector<Cursor> heap_;
    Cursor current_{};       ///< the cursor next() last returned
    bool visiting_ = false;  ///< current_ awaits skip_procs/take
    /// The depth-th candidate; end() when the depth bounds nothing.
    const_iterator bound_;
  };
  Candidates candidates(int depth);

  /// The per-procs index as job ids in bucket order (empty unless the
  /// policy backfills): what the index tests compare against the queue.
  std::map<int, std::vector<int>> procs_index() const;

  /// Snapshot field list: the entries in (synced) queue order. Loading
  /// pushes them back through the comparator, so the policy's state must
  /// be restored first.
  template <class V>
  void visit(V& v) {
    if constexpr (V::kLoading) {
      std::vector<PendingEntry> entries;
      v(entries);
      for (PendingEntry& e : entries) {
        check_job(e.job);
        QRGRID_CHECK_MSG(!std::isnan(e.predicted_s),
                         "corrupt snapshot: pending job " << e.job.id);
        push(std::move(e.job), e.predicted_s);
      }
    } else {
      sync();
      v(set_);
    }
  }

 private:
  void sync();
  void index_insert(Set::iterator it);
  void index_erase(Set::const_iterator it);
  /// Erases the entry at `it` (and its index slots) and returns its job.
  Job take(const_iterator it);

  const SchedulingPolicy* policy_;
  Set set_;
  QueueOrder order_;
  std::uint64_t next_seq_ = 0;
  /// Class-indexed entry positions (dynamic-order policies only):
  /// order_class -> job id -> multiset position. Lets a sync extract a
  /// dirty class without scanning the queue, deterministically (id
  /// order). Erasing by stored iterator never invokes the comparator,
  /// which is what makes extraction safe while keys are already dirty.
  bool track_classes_ = false;
  std::map<int, std::map<int, Set::iterator>> buckets_;
  /// The backfill index (backfilling policies only): procs -> that
  /// size's positions in queue order; a size with no pending job has
  /// no bucket.
  bool track_procs_ = false;
  std::map<int, Bucket> by_procs_;
  MetricsRegistry* metrics_ = nullptr;
};

}  // namespace qrgrid::sched
