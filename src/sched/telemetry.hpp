// Structured observability for the grid job service.
//
// The paper's claims are all about where time goes — compute vs
// communication vs idle across clusters of clusters — yet the service's
// only lens used to be the post-hoc ServiceReport aggregate. This layer
// makes the run itself observable, deterministically:
//
//   ServiceTracer    an append-only stream of structured events (arrival,
//                    dispatch, backfill admission, reservation claim and
//                    withdrawal, outage boundaries, kills, requeues, WAN
//                    flow open/retire/rebalance, completions) emitted from
//                    GridJobService, the SchedulingPolicy hooks, the
//                    GridWanModel, and the ExecutionBackend. Timestamps
//                    are VIRTUAL time only — no wall clock ever leaks in,
//                    so two runs with one seed produce byte-identical
//                    streams.
//   MetricsRegistry  counters, gauges, fixed-bucket histograms, and
//                    vtime-indexed series (queue depth, per-link WAN
//                    load): the per-dispatch policy costs (resort/scan
//                    counts — the direct input for the O(log n)
//                    rearchitecture), backfill hit rate, and wait /
//                    slowdown distributions per user and priority class.
//   TraceValidator   a streaming consumer that replays the event stream
//                    and asserts the service's pinned invariants — event
//                    precedence (finish > outage(up > down) > arrival),
//                    per-job lifecycle legality, EASY's no-delay promise
//                    (where it is provable: no faults, no contention),
//                    and per-flow WAN byte conservation — turning the
//                    trace from a debugging aid into correctness tooling.
//
// Exports: write_chrome_trace renders per-job lifecycle spans (wait +
// every attempt), per-cluster occupancy, and queue-depth counters as
// Chrome-trace JSON that Perfetto loads directly; render_cluster_gantt
// reuses simgrid::render_timeline for a text Gantt of the busiest
// clusters; MetricsRegistry::write_json is the machine-readable side.
//
// Cost contract: everything hangs off two nullable pointers in
// ServiceOptions. A null tracer/metrics (the default) means every emit
// site is one pointer test and nothing else — the hot path never builds
// an event it will not record, and a disabled run is byte-identical to
// the pre-telemetry service.
#pragma once

#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "simgrid/topology.hpp"

namespace qrgrid::sched {

/// What happened. The four kinds the event-precedence invariant orders
/// at one instant are kCompletion/kWalltimeKill (finishes), kOutageUp,
/// kOutageDown, and kArrival; every other kind is free to interleave.
enum class TraceKind : int {
  kRunConfig = 0,        ///< one per run: policy name + invariant flags
  kArrival,              ///< job submitted (t = arrival instant)
  kDispatch,             ///< head-path start of one attempt
  kBackfillStart,        ///< backfill-path start of one attempt
  kReservationClaim,     ///< blocked head promised a start (value)
  kReservationWithdraw,  ///< a displaced holder's stale promise revoked
  kOutageDown,           ///< cluster failed
  kOutageUp,             ///< cluster recovered
  kOutageKill,           ///< attempt killed by a cluster failure
  kWalltimeKill,         ///< attempt ran past its user walltime (final)
  kRequeue,              ///< outage-killed job went back to pending
  kCompletion,           ///< factorization finished
  kWanFlowOpen,          ///< WAN model admitted a flow (value = bytes)
  kWanFlowRetire,        ///< flow retired (value = bytes actually moved)
  kWanRebalance,         ///< share structure changed (pools drained)
  kProfileCompute,       ///< backend computed (not cache-hit) a profile
  kExecute,              ///< msg backend ran an attempt for real
  kWaitBlame,            ///< why a pending job did not start (value =
                         ///  interval seconds, value2 = BlameCategory)
};
std::string trace_kind_name(TraceKind kind);

/// Why a pending job did NOT start during one vtime interval — the
/// wait-blame taxonomy the service's attribution pass (ServiceOptions::
/// wait_blame) classifies every pending job into at every dispatch
/// decision. The categories PARTITION each job's reported wait exactly:
/// summed over a job's kWaitBlame events they equal wait_s (start of the
/// final attempt minus arrival), which the TraceValidator enforces on
/// every dispatch when the kRunConfig stream says blame is on.
enum class BlameCategory : int {
  /// Not enough free nodes anywhere (the generic saturated-grid reason).
  kResourceBusy = 0,
  /// Placeable right now, but starting it could delay the blocked head's
  /// reservation (EASY shadow test failed even on the exact replay
  /// remainder) — or, under a non-backfilling policy, the queue
  /// discipline holds it behind the blocked head.
  kHeldBehindReservation,
  /// Placeable right now, held back behind a STRICTLY higher-priority
  /// (or, under fair-share, more-owed) head the policy ordered first.
  kPriorityDisplaced,
  /// Placeable and its exact/walltime estimate fits the reservation, but
  /// the WAN-priced estimate (drain shares alongside in-flight flows)
  /// does not — contention on the shared links is what blocks it.
  kWanContendedPlacement,
  /// Placement fails on the up clusters but would succeed were every
  /// down cluster recovered: an outage, not load, blocks it.
  kOutageBlocked,
  /// Behind the backfill-depth bound (ServiceOptions::backfill_depth):
  /// the dispatch pass never even examined it.
  kBackfillDepthTruncated,
  /// Placeable, and the exact replay remainder would fit the
  /// reservation, but the user's over-asked walltime estimate does not —
  /// the over-ask, not the work, blocks the backfill.
  kWalltimeEstimateBlocked,
  /// Not pending at all: wait clock consumed re-running attempts an
  /// outage killed (requeued jobs only). Closes the partition so blame
  /// sums to wait_s even across retries.
  kRequeuedRerun,
};
inline constexpr int kBlameCategoryCount = 8;
/// Stable kebab-case labels ("resource-busy", ...) — metric key suffixes
/// and the plot_sweep.py --blame legend.
std::string blame_category_name(BlameCategory category);

/// One structured event. Fixed, kind-specific payload slots: `value` /
/// `value2` carry the promised start, byte totals, or measured seconds;
/// `clusters`/`nodes` are filled on dispatch events only (the granted
/// placement); `note` is the policy label on kRunConfig.
struct ServiceTraceEvent {
  double t_s = 0.0;
  TraceKind kind = TraceKind::kRunConfig;
  int job = -1;
  int cluster = -1;
  int flow = -1;
  double value = 0.0;
  double value2 = 0.0;
  std::vector<int> clusters;
  std::vector<int> nodes;
  std::string note;

  template <class V>
  void visit(V& v) {
    v(t_s, kind, job, cluster, flow, value, value2, clusters, nodes, note);
  }
};

/// kRunConfig `value` bits: which invariants the run's configuration
/// lets a validator enforce.
inline constexpr int kTraceConfigWanContention = 1;
inline constexpr int kTraceConfigHasOutages = 2;
inline constexpr int kTraceConfigBackfills = 4;
inline constexpr int kTraceConfigWaitBlame = 8;

/// Streaming consumer of the event stream (the validator; tests plug in
/// their own). Registered sinks see every event as it is recorded.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void consume(const ServiceTraceEvent& event) = 0;
};

/// Append-only event stream. The emitting code holds a possibly-null
/// pointer and tests it before building an event — record() and emit()
/// themselves are never the guard.
class ServiceTracer {
 public:
  void record(ServiceTraceEvent event) {
    for (TraceSink* sink : sinks_) sink->consume(event);
    events_.push_back(std::move(event));
  }
  /// Builds and records one event: the emit path shared by the service,
  /// the WAN model, and the execution backends.
  void emit(TraceKind kind, double t_s, int job = -1, double value = 0.0,
            double value2 = 0.0, int flow = -1, int cluster = -1,
            std::vector<int> clusters = {}, std::vector<int> nodes = {},
            std::string note = {}) {
    record(ServiceTraceEvent{t_s, kind, job, cluster, flow, value, value2,
                             std::move(clusters), std::move(nodes),
                             std::move(note)});
  }

  /// Emitters without a timestamp of their own (backend profile misses,
  /// WAN flow retirement) stamp events at the service clock, which the
  /// event loop pushes forward here. Monotone by construction.
  void advance_to(double t_s) {
    if (t_s > now_s_) now_s_ = t_s;
  }
  double now_s() const { return now_s_; }

  void add_sink(TraceSink* sink) { sinks_.push_back(sink); }

  const std::vector<ServiceTraceEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  void clear() {
    events_.clear();
    now_s_ = 0.0;
  }

  /// Snapshot field list (sched/snapshot.hpp): the advanced clock and
  /// the recorded events. Loading REPLACES events_ without consulting
  /// sinks — restored events were already consumed when first recorded,
  /// so a streaming sink attached across a restore must be prepared to
  /// see only post-restore events (the service validates restored runs
  /// post-hoc via validate_trace() for exactly this reason).
  template <class V>
  void visit(V& v) { v(now_s_, events_); }

 private:
  std::vector<ServiceTraceEvent> events_;
  std::vector<TraceSink*> sinks_;
  double now_s_ = 0.0;
};

/// Frozen view of one fixed-bucket histogram: counts[i] holds
/// observations with value <= bounds[i] (first matching bucket), the
/// last slot is the overflow bucket.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<long long> counts;
  double sum = 0.0;
  long long count = 0;

  template <class V>
  void visit(V& v) { v(bounds, counts, sum, count); }
};

/// Deterministic metrics store: names map to counters, gauges,
/// fixed-bucket histograms, or (vtime, value) series. Every input is
/// virtual-time or count data — no wall-clock reads — so write_json is
/// byte-identical across runs with one seed. Ordered maps keep the JSON
/// key order stable without a sort at export time; their transparent
/// comparator finds a name from a string_view, so bumping an existing
/// metric builds no std::string (only a name's first touch inserts one).
class MetricsRegistry {
 public:
  void add(std::string_view name, long long delta = 1) {
    entry(counters_, name) += delta;
  }
  void set(std::string_view name, double value) {
    entry(gauges_, name) = value;
  }
  /// Observes into the histogram `name`, creating it with `bounds` (or
  /// the default log-spaced seconds scale) on first touch. Bounds are
  /// fixed at creation; later explicit bounds must match.
  void observe(std::string_view name, double value);
  void observe(std::string_view name, double value,
               const std::vector<double>& bounds);
  /// Appends one (t, value) point to the series `name`. Consecutive
  /// samples with an unchanged value are dropped (the curve is a step
  /// function); a repeated timestamp overwrites (latest wins).
  void sample(std::string_view name, double t_s, double value);

  long long counter(std::string_view name) const;
  double gauge(std::string_view name) const;
  const HistogramSnapshot* histogram(std::string_view name) const;
  const std::vector<std::pair<double, double>>* series(
      std::string_view name) const;

  /// Default histogram bounds: log-spaced 0.01 s .. 3000 s (plus the
  /// implicit overflow bucket) — wide enough for waits and service
  /// times at every bench scale.
  static const std::vector<double>& default_bounds();

  void clear();
  /// {"counters": {...}, "gauges": {...}, "histograms": {...},
  ///  "series": {...}} with round-trip double formatting.
  void write_json(std::ostream& out) const;

  /// Snapshot field list: all four stores, keys in map order, values as
  /// raw double bits — a restored registry's write_json is byte-identical
  /// to the uninterrupted run's at the same virtual instant.
  template <class V>
  void visit(V& v) { v(counters_, gauges_, histograms_, series_); }

 private:
  template <class V>
  using Store = std::map<std::string, V, std::less<>>;

  /// The value stored under `name`, value-initialized on first touch.
  template <class V>
  static V& entry(Store<V>& store, std::string_view name) {
    const auto it = store.find(name);
    if (it != store.end()) return it->second;
    return store.emplace(std::string(name), V{}).first->second;
  }

  Store<long long> counters_;
  Store<double> gauges_;
  Store<HistogramSnapshot> histograms_;
  Store<std::vector<std::pair<double, double>>> series_;
};

/// One attempt's occupancy span, reconstructed from the stream: the
/// closing kind distinguishes useful occupancy (kCompletion) from work
/// a kill threw away. Shared by the Chrome-trace and Gantt writers.
struct AttemptSpan {
  int job = -1;
  double start_s = 0.0;
  double end_s = 0.0;
  bool backfilled = false;
  TraceKind end_kind = TraceKind::kCompletion;
  std::vector<int> clusters;
  std::vector<int> nodes;
};
std::vector<AttemptSpan> attempt_spans(
    const std::vector<ServiceTraceEvent>& events);

/// A double as a JSON number with 17 significant digits (round-trip);
/// non-finite values, never produced by a healthy run, degrade to null
/// rather than emitting invalid JSON. The metrics, Chrome-trace and
/// critical-path JSON writers all format their numbers with it.
std::string json_num(double v);

/// Chrome-trace JSON (Perfetto loads it directly): per-job lifecycle
/// spans (wait + one span per attempt) on the "jobs" process, per-site
/// occupancy spans on the "clusters" process, WAN flow spans on the
/// "wan" process, kill instants, and pending/running counter tracks.
/// Virtual seconds map to trace microseconds.
void write_chrome_trace(const std::vector<ServiceTraceEvent>& events,
                        std::ostream& out);

/// Text Gantt of the busiest `max_clusters` sites (by occupied seconds;
/// ties prefer lower ids), one row per site via the labeled
/// simgrid::render_timeline: 'C' = completed-attempt occupancy, 'R' =
/// occupancy a kill threw away, '.' = idle. Empty string when the
/// stream holds no attempts.
std::string render_cluster_gantt(const std::vector<ServiceTraceEvent>& events,
                                 const simgrid::GridTopology& topology,
                                 int max_clusters, int width = 72);

/// Streaming self-check of the service's pinned invariants:
///   - virtual timestamps never decrease;
///   - event precedence at one instant: finishes (completions and
///     walltime kills), then recoveries, then failures, then arrivals;
///   - per-job lifecycle legality: arrive once, run only while pending,
///     die or complete only while running, requeue only after an outage
///     kill, exactly one terminal transition;
///   - EASY's no-delay promise — an unwithdrawn reservation claim bounds
///     the holder's actual start — enforced when the kRunConfig flags
///     say it is provable (no outages, no WAN contention);
///   - WAN byte conservation per flow: moved bytes never exceed the
///     admitted demand, and a fully drained flow moved exactly what it
///     admitted (half-byte rounding slack per pool);
///   - wait-blame partition (when the kRunConfig flags carry
///     kTraceConfigWaitBlame): kWaitBlame intervals are non-negative,
///     carry a valid category, attach only to jobs that are pending (or
///     in the killed-limbo between an outage kill and its requeue), and
///     at every dispatch the job's accumulated blame equals its elapsed
///     wait since arrival exactly — the categories partition the wait.
/// Violations accumulate as human-readable strings; finish() adds the
/// end-of-stream checks (no job left running, every flow retired).
class TraceValidator : public TraceSink {
 public:
  void consume(const ServiceTraceEvent& event) override;
  void finish();

  bool ok() const { return violations_.empty(); }
  const std::vector<std::string>& violations() const { return violations_; }
  long long events_seen() const { return events_seen_; }

 private:
  enum class JobState { kPending, kRunning, kKilledLimbo, kTerminal };
  struct FlowState {
    double admitted_bytes = 0.0;
    bool retired = false;
  };

  void fail(const ServiceTraceEvent& event, const std::string& what);

  std::vector<std::string> violations_;
  long long events_seen_ = 0;
  double last_t_s_ = 0.0;
  int last_class_ = 0;  ///< precedence class at last_t_s_
  bool enforce_no_delay_ = false;
  bool check_blame_ = false;
  bool saw_config_ = false;
  std::map<int, JobState> jobs_;
  std::map<int, double> promises_;  ///< job -> tightest unwithdrawn claim
  std::map<int, FlowState> flows_;
  std::map<int, double> arrival_s_;   ///< job -> submission instant
  std::map<int, double> blame_sum_s_; ///< job -> accumulated blame
};

/// Convenience wrapper: replays a recorded stream through a fresh
/// TraceValidator and returns its violations (empty = all invariants
/// hold).
std::vector<std::string> validate_trace(
    const std::vector<ServiceTraceEvent>& events);

}  // namespace qrgrid::sched
