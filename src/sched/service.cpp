#include "sched/service.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/check.hpp"
#include "common/table.hpp"
#include "core/des_algos.hpp"
#include "model/costs.hpp"
#include "sched/profiler.hpp"
#include "sched/snapshot.hpp"
#include "sched/telemetry.hpp"
#include "sched/wan.hpp"
#include "simgrid/jobprofile.hpp"

namespace qrgrid::sched {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Connectivity bounds that confine every group of a job profile to one
/// cluster: intra-cluster GigE passes, wide-area links (>= 6 ms) do not.
constexpr double kGroupMaxLatencyS = 1e-3;
constexpr double kGroupMinBandwidthBps = 100e6 / 8.0;
/// Largest number of process groups a job may be split into when the
/// meta-scheduler cannot place it on fewer clusters.
constexpr int kMaxGroups = 8;

/// Snapshot framing (see GridJobService::snapshot). The version bumps on
/// ANY layout change — restore refuses mismatches instead of misreading.
const char kSnapshotMagic[] = "QRGS";
constexpr std::uint32_t kSnapshotVersion = 5;

/// Throws qrgrid::Error unless `p` is a placement this topology could
/// have granted: ascending distinct clusters, each holding 1..capacity
/// nodes, summing to total_nodes. Restored placements index per-cluster
/// arrays and build replay topologies, so hostile bytes stop here.
void check_placement(const Placement& p, const simgrid::GridTopology& topo) {
  QRGRID_CHECK_MSG(!p.clusters.empty() && p.clusters.size() == p.nodes.size(),
                   "corrupt snapshot: placement shape");
  int total = 0;
  for (std::size_t i = 0; i < p.clusters.size(); ++i) {
    const int c = p.clusters[i];
    QRGRID_CHECK_MSG((i == 0 ? c >= 0 : c > p.clusters[i - 1]) &&
                         c < topo.num_clusters() && p.nodes[i] >= 1 &&
                         p.nodes[i] <= topo.cluster(c).nodes,
                     "corrupt snapshot: placement on cluster " << c);
    total += p.nodes[i];
  }
  QRGRID_CHECK_MSG(total == p.total_nodes, "corrupt snapshot: placement total");
}

/// Throws qrgrid::Error unless a restored trace event is one the service
/// could have recorded on a grid of `nclusters`: a known kind, and
/// cluster tags that index the grid. The exporters (Chrome trace, Gantt,
/// critical path) index per-cluster rows by them.
void check_trace_event(const ServiceTraceEvent& ev, int nclusters) {
  bool ok = ev.kind >= TraceKind::kRunConfig &&
            ev.kind <= TraceKind::kWaitBlame && ev.cluster >= -1 &&
            ev.cluster < nclusters && ev.clusters.size() == ev.nodes.size();
  for (const int c : ev.clusters) ok = ok && c >= 0 && c < nclusters;
  QRGRID_CHECK_MSG(ok, "corrupt snapshot: trace event at t=" << ev.t_s);
}

/// Throws qrgrid::Error naming the first id that repeats: per-job
/// progress, blame, the reservation and the trace lifecycle are all
/// keyed by Job::id.
void check_unique_ids(const std::vector<Job>& jobs) {
  std::unordered_set<int> ids;
  ids.reserve(jobs.size());
  for (const Job& job : jobs) {
    QRGRID_CHECK_MSG(ids.insert(job.id).second,
                     "job id " << job.id << " appears more than once");
  }
}

}  // namespace

double covered_span_fraction(double elapsed, double span) {
  // span <= 0 only through floating-point absorption (start + tiny
  // attempt_s == start); the old raw elapsed/span then produced +inf
  // (clamped to 1 below — preserved) or, for elapsed == 0, NaN that
  // poisoned the credit math. Zero elapsed over zero span is zero cover.
  if (span <= 0.0) return elapsed > 0.0 ? 1.0 : 0.0;
  if (elapsed <= 0.0) return 0.0;
  return std::min(elapsed / span, 1.0);
}

long long total_wan_bytes(const ServiceReport& report) {
  long long bytes = 0;
  for (long long b : report.wan_egress_bytes) bytes += b;
  return bytes;
}

std::vector<std::string> summary_header() {
  return {"policy",    "makespan (s)",   "mean wait (s)",
          "max wait (s)", "jobs/hour",   "useful Gflop/s",
          "utilization %", "backfilled", "killed", "requeued",
          "wasted node-s", "WAN GB", "wan slow x", "wan busy %",
          "executed", "max resid"};
}

double max_wan_busy_fraction(const ServiceReport& report) {
  double busy = report.wan_backbone_busy;
  for (double b : report.wan_uplink_busy) busy = std::max(busy, b);
  for (double b : report.wan_downlink_busy) busy = std::max(busy, b);
  return busy;
}

std::vector<std::string> summary_row(const ServiceReport& report) {
  // Residuals live around 1e-15; fixed-point formatting would flatten
  // them all to zero, so the numerics column is scientific.
  std::ostringstream resid;
  resid.precision(2);
  resid << std::scientific << report.max_residual;
  return {policy_name(report.policy),
          format_number(report.makespan_s, 5),
          format_number(report.mean_wait_s, 4),
          format_number(report.max_wait_s, 4),
          format_number(report.throughput_jobs_per_hour, 4),
          format_number(report.aggregate_gflops, 4),
          format_number(100.0 * report.utilization, 3),
          std::to_string(report.backfilled_jobs),
          std::to_string(report.killed_jobs),
          std::to_string(report.requeued_jobs),
          format_number(report.wasted_node_seconds, 4),
          format_number(static_cast<double>(total_wan_bytes(report)) / 1e9,
                        3),
          format_number(report.mean_wan_slowdown, 4),
          format_number(100.0 * max_wan_busy_fraction(report), 3),
          std::to_string(report.executed_attempts),
          resid.str()};
}

GridJobService::GridJobService(simgrid::GridTopology topology,
                               model::Roofline roofline,
                               ServiceOptions options)
    : topology_(std::move(topology)),
      roofline_(roofline),
      options_(std::move(options)),
      policy_(make_policy(options_.policy)),
      backend_(topology_, roofline_, options_) {
  QRGRID_CHECK(options_.domains_per_cluster >= 0 ||
               options_.domains_per_cluster == core::kOneDomainPerProcess);
  // Counts with no meaning below zero: a negative depth would read as
  // "unlimited" and a negative retry or panel count as "none", so each
  // is refused by name instead.
  QRGRID_CHECK_MSG(options_.backfill_depth >= 0,
                   "backfill_depth must be >= 0 (0 = unlimited), got "
                       << options_.backfill_depth);
  QRGRID_CHECK_MSG(options_.max_retries >= 0,
                   "max_retries must be >= 0, got " << options_.max_retries);
  QRGRID_CHECK_MSG(options_.checkpoint_panels >= 0,
                   "checkpoint_panels must be >= 0, got "
                       << options_.checkpoint_panels);
  // attempt_seconds prices no checkpoint at a cost <= 0, so a negative
  // one would silently mean free checkpoints; NaN fails the comparison
  // and is refused with it.
  QRGRID_CHECK_MSG(options_.checkpoint_cost_s >= 0.0,
                   "checkpoint_cost_s must be >= 0, got "
                       << options_.checkpoint_cost_s);
  // The uplink capacity feeds every replay's WAN horizon (and, when
  // contention is on, the shared model's fair shares): zero would turn
  // transfer times infinite and deadlock the event loop.
  QRGRID_CHECK_MSG(options_.wan_link_Bps > 0.0,
                   "wan_link_Bps must be positive (got "
                       << options_.wan_link_Bps << ")");
  QRGRID_CHECK_MSG(options_.wan_backbone_Bps >= 0.0,
                   "wan_backbone_Bps must be >= 0 (0 = auto)");
  // Network-aware placement steers around the shared-WAN model's flows;
  // without that model there is nothing to steer around.
  QRGRID_CHECK_MSG(!options_.wan_aware || options_.wan_contention,
                   "wan_aware requires wan_contention");
  // Observability: the policy reports through the same caller-owned
  // sinks as the service itself (null = disabled); the backend binds
  // them from options_.
  policy_->bind_metrics(options_.metrics);
}

GridJobService::~GridJobService() = default;

double GridJobService::predicted_seconds(const Job& job) const {
  // Equation (1) with intra-cluster link constants and one domain per
  // process — an ordering estimate, not the exact replay.
  model::MachineParams mp;
  mp.latency_s = topology_.intra_cluster_link().latency_s;
  mp.inv_bandwidth_s_per_double =
      sizeof(double) / topology_.intra_cluster_link().bandwidth_Bps;
  mp.domain_gflops = roofline_.rate_gflops(job.n);
  return model::predict_tsqr_seconds(job.m, job.n, job.procs, mp);
}

// ---------------------------------------------------------------------------
// Engine: one in-flight workload — the run's state as members and its
// event loop as methods, so the loop can pause between steps (the
// stepping API), serialize itself (visit), and branch same-instant
// orderings through the tie oracle. Every event class has ONE code path:
// tied candidates are presented in canonical order and tie_pick() takes
// index 0 unless an installed oracle chooses another, so an oracle-free
// run and an always-0 oracle execute the same statements.
struct GridJobService::Engine {
  struct Running {
    double finish_s = 0.0;     ///< natural completion (exact replay)
    double kill_s = 0.0;       ///< walltime bound; +inf when unlimited
    double est_finish_s = 0.0; ///< what EASY believes: start + walltime
                               ///  (or the exact finish when unlimited)
    int seq = 0;  ///< start order, tie-break for simultaneous events
    Job job;
    Placement placement;
    double start_s = 0.0;
    /// Credited fraction banked BEFORE this attempt: the attempt covers
    /// [start_fraction, 1] of the factorization, which is what WAN bytes
    /// are pro-rated against.
    double start_fraction = 0.0;
    const ExecutionProfile* replay = nullptr;
    bool backfilled = false;
    /// Flow id in the shared-WAN model; -1 when contention is off.
    /// finish_s stays the ISOLATED replay end — the actual completion is
    /// max(finish_s, drain end), resolved by the event loop.
    int flow = -1;

    /// Snapshot field list; `replay` is re-resolved from the backend on
    /// load.
    template <class V>
    void visit(V& v) {
      v(job, finish_s, kill_s, est_finish_s, seq, placement, start_s,
        start_fraction, backfilled, flow);
    }
  };

  /// Per-job state carried across outage kills and requeues.
  struct Progress {
    int attempts = 0;            ///< attempts started so far
    /// Fraction of the factorization banked by restart credit, in whole
    /// panels (k / checkpoint_panels). A FRACTION, not seconds: panels
    /// are row blocks of the matrix, so the credit survives a retry that
    /// lands on a different placement with a different replay time.
    double credited_fraction = 0.0;
    double wasted_node_s = 0.0;  ///< node-seconds lost to kills
    /// Tightest EASY reservation promised while this job was the blocked
    /// head; +inf until it first blocks as head.
    double reserved_start_s = kInf;

    template <class V>
    void visit(V& v) {
      v(attempts, credited_fraction, wasted_node_s, reserved_start_s);
    }
  };

  /// The owning service: its tie oracle and the Equation (1) estimate.
  const GridJobService& svc;
  const simgrid::GridTopology& topology;
  const ServiceOptions& options;
  SchedulingPolicy& policy;
  /// Profiles it hands out are memoized for the service's lifetime.
  ExecutionBackend& backend;
  /// The meta-scheduler every placement of the run asks, over the full
  /// grid: try_place hands it the free processes of the moment.
  const simgrid::MetaScheduler scheduler;

  std::vector<Job> jobs;
  int nclusters = 0;
  std::vector<int> total_nodes;
  std::vector<int> cluster_ppn;
  int grid_nodes = 0;
  ServiceReport report;
  bool wan_on = false;
  std::optional<GridWanModel> wan_model;
  GridWanModel* wan = nullptr;
  /// Replayed copy of the outage trace: the run never consumes the
  /// configured original, so the same service can serve several
  /// workloads identically.
  OutageTrace trace;
  ServiceTracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
  PhaseProfiler* profiler = nullptr;
  bool blame_on = false;
  bool has_outages = false;
  std::vector<int> free_nodes;
  std::vector<int> down_depth;
  JobQueue pending;
  /// NOT in start order once completions swap-and-pop; every consumer
  /// either scans for a (key, seq) minimum or sorts explicitly.
  std::vector<Running> running;
  std::unordered_map<int, Progress> progress;
  /// Pending job currently holding the backfill reservation; -1 = none.
  /// A job that loses the head slot WITHOUT starting has its outstanding
  /// promise withdrawn along with the reservation.
  int reserved_job = -1;
  double clock = 0.0;
  double useful_node_seconds = 0.0;
  double useful_flops_total = 0.0;
  std::size_t next_arrival = 0;
  int seq = 0;
  /// Free nodes the scheduler may hand out NOW (down clusters masked
  /// out), maintained incrementally at every grant/release/outage
  /// boundary, with an ordered index over per-cluster free procs so the
  /// dispatch loop's feasibility prechecks are O(1) lookups.
  std::vector<int> placeable;
  std::multiset<long long> placeable_procs_index;
  long long placeable_procs_total = 0;
  /// Wait-blame attribution (ServiceOptions::wait_blame): one OPEN
  /// interval per pending job, flushed into per-category totals when the
  /// classified reason changes or the job starts.
  struct BlameOpen {
    int category = 0;
    double since_s = 0.0;

    template <class V>
    void visit(V& v) { v(category, since_s); }
  };
  std::unordered_map<int, BlameOpen> blame_open;
  std::unordered_map<int, std::array<double, kBlameCategoryCount>>
      blame_totals;
  /// The shadow the LAST dispatch pass promised its blocked head (+inf
  /// when none was computable) — what the blame classifier replays the
  /// backfill admission test against.
  double last_shadow = kInf;
  /// Backfill admissions of the LAST dispatch pass: each moved every job
  /// behind it up one queue position, so the blame classifier shifts the
  /// pass's depth window by this many. Not snapshot state: a snapshot
  /// sits between steps, and each step classifies after its own pass.
  int pass_backfills = 0;
  /// Placement preference: only wan_aware dispatch consults the WAN
  /// model; feasibility checks and shadow estimates stay naive.
  const GridWanModel* placement_wan = nullptr;
  /// place_now()'s answers on the CURRENT free state, keyed on procs
  /// (a placement depends on nothing else of the job): nullopt = does
  /// not fit. Both inputs — `placeable` and the WAN load scores that
  /// order clusters — move only between passes and inside start_job, so
  /// dispatch() clears it on entry and start_job on exit. Not snapshot
  /// state: it is empty at every pass start.
  std::unordered_map<int, std::optional<Placement>> placement_memo;

  /// quiet = the restore path: skip workload admission (validated by the
  /// original start()) and the preamble's telemetry emissions (the
  /// kRunConfig event, the metrics series skeleton) — the restored
  /// telemetry state already contains them.
  Engine(GridJobService& service, std::vector<Job> jobs_in, bool quiet);

  /// Asks the meta-scheduler to place the job on the free processes of
  /// `nodes_free` as 1, 2, ... kMaxGroups single-cluster groups (fewest
  /// groups first: WAN crossings cost the most). With a WAN model
  /// (wan_aware dispatch), candidate clusters are offered
  /// idlest-uplink-first, so equally feasible placements land away from
  /// in-flight WAN traffic; feasibility is unaffected.
  std::optional<Placement> try_place(
      const Job& job, const std::vector<int>& nodes_free,
      const GridWanModel* wan_pref = nullptr) const;
  /// Seconds one attempt holds its nodes on an idle grid: the uncredited
  /// replay remainder plus checkpoint I/O for every interior panel
  /// boundary the attempt will cross (checkpoint_cost_s).
  double attempt_seconds(const ExecutionProfile& replay,
                         double credited_fraction) const;
  /// EASY reservation: earliest virtual time at which accumulated
  /// ESTIMATED completions (walltime bounds when set, exact replays when
  /// not) free enough placeable nodes for `head`. Actual events never
  /// come later than the estimates, so the reservation is safe either
  /// way — except under shared-WAN contention, where drains can outlast
  /// both bounds; a policy with wan_priced_shadow() additionally prices
  /// each running attempt's drain estimate into its finish.
  double shadow_time(const Job& head) const;

  bool active() const {
    return next_arrival < jobs.size() || !pending.empty() ||
           !running.empty();
  }

  /// Rebuilds the placeable-procs index and total from `placeable`.
  void index_placeable();
  void set_placeable(int cluster, int nodes);
  void grant_nodes(const Placement& pl);
  void release_nodes(const Placement& pl);
  bool placeable_precheck(const Job& job) const;
  /// Where `job` would go on the current free state (placeable, ordered
  /// by placement_wan), or null: the O(1) precheck, then the memo,
  /// filled on a miss by try_place. The pointee lives until the memo is
  /// next cleared — the end of the next start_job at the latest.
  const Placement* place_now(const Job& job);
  void blame_flush(int job_id, double upto_s);
  double wan_finish(const Running& r) const;
  double event_of(const Running& r) const;
  bool completes(const Running& r) const;
  void charge_wan(const Running& r, double fraction);
  ExecutionResult execute_attempt(const Running& r, bool killed,
                                  double through_fraction);
  void record_outcome(Running& r, double end_s, JobFate fate,
                      const ExecutionResult& exec);
  /// Grants `placement` and starts the attempt; `placement` may be a
  /// place_now() answer, which start_job invalidates as its last step.
  void start_job(Job job, const Placement& placement, bool backfilled);
  void dispatch();
  void classify_waits();
  void apply_outage(const OutageEvent& ev);
  /// Kills one running attempt hit by the failure `ev`: charges waste,
  /// banks restart credit, and requeues the job or records its failure.
  void outage_kill(Running& victim, const OutageEvent& ev);
  /// Removes running[index] (swap-and-pop) and resolves it as the loop's
  /// next completion-class event — a completion or a walltime kill.
  void complete_one(std::size_t index);
  void resolve_completions();
  void drain_outages();
  void admit_arrivals();

  /// Which of k candidates tied at t_s (presented in canonical order)
  /// resolves next: 0, the canonical pick, unless an installed oracle
  /// chooses another. An out-of-range choice throws qrgrid::Error.
  std::size_t tie_pick(TieOracle::Kind kind, double t_s,
                       std::size_t k) const;
  /// Resolves the canonically ordered candidates in [first, last), all
  /// tied at t_s, one at a time: each next one is tie_pick()'s choice
  /// among those left, and the rest keep their relative order.
  template <class It, class Resolve>
  void resolve_tied(TieOracle::Kind kind, double t_s, It first, It last,
                    Resolve resolve) {
    for (; first != last; ++first) {
      const It chosen =
          first + static_cast<std::ptrdiff_t>(tie_pick(
                      kind, t_s, static_cast<std::size_t>(last - first)));
      std::rotate(first, chosen, chosen + 1);
      resolve(*first);
    }
  }

  void step();
  ServiceReport finish();

  /// The service's trace-emit path: records an event when a tracer is
  /// bound and builds nothing otherwise. `cluster` tags outage events, a
  /// `placement` fills a start event's clusters/nodes, and kRunConfig
  /// carries the policy name.
  void emit(TraceKind kind, double t_s, int job = -1, double value = 0.0,
            double value2 = 0.0, int flow = -1, int cluster = -1,
            const Placement* placement = nullptr) const {
    if (tracer == nullptr) return;
    tracer->emit(kind, t_s, job, value, value2, flow, cluster,
                 placement != nullptr ? placement->clusters
                                      : std::vector<int>{},
                 placement != nullptr ? placement->nodes : std::vector<int>{},
                 kind == TraceKind::kRunConfig ? policy_name(options.policy)
                                              : "");
  }

  /// Snapshot field list of the in-flight state (the job list travels
  /// ahead of it: restore() needs it to construct the Engine).
  template <class V>
  void visit(V& v);
  /// Snapshot load: range-checks the restored indices and free-node
  /// state, rebuilds the placeable-procs index, and silently re-warms
  /// the backend's profile cache from `exemplars`.
  void rebuild_after_load(const std::vector<ProfileExemplar>& exemplars);
};

GridJobService::Engine::Engine(GridJobService& service,
                               std::vector<Job> jobs_in, bool quiet)
    : svc(service),
      topology(service.topology_),
      options(service.options_),
      policy(*service.policy_),
      backend(service.backend_),
      scheduler(service.topology_),
      jobs(std::move(jobs_in)),
      trace(options.outages),
      pending(&policy) {
  std::stable_sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    return a.arrival_s != b.arrival_s ? a.arrival_s < b.arrival_s
                                      : a.id < b.id;
  });

  nclusters = topology.num_clusters();
  total_nodes.assign(static_cast<std::size_t>(nclusters), 0);
  cluster_ppn.assign(static_cast<std::size_t>(nclusters), 0);
  for (int c = 0; c < nclusters; ++c) {
    total_nodes[static_cast<std::size_t>(c)] = topology.cluster(c).nodes;
    cluster_ppn[static_cast<std::size_t>(c)] =
        topology.cluster(c).procs_per_node;
    grid_nodes += topology.cluster(c).nodes;
  }
  if (!quiet) {
    check_unique_ids(jobs);
    // Admission preflight. Whether a job fits the EMPTY fully-up grid
    // depends only on its procs count (shape never constrains placement),
    // so a million-job workload pays one real placement per distinct size.
    std::unordered_set<int> feasible_procs;
    for (const Job& job : jobs) {
      check_job(job);
      if (!feasible_procs.insert(job.procs).second) continue;
      QRGRID_CHECK_MSG(try_place(job, total_nodes).has_value(),
                       "job " << job.id << " (" << job.procs
                              << " procs) cannot fit the grid at all");
    }
  }

  // Accrued policy state (fair-share deficits) must not leak between
  // workloads: the same service serving the same jobs twice reports
  // byte-identically. The restore path loads the saved deficits over
  // this clean slate.
  policy.reset();

  report.policy = options.policy;
  report.wan_egress_bytes.assign(static_cast<std::size_t>(nclusters), 0);
  report.wan_ingress_bytes.assign(static_cast<std::size_t>(nclusters), 0);
  report.wan_uplink_busy.assign(static_cast<std::size_t>(nclusters), 0.0);
  report.wan_downlink_busy.assign(static_cast<std::size_t>(nclusters), 0.0);

  // Shared-WAN contention: one grid-wide model every in-flight attempt
  // registers its inter-site byte demand with. Per run, like the outage
  // trace, so serving several workloads from one service stays pure —
  // and only built when contention is on, so its capacity invariants
  // cannot reject runs that never consult it.
  wan_on = options.wan_contention;
  if (wan_on) {
    const double backbone_Bps =
        options.wan_backbone_Bps > 0.0
            ? options.wan_backbone_Bps
            : options.wan_link_Bps * std::max(1, nclusters / 2);
    wan_model.emplace(nclusters, options.wan_link_Bps, backbone_Bps,
                      options.wan_fairness);
  }
  wan = wan_model ? &*wan_model : nullptr;

  // Observability (sched/telemetry.hpp): both sinks are caller-owned and
  // usually null; every emit site guards on the pointer so a disabled
  // run never builds an event. Nothing recorded here feeds back into a
  // scheduling decision.
  tracer = options.tracer;
  metrics = options.metrics;
  profiler = options.profiler;
  blame_on = options.wait_blame;
  has_outages = trace.enabled();
  if (wan != nullptr) {
    wan->set_tracer(tracer);
    wan->set_profiler(profiler);
  }
  if (!quiet) {
    emit(TraceKind::kRunConfig, 0.0, -1,
         (wan_on ? kTraceConfigWanContention : 0) |
             (has_outages ? kTraceConfigHasOutages : 0) |
             (policy.backfills() ? kTraceConfigBackfills : 0) |
             (blame_on ? kTraceConfigWaitBlame : 0));
  }
  if (!quiet && metrics != nullptr) {
    // Series skeleton at t=0: every step curve the loop samples exists
    // deterministically even when the loop never iterates (an empty
    // workload), so consumers can rely on the key set. The loop's own
    // first sample at the same instant overwrites these in place.
    metrics->sample("queue_depth", 0.0, 0.0);
    metrics->sample("running_jobs", 0.0, 0.0);
    if (wan_on) {
      for (int c = 0; c < nclusters; ++c) {
        metrics->sample("wan.uplink_load.c" + std::to_string(c), 0.0, 0.0);
      }
      metrics->sample("wan.backbone_load", 0.0, 0.0);
      metrics->sample("wan.live_flows", 0.0, 0.0);
    }
  }
  free_nodes = total_nodes;
  down_depth.assign(static_cast<std::size_t>(nclusters), 0);
  pending.bind_metrics(metrics);
  placeable = free_nodes;
  index_placeable();
  placement_wan = options.wan_aware ? wan : nullptr;
}

std::optional<Placement> GridJobService::Engine::try_place(
    const Job& job, const std::vector<int>& nodes_free,
    const GridWanModel* wan_pref) const {
  // Necessary-condition prechecks before the meta-scheduler walk: any
  // allocation needs job.procs free procs in total, and every group
  // (even at the max split) is confined to one cluster, so SOME cluster
  // must hold ceil(procs / kMaxGroups) procs. Pure rejections: a job
  // that passes is placed by the walk alone.
  std::vector<int> free_procs(static_cast<std::size_t>(nclusters));
  long long free_total = 0;
  long long max_cluster_procs = 0;
  for (std::size_t c = 0; c < free_procs.size(); ++c) {
    const long long procs =
        static_cast<long long>(nodes_free[c]) * cluster_ppn[c];
    free_procs[c] = static_cast<int>(procs);  // <= the cluster's procs
    free_total += procs;
    max_cluster_procs = std::max(max_cluster_procs, procs);
  }
  if (job.procs > free_total) return std::nullopt;
  const int min_group_procs =
      (job.procs + kMaxGroups - 1) / kMaxGroups;
  if (min_group_procs > max_cluster_procs) return std::nullopt;

  // Placement scoring: master-id order, or idlest-WAN-link-first under
  // wan_aware dispatch, so the meta-scheduler's first-fit lands equally
  // feasible groups away from in-flight flows. The stable sort keeps
  // master-id order among ties, so an idle WAN reproduces the naive
  // order exactly.
  std::vector<int> order(static_cast<std::size_t>(nclusters));
  std::iota(order.begin(), order.end(), 0);
  if (wan_pref != nullptr) {
    if (metrics != nullptr) metrics->add("policy.cluster_order_wan_sorts");
    std::stable_sort(order.begin(), order.end(), [wan_pref](int a, int b) {
      return wan_pref->load_score(a) < wan_pref->load_score(b);
    });
  }

  // Fewest groups first: every extra group is another cluster boundary the
  // R-factor reduction must cross on a wide-area link.
  simgrid::GroupRequirement req;
  req.max_intra_latency_s = kGroupMaxLatencyS;
  req.min_intra_bandwidth_Bps = kGroupMinBandwidthBps;
  simgrid::JobProfile profile;
  for (int g = 1; g <= kMaxGroups; ++g) {
    const int group_procs = (job.procs + g - 1) / g;
    req.processes = group_procs;
    profile.groups.assign(static_cast<std::size_t>(g), req);
    // Only each group's cluster matters here; the per-rank machine file
    // (allocate) is never built for a probe.
    const auto group_cluster =
        scheduler.choose_clusters(profile, free_procs, order);
    if (!group_cluster.has_value()) continue;

    // Node-exclusive grant per cluster, in ascending cluster id whatever
    // order the clusters were offered in: the canonical form the replay
    // cache key and the report's parallel arrays rely on.
    std::vector<int> procs_used(static_cast<std::size_t>(nclusters), 0);
    for (const int c : *group_cluster) {
      procs_used[static_cast<std::size_t>(c)] += group_procs;
    }
    Placement placement;
    for (int c = 0; c < nclusters; ++c) {
      const int procs = procs_used[static_cast<std::size_t>(c)];
      if (procs == 0) continue;
      const int ppn = cluster_ppn[static_cast<std::size_t>(c)];
      const int nodes = (procs + ppn - 1) / ppn;
      placement.clusters.push_back(c);
      placement.nodes.push_back(nodes);
      placement.total_nodes += nodes;
    }
    return placement;
  }
  return std::nullopt;
}

double GridJobService::Engine::attempt_seconds(
    const ExecutionProfile& replay, double credited_fraction) const {
  const double remaining = replay.seconds * (1.0 - credited_fraction);
  // Same gate as the outage path's credit banking (restart_credit &&
  // checkpoint_panels > 0): whenever a kill can BANK panels, this path
  // prices the checkpoints that protect them — and with
  // checkpoint_cost_s == 0 the priced overhead is exactly zero, the
  // documented "free credit" configuration (ServiceOptions), not an
  // accounting hole.
  if (!options.restart_credit || options.checkpoint_panels <= 0) {
    return remaining;
  }
  if (options.checkpoint_cost_s <= 0.0) return remaining;
  // Every interior panel boundary still ahead of the attempt writes a
  // checkpoint over the intra-cluster link (the last panel completes the
  // job — nothing left to protect). Banked panels were written by the
  // killed attempt that earned them.
  const int panels = options.checkpoint_panels;
  const int banked = static_cast<int>(
      std::floor(credited_fraction * panels + 1e-9));
  const int to_write = std::max(0, panels - 1 - banked);
  return remaining + to_write * options.checkpoint_cost_s;
}

double GridJobService::Engine::shadow_time(const Job& head) const {
  // Sort by ESTIMATED finish: the scheduler plans with walltimes, not with
  // the exact replays it could not know on a real machine. A WAN-priced
  // policy knows drains can outlast both bounds, so each running
  // attempt's finish is lifted to its pessimistic drain estimate.
  const bool priced = wan != nullptr && policy.wan_priced_shadow();
  std::vector<double> drain_estimates;
  std::vector<int> flow_ids;
  if (priced) {
    flow_ids.reserve(running.size());
    for (const Running& r : running) {
      if (r.flow >= 0) flow_ids.push_back(r.flow);
    }
    wan->drain_estimates_s(clock, flow_ids, drain_estimates);
  }
  std::vector<std::pair<double, const Running*>> by_finish;
  by_finish.reserve(running.size());
  std::size_t next_estimate = 0;
  for (const Running& r : running) {
    double est = r.est_finish_s;
    double drain = 0.0;
    if (priced && r.flow >= 0) {
      drain = drain_estimates[next_estimate++];  // parallel to flow_ids
    }
    // Walltime-bounded attempts release their nodes at kill_s no matter
    // how far the drains stretch (the kill caps wan_finish), so only
    // unlimited attempts need their drain estimate priced in.
    if (priced && r.flow >= 0 && r.job.walltime_s <= 0.0) {
      est = std::max(est, drain);
    }
    by_finish.emplace_back(est, &r);
  }
  std::sort(by_finish.begin(), by_finish.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first < b.first
                                        : a.second->seq < b.second->seq;
            });
  std::vector<int> free = placeable;
  for (const auto& [est, r] : by_finish) {
    for (std::size_t i = 0; i < r->placement.clusters.size(); ++i) {
      free[static_cast<std::size_t>(r->placement.clusters[i])] +=
          r->placement.nodes[i];
    }
    if (try_place(head, free).has_value()) return est;
  }
  // Reachable only when a cluster the head needs is down: the reservation
  // waits on a recovery, not on nodes.
  return kInf;
}

void GridJobService::Engine::index_placeable() {
  placeable_procs_index.clear();
  placeable_procs_total = 0;
  for (std::size_t c = 0; c < placeable.size(); ++c) {
    const long long procs =
        static_cast<long long>(placeable[c]) * cluster_ppn[c];
    placeable_procs_index.insert(procs);
    placeable_procs_total += procs;
  }
}

// Every placeable[c] mutation goes through here to keep the index true.
void GridJobService::Engine::set_placeable(int cluster, int nodes) {
  const auto c = static_cast<std::size_t>(cluster);
  const long long before =
      static_cast<long long>(placeable[c]) * cluster_ppn[c];
  const long long after =
      static_cast<long long>(nodes) * cluster_ppn[c];
  placeable[c] = nodes;
  if (before == after) return;
  placeable_procs_index.erase(placeable_procs_index.find(before));
  placeable_procs_index.insert(after);
  placeable_procs_total += after - before;
}

void GridJobService::Engine::grant_nodes(const Placement& pl) {
  for (std::size_t i = 0; i < pl.clusters.size(); ++i) {
    const auto c = static_cast<std::size_t>(pl.clusters[i]);
    free_nodes[c] -= pl.nodes[i];
    QRGRID_CHECK(free_nodes[c] >= 0);
    if (down_depth[c] == 0) {
      set_placeable(pl.clusters[i], placeable[c] - pl.nodes[i]);
    }
  }
}

void GridJobService::Engine::release_nodes(const Placement& pl) {
  for (std::size_t i = 0; i < pl.clusters.size(); ++i) {
    const auto c = static_cast<std::size_t>(pl.clusters[i]);
    free_nodes[c] += pl.nodes[i];
    if (down_depth[c] == 0) {
      set_placeable(pl.clusters[i], placeable[c] + pl.nodes[i]);
    }
  }
}

// O(1) screen before a try_place on the CURRENT placeable state: the
// same two necessary conditions try_place itself checks, served from
// the maintained aggregates. False means try_place would return
// nullopt; true decides nothing.
bool GridJobService::Engine::placeable_precheck(const Job& job) const {
  if (job.procs > placeable_procs_total) return false;
  const int min_group_procs =
      (job.procs + kMaxGroups - 1) / kMaxGroups;
  return min_group_procs <= *placeable_procs_index.rbegin();
}

const Placement* GridJobService::Engine::place_now(const Job& job) {
  if (!placeable_precheck(job)) return nullptr;
  const auto [entry, miss] = placement_memo.try_emplace(job.procs);
  if (miss) {
    PhaseScope scope(profiler, ProfilePhase::kPlace);
    entry->second = try_place(job, placeable, placement_wan);
  }
  return entry->second ? &*entry->second : nullptr;
}

// Wait-blame attribution (opt-in via ServiceOptions::wait_blame): one
// OPEN interval per pending job — "held since when, for which reason"
// — re-classified after every dispatch pass. An interval flushes into
// per-category totals (and a kWaitBlame event) when the reason changes
// or the job starts, so the categories partition each job's wait
// exactly; requeued runtime flushes as kRequeuedRerun from the outage
// path, which closes the partition across retries. Pure observation:
// nothing here feeds back into a scheduling decision.
void GridJobService::Engine::blame_flush(int job_id, double upto_s) {
  const auto it = blame_open.find(job_id);
  if (it == blame_open.end()) return;
  const double dt = upto_s - it->second.since_s;
  if (dt > 0.0) {
    blame_totals[job_id][static_cast<std::size_t>(it->second.category)] +=
        dt;
    emit(TraceKind::kWaitBlame, upto_s, job_id, dt,
         static_cast<double>(it->second.category));
  }
  it->second.since_s = upto_s;
}

// Completion-class event geometry. finish_s is the ISOLATED replay
// end; with contention on, the attempt additionally cannot complete
// before its shared-WAN demand has drained — +inf while it has not,
// which correctly keeps undrained jobs out of the completion scan
// (their next state change is a WAN event, already a candidate).
double GridJobService::Engine::wan_finish(const Running& r) const {
  if (!wan_on) return r.finish_s;
  if (!wan->drained(r.flow)) return kInf;
  return std::max(r.finish_s, wan->drained_at_s(r.flow));
}

// The earlier of completing and being walltime-killed; ties resolve to
// "finished" (<=), so a job whose last byte drains exactly on its
// walltime completes.
double GridJobService::Engine::event_of(const Running& r) const {
  const double finish = wan_finish(r);
  return finish < r.kill_s ? finish : r.kill_s;
}

bool GridJobService::Engine::completes(const Running& r) const {
  return wan_finish(r) <= r.kill_s;
}

// Charge one attempt's WAN bytes pro-rata to the fraction of the FULL
// replay it actually covered, so a restart-credited job never pays for
// its banked prefix twice (an uncredited full attempt charges exactly
// the replay counters). With contention on, the WAN model knows the
// bytes each flow really moved, so attempts retire their flow instead.
void GridJobService::Engine::charge_wan(const Running& r, double fraction) {
  for (std::size_t i = 0; i < r.placement.clusters.size(); ++i) {
    const auto c = static_cast<std::size_t>(r.placement.clusters[i]);
    report.wan_egress_bytes[c] += static_cast<long long>(
        static_cast<double>(r.replay->egress_bytes[i]) * fraction);
    report.wan_ingress_bytes[c] += static_cast<long long>(
        static_cast<double>(r.replay->ingress_bytes[i]) * fraction);
  }
}

// Real execution of one resolved attempt (msg-runtime backend only; a
// no-op on the replay backend). `killed` is explicit rather than
// inferred from the fraction: a WAN-stretched attempt can be killed
// while waiting on drains with its whole replay timeline covered, and
// that must still count as a kill, never as a clean verified run.
// `through_fraction` is where the attempt ended on the FULL
// factorization timeline — mapped to a virtual-walltime limit so the
// run genuinely aborts mid-factorization through the communicator.
ExecutionResult GridJobService::Engine::execute_attempt(
    const Running& r, bool killed, double through_fraction) {
  ExecutionResult exec;
  if (!backend.executes()) return exec;
  const double abort_vtime_s =
      killed ? std::clamp(through_fraction, 0.0, 1.0) * r.replay->seconds
             : kInf;
  {
    PhaseScope scope(profiler, ProfilePhase::kBackendExecute);
    exec = backend.execute(r.job, r.placement, abort_vtime_s);
  }
  ++report.executed_attempts;
  if (exec.aborted) ++report.aborted_attempts;
  if (killed) {
    report.injected_abort_vtime_s += abort_vtime_s;
    report.measured_abort_vtime_s += exec.measured_s;
    // A kill landing at the very end of the timeline can let the real
    // factorization finish first; the attempt is dead either way, so
    // its numerics are never reported.
    exec.residual = std::numeric_limits<double>::quiet_NaN();
    exec.orthogonality = std::numeric_limits<double>::quiet_NaN();
  } else {
    if (std::isfinite(exec.residual)) {
      report.max_residual = std::max(report.max_residual, exec.residual);
    }
    if (std::isfinite(exec.orthogonality)) {
      report.max_orthogonality =
          std::max(report.max_orthogonality, exec.orthogonality);
    }
  }
  return exec;
}

void GridJobService::Engine::record_outcome(Running& r, double end_s,
                                            JobFate fate,
                                            const ExecutionResult& exec) {
  const Progress& p = progress[r.job.id];
  JobOutcome outcome;
  outcome.start_s = r.start_s;
  outcome.finish_s = end_s;
  outcome.service_s = end_s - r.start_s;
  const double isolated_s = r.finish_s - r.start_s;
  outcome.wan_slowdown = wan_on && isolated_s > 0.0
                             ? outcome.service_s / isolated_s
                             : 1.0;
  outcome.gflops = fate == JobFate::kCompleted ? r.replay->gflops : 0.0;
  outcome.clusters = r.placement.clusters;
  outcome.nodes_per_cluster = r.placement.nodes;
  outcome.nodes = r.placement.total_nodes;
  outcome.backfilled = r.backfilled;
  outcome.fate = fate;
  outcome.attempts = p.attempts;
  outcome.wasted_node_s = p.wasted_node_s;
  outcome.credited_s = p.credited_fraction * r.replay->seconds;
  outcome.reserved_start_s = p.reserved_start_s;
  outcome.executed = exec.executed;
  outcome.exec_aborted = exec.aborted;
  outcome.measured_s = exec.measured_s;
  outcome.residual = exec.residual;
  outcome.orthogonality = exec.orthogonality;
  if (blame_on) {
    const auto bt = blame_totals.find(r.job.id);
    if (bt != blame_totals.end()) {
      outcome.blame_s.assign(bt->second.begin(), bt->second.end());
    } else {
      outcome.blame_s.assign(
          static_cast<std::size_t>(kBlameCategoryCount), 0.0);
    }
  }
  outcome.job = std::move(r.job);
  if (metrics != nullptr) {
    // Wait and slowdown distributions per user and priority class —
    // the per-cohort fairness view the aggregate report flattens.
    const double wait = outcome.wait_s();
    metrics->observe("wait_s.user." + std::to_string(outcome.job.user),
                     wait);
    metrics->observe(
        "wait_s.prio." + std::to_string(outcome.job.priority), wait);
    if (fate == JobFate::kCompleted) {
      static const std::vector<double> kSlowdownBounds = {
          1.0, 1.05, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0};
      metrics->observe(
          "slowdown.user." + std::to_string(outcome.job.user),
          outcome.wan_slowdown, kSlowdownBounds);
    }
  }
  report.makespan_s = std::max(report.makespan_s, end_s);
  report.outcomes.push_back(std::move(outcome));
}

void GridJobService::Engine::start_job(Job job, const Placement& placement,
                                       bool backfilled) {
  if (blame_on) {
    // Close the job's open wait interval BEFORE the start event, so a
    // validator at the kDispatch/kBackfillStart sees the full
    // partition of [arrival, start) already blamed.
    blame_flush(job.id, clock);
    blame_open.erase(job.id);
  }
  if (job.id == reserved_job) {
    reserved_job = -1;  // promise honored
  } else if (!backfilled && reserved_job != -1) {
    // A different job overtook the reservation holder straight from
    // the head path (a priority claim, a deficit reorder, a requeued
    // earlier arrival) while the holder is still pending — it may now
    // be taking the very nodes the promise counted on, so the stale
    // promise is withdrawn. Backfills are exempt: they are sanctioned
    // BY the reservation. The next blocked-head pass re-promises.
    progress[reserved_job].reserved_start_s = kInf;
    emit(TraceKind::kReservationWithdraw, clock, reserved_job);
    reserved_job = -1;
  }
  const ExecutionProfile& replay = backend.profile(job, placement);
  Progress& p = progress[job.id];
  ++p.attempts;
  // Restart credit: only the unfinished tail of the factorization
  // re-runs (at THIS placement's rate — the fraction is what carries),
  // plus checkpoint I/O for the panels this attempt will protect.
  const double attempt_s = attempt_seconds(replay, p.credited_fraction);
  QRGRID_CHECK(attempt_s > 0.0);
  // Deficit accounting (fair-share): the attempt is expected to hold
  // its grant for attempt_s — charged at start so the very next head
  // decision already sees this user served.
  policy.on_attempt_start(
      job, attempt_s * static_cast<double>(placement.total_nodes));
  grant_nodes(placement);
  Running r;
  r.finish_s = clock + attempt_s;
  r.kill_s = job.walltime_s > 0.0 ? clock + job.walltime_s : kInf;
  // The scheduler's belief: walltimes are per-attempt and enforced, so
  // the attempt is over by start + walltime no matter what.
  r.est_finish_s =
      clock + (job.walltime_s > 0.0 ? job.walltime_s : attempt_s);
  r.seq = seq++;
  r.job = std::move(job);
  r.placement = placement;
  r.start_s = clock;
  r.start_fraction = p.credited_fraction;
  r.replay = &replay;
  r.backfilled = backfilled;
  if (wan_on) {
    // Register the attempt's WAN demand: per granted cluster one
    // uplink and one downlink pool (bytes pro-rated to the uncovered
    // [start_fraction, 1] tail, assuming the link's demand spreads
    // over its [first_fraction, 1] activity window), plus one backbone
    // pool carrying every byte once. Each pool activates where the
    // replay timeline first touches its link, mapped onto the
    // attempt's wall-clock span.
    const double f0 = p.credited_fraction;
    std::vector<GridWanModel::Pool> pools;
    double backbone_bytes = 0.0;
    double backbone_activation = kInf;
    auto add_pool = [&](GridWanModel::Pool::Link link, int cluster,
                        double full_bytes, double first_fraction) {
      if (full_bytes <= 0.0) return;
      const double from = std::max(first_fraction, f0);
      const double window = 1.0 - first_fraction;
      if (window <= 0.0 || from >= 1.0) return;
      const double bytes = full_bytes * (1.0 - from) / window;
      const double activation_s =
          clock + (from - f0) / (1.0 - f0) * attempt_s;
      GridWanModel::Pool pool;
      pool.link = link;
      pool.cluster = cluster;
      pool.bytes = bytes;
      pool.activation_s = activation_s;
      pools.push_back(pool);
      if (link == GridWanModel::Pool::Link::kUplink) {
        backbone_bytes += bytes;
        backbone_activation = std::min(backbone_activation, activation_s);
      }
    };
    for (std::size_t i = 0; i < placement.clusters.size(); ++i) {
      add_pool(GridWanModel::Pool::Link::kUplink, placement.clusters[i],
               static_cast<double>(replay.egress_bytes[i]),
               replay.egress_first_fraction[i]);
      add_pool(GridWanModel::Pool::Link::kDownlink, placement.clusters[i],
               static_cast<double>(replay.ingress_bytes[i]),
               replay.ingress_first_fraction[i]);
    }
    if (backbone_bytes > 0.0) {
      GridWanModel::Pool trunk;
      trunk.link = GridWanModel::Pool::Link::kBackbone;
      trunk.bytes = backbone_bytes;
      trunk.activation_s = backbone_activation;
      pools.push_back(trunk);
    }
    r.flow = wan->admit(clock, std::move(pools));
  }
  // value: the isolated replay end; value2: what EASY plans with.
  emit(backfilled ? TraceKind::kBackfillStart : TraceKind::kDispatch, clock,
       r.job.id, r.finish_s, r.est_finish_s, r.flow, -1, &r.placement);
  if (metrics != nullptr) {
    metrics->add(backfilled ? "dispatch.backfill_admits"
                            : "dispatch.head_starts");
  }
  running.push_back(std::move(r));
  // The grant and the admitted flow moved the free state; `placement`
  // (possibly a memo entry) is not read past this point.
  placement_memo.clear();
}

void GridJobService::Engine::dispatch() {
  last_shadow = kInf;
  pass_backfills = 0;
  // Completions, outages, arrivals and WAN drains since the last pass
  // moved the free state.
  placement_memo.clear();
  // Policy order: start from the head while it fits the up clusters.
  // front() re-establishes policy order itself when keys moved
  // (fair-share deficits after each start) — the incremental sync that
  // replaced the per-dispatch full resort; static-key policies skip it
  // entirely.
  while (!pending.empty()) {
    if (metrics != nullptr) metrics->add("dispatch.head_place_scans");
    const Placement* placement = place_now(pending.front());
    if (placement == nullptr) break;
    start_job(pending.pop_front(), *placement, /*backfilled=*/false);
  }
  if (!policy.backfills() || pending.empty() || running.empty()) {
    return;
  }
  // EASY family: the blocked head holds a reservation at its shadow
  // time; any later job may start now iff its ESTIMATED completion
  // (walltime when set, exact replay when not) does not outlast the
  // reservation. Actual completions only ever come earlier than the
  // estimates, so the head is provably never delayed past the promise
  // (under WAN contention only wan_priced_shadow policies keep that
  // property, by lifting estimates to the drain bounds).
  // The reservation follows the CURRENT head: a previous holder that
  // was displaced while still pending (it did not start) had its
  // reservation claimed — the stale promise is withdrawn with it, so
  // the no-delay invariant binds exactly the job holding the shadow.
  if (reserved_job != -1 && reserved_job != pending.front().id) {
    progress[reserved_job].reserved_start_s = kInf;
    emit(TraceKind::kReservationWithdraw, clock, reserved_job);
  }
  reserved_job = pending.front().id;
  if (metrics != nullptr) metrics->add("dispatch.shadow_computations");
  double shadow;
  {
    PhaseScope scope(profiler, ProfilePhase::kShadow);
    shadow = shadow_time(pending.front());
  }
  last_shadow = shadow;
  // No computable reservation (the head waits on an outage recovery,
  // not on nodes): backfilling would have no bound and could starve
  // the head indefinitely, so don't.
  if (shadow == kInf) return;
  Progress& head_progress = progress[pending.front().id];
  head_progress.reserved_start_s =
      std::min(head_progress.reserved_start_s, shadow);
  // value: the promised latest start.
  emit(TraceKind::kReservationClaim, clock, reserved_job, shadow);
  const bool priced = wan != nullptr && policy.wan_priced_shadow();
  // The pass's candidates are the first backfill_depth jobs behind the
  // head (all of them at depth 0), each counted as one scan whether the
  // merge below visits it or skips it with its procs bucket.
  const std::size_t behind = pending.size() - 1;
  const std::size_t scans =
      options.backfill_depth > 0
          ? std::min(behind, static_cast<std::size_t>(options.backfill_depth))
          : behind;
  if (metrics != nullptr && scans > 0) {
    metrics->add("dispatch.backfill_scans", static_cast<long long>(scans));
  }
  // Queue-order merge of the per-procs buckets behind the head. A
  // placement depends only on procs and the free state, so once one
  // member of a bucket cannot be placed, neither can any later member
  // until an admission moves the free state — the merge skips them and
  // prices exactly the candidates a positional scan would.
  JobQueue::Candidates candidates =
      pending.candidates(options.backfill_depth);
  while (const PendingEntry* entry = candidates.next()) {
    const Job& candidate = entry->job;
    const Placement* placement = place_now(candidate);
    if (placement != nullptr) {
      const ExecutionProfile& replay = backend.profile(candidate, *placement);
      const double remaining = attempt_seconds(
          replay, progress[candidate.id].credited_fraction);
      double estimate =
          candidate.walltime_s > 0.0 ? candidate.walltime_s : remaining;
      // A priced policy must bound the CANDIDATE's own WAN demand too:
      // its flow does not exist yet, so neither the shadow nor the
      // drain estimates above can see it — and without a walltime the
      // drains, not the replay, decide when its nodes come back. Each
      // link's demand is priced at the share it would get alongside
      // the flows currently touching that link (load + itself),
      // starting where the replay timeline first reaches the link;
      // egress is additionally capped by the shared trunk, whose
      // aggregate term covers a backbone thinner than the uplinks.
      if (priced && candidate.walltime_s <= 0.0) {
        const double trunk_share =
            wan->backbone_Bps() / (1.0 + wan->backbone_load());
        double total_egress = 0.0;
        double earliest_egress_fraction = 1.0;
        for (std::size_t c = 0; c < placement->clusters.size(); ++c) {
          const double share =
              options.wan_link_Bps /
              (1.0 + wan->load_score(placement->clusters[c]));
          if (replay.egress_bytes[c] > 0) {
            estimate = std::max(
                estimate,
                replay.egress_first_fraction[c] * remaining +
                    static_cast<double>(replay.egress_bytes[c]) /
                        std::min(share, trunk_share));
            total_egress += static_cast<double>(replay.egress_bytes[c]);
            earliest_egress_fraction =
                std::min(earliest_egress_fraction,
                         replay.egress_first_fraction[c]);
          }
          if (replay.ingress_bytes[c] > 0) {
            estimate = std::max(
                estimate,
                replay.ingress_first_fraction[c] * remaining +
                    static_cast<double>(replay.ingress_bytes[c]) /
                        share);
          }
        }
        if (total_egress > 0.0) {
          estimate = std::max(estimate,
                              earliest_egress_fraction * remaining +
                                  total_egress / trunk_share);
        }
      }
      if (clock + estimate <= shadow) {
        start_job(candidates.take(), *placement, /*backfilled=*/true);
        ++report.backfilled_jobs;
        ++pass_backfills;
      }
    } else {
      candidates.skip_procs();
    }
  }
}

// Blame classification pass: AFTER a dispatch pass settles, answer
// "why is each still-pending job not running RIGHT NOW" with one
// category, mirroring the decision the scheduler just made. Probed
// placements are never granted and replays are only looked up in the
// cache dispatch fills (never computed, never counted), so a blame-on
// run makes identical scheduling decisions, and identical profile
// traffic, to a blame-off run.
void GridJobService::Engine::classify_waits() {
  if (pending.empty()) return;
  bool any_down = false;
  for (int c = 0; c < nclusters; ++c) {
    if (down_depth[static_cast<std::size_t>(c)] > 0) any_down = true;
  }
  const bool backfills = policy.backfills();
  const bool priced = wan != nullptr && policy.wan_priced_shadow();
  // The fully-up probe's answers by procs, for this pass only.
  std::unordered_map<int, bool> fully_up_fits;
  const Job* head = nullptr;
  int idx = 0;
  for (auto it = pending.begin(); it != pending.end(); ++it, ++idx) {
    const Job& job = it->job;
    if (idx == 0) head = &job;
    BlameCategory category = BlameCategory::kResourceBusy;
    if (idx > 0 && backfills && options.backfill_depth > 0 &&
        idx + pass_backfills > options.backfill_depth) {
      // The bounded scan examined positions 1..depth as they stood when
      // the pass began; its admissions moved everything behind them up,
      // so the unexamined rest now starts at depth + 1 - admissions.
      // Beyond it the scheduler never even looked.
      category = BlameCategory::kBackfillDepthTruncated;
    } else {
      // dispatch() just settled on this very free state, so its memo
      // still answers.
      const Placement* placement = place_now(job);
      if (placement == nullptr) {
        // Would the job fit if every cluster were up? free_nodes still
        // counts down clusters' (outage-released) nodes, so it IS the
        // fully-up view that placeable masks out.
        bool fits_fully_up = false;
        if (any_down) {
          const auto [probe, miss] = fully_up_fits.try_emplace(job.procs);
          if (miss) {
            PhaseScope scope(profiler, ProfilePhase::kPlace);
            probe->second = try_place(job, free_nodes).has_value();
          }
          fits_fully_up = probe->second;
        }
        category = fits_fully_up ? BlameCategory::kOutageBlocked
                                 : BlameCategory::kResourceBusy;
      } else if (idx == 0) {
        // Unreachable — dispatch starts every placeable head — but a
        // defensive fallback beats asserting inside an observer.
        category = BlameCategory::kResourceBusy;
      } else if (!backfills || last_shadow == kInf) {
        // No reservation bound exists (strict policy, or the head
        // waits on an outage recovery): queue order alone holds the
        // job back — split by WHY the head outranks it.
        category = policy.displaces(*head, job)
                       ? BlameCategory::kPriorityDisplaced
                       : BlameCategory::kHeldBehindReservation;
      } else {
        // The scan examined this placeable candidate and rejected it
        // on the admission test `clock + estimate <= shadow`;
        // re-derive which bound inside the estimate bit. Only from a
        // replay already cached: a candidate whose end-of-pass
        // placement no pass has priced (this one saw it on another free
        // state) falls to the head relation below, since computing its
        // replay here would be work, and a cache entry, that a
        // blame-off run never makes.
        const ExecutionProfile* replay = backend.find_profile(job, *placement);
        const double remaining =
            replay == nullptr
                ? kInf
                : attempt_seconds(*replay,
                                  progress[job.id].credited_fraction);
        if (priced && job.walltime_s <= 0.0 &&
            clock + remaining <= last_shadow) {
          // The raw replay remainder fits the promise; only the
          // WAN-drain pricing pushed the estimate past it.
          category = BlameCategory::kWanContendedPlacement;
        } else if (job.walltime_s > 0.0 &&
                   clock + remaining <= last_shadow) {
          // The work fits the promise but the user's walltime ask
          // (what EASY must plan with) does not.
          category = BlameCategory::kWalltimeEstimateBlocked;
        } else {
          category = policy.displaces(*head, job)
                         ? BlameCategory::kPriorityDisplaced
                         : BlameCategory::kHeldBehindReservation;
        }
      }
    }
    const int cat = static_cast<int>(category);
    const auto [state, inserted] =
        blame_open.emplace(job.id, BlameOpen{cat, clock});
    if (!inserted && state->second.category != cat) {
      blame_flush(job.id, clock);
      state->second.category = cat;
    }
  }
}

// One outage boundary. A recovery returns the cluster's free nodes to
// the placeable pool; a failure masks them out and kills every job
// holding nodes on the cluster (outage_kill).
void GridJobService::Engine::apply_outage(const OutageEvent& ev) {
  emit(ev.down ? TraceKind::kOutageDown : TraceKind::kOutageUp, ev.time_s,
       -1, 0.0, 0.0, -1, ev.cluster);
  if (!ev.down) {
    QRGRID_CHECK(ev.cluster < nclusters &&
                 down_depth[static_cast<std::size_t>(ev.cluster)] > 0);
    --down_depth[static_cast<std::size_t>(ev.cluster)];
    if (down_depth[static_cast<std::size_t>(ev.cluster)] == 0) {
      set_placeable(ev.cluster,
                    free_nodes[static_cast<std::size_t>(ev.cluster)]);
    }
    return;
  }
  QRGRID_CHECK_MSG(ev.cluster < nclusters,
                   "outage on unknown cluster " << ev.cluster);
  ++down_depth[static_cast<std::size_t>(ev.cluster)];
  if (down_depth[static_cast<std::size_t>(ev.cluster)] == 1) {
    set_placeable(ev.cluster, 0);
  }
  // Extract every hit job first (swap-and-pop keeps the scan linear),
  // then process victims in start order — `running` itself is no longer
  // start-ordered, so determinism comes from sorting by seq.
  std::vector<Running> victims;
  for (std::size_t i = 0; i < running.size();) {
    Running& r = running[i];
    const bool hit =
        std::find(r.placement.clusters.begin(), r.placement.clusters.end(),
                  ev.cluster) != r.placement.clusters.end();
    if (!hit) {
      ++i;
      continue;
    }
    victims.push_back(std::move(r));
    if (i != running.size() - 1) running[i] = std::move(running.back());
    running.pop_back();
  }
  std::sort(victims.begin(), victims.end(),
            [](const Running& a, const Running& b) { return a.seq < b.seq; });
  // Kill order among one failure's victims: canonically start order.
  // The order is observable: restart credit, waste, and requeue
  // positions all accrue victim by victim.
  resolve_tied(TieOracle::Kind::kOutageVictim, ev.time_s, victims.begin(),
               victims.end(),
               [&](Running& victim) { outage_kill(victim, ev); });
}

void GridJobService::Engine::outage_kill(Running& victim,
                                         const OutageEvent& ev) {
  release_nodes(victim.placement);
  const double elapsed = ev.time_s - victim.start_s;
  Progress& p = progress[victim.job.id];
  // Fraction of the FULL factorization this attempt covered before
  // dying. Checkpoint overhead smears uniformly over the attempt, and a
  // WAN-stretched attempt can outlive its isolated span while waiting on
  // drains with all panels done — hence the cap at the attempt's own
  // share. covered_span_fraction guards the kill-at-start edge: a span
  // collapsed to zero by floating-point absorption must not turn the
  // credit arithmetic into NaN.
  const double attempt_span = victim.finish_s - victim.start_s;
  const double covered = covered_span_fraction(elapsed, attempt_span) *
                         (1.0 - p.credited_fraction);
  double banked = 0.0;
  if (options.restart_credit && options.checkpoint_panels > 0) {
    // Bank whole panels: round the reached point down to a panel
    // boundary. The last panel is never banked — completing it IS
    // completing the job.
    const double panels = static_cast<double>(options.checkpoint_panels);
    const double through = p.credited_fraction + covered;
    const double reached = std::min(std::floor(through * panels) / panels,
                                    (panels - 1.0) / panels);
    const double gained =
        std::clamp(reached - p.credited_fraction, 0.0, covered);
    banked = gained * victim.replay->seconds;
    p.credited_fraction += gained;
  }
  const double nodes = static_cast<double>(victim.placement.total_nodes);
  p.wasted_node_s += nodes * (elapsed - banked);
  report.wasted_node_seconds += nodes * (elapsed - banked);
  useful_node_seconds += nodes * banked;
  if (wan_on) {
    wan->retire(victim.flow, report.wan_egress_bytes,
                report.wan_ingress_bytes);
  } else {
    // The attempt covered this share of the full replay timeline.
    charge_wan(victim, covered);
  }
  // The outage hits the in-flight attempt for REAL on the msg
  // backend: the factorization aborts mid-run at the reached point of
  // the timeline, requeued attempts included.
  // value: node-holding seconds the kill threw away; value2: of which
  // restart credit banked this much.
  emit(TraceKind::kOutageKill, ev.time_s, victim.job.id, elapsed, banked,
       victim.flow, ev.cluster);
  const ExecutionResult exec = execute_attempt(
      victim, /*killed=*/true, victim.start_fraction + covered);
  ++report.killed_jobs;
  ++report.outage_kills;
  if (p.attempts <= options.max_retries) {
    ++report.requeued_jobs;
    Job job = std::move(victim.job);
    if (blame_on) {
      // The killed attempt's runtime is wait the job must sit out
      // again — blamed as rerun time, which keeps the categories
      // summing to (final start - arrival) across retries.
      blame_totals[job.id][static_cast<std::size_t>(
          BlameCategory::kRequeuedRerun)] += elapsed;
      emit(TraceKind::kWaitBlame, ev.time_s, job.id, elapsed,
           static_cast<double>(BlameCategory::kRequeuedRerun));
    }
    emit(TraceKind::kRequeue, ev.time_s, job.id,
         static_cast<double>(p.attempts));
    // SPJF sort key: only the uncredited remainder still costs time.
    const double predicted =
        svc.predicted_seconds(job) * (1.0 - p.credited_fraction);
    pending.push(std::move(job), predicted);
  } else {
    ++report.failed_jobs;
    record_outcome(victim, ev.time_s, JobFate::kOutageFailed, exec);
  }
}

std::size_t GridJobService::Engine::tie_pick(TieOracle::Kind kind,
                                             double t_s,
                                             std::size_t k) const {
  if (svc.oracle_ == nullptr || k < 2) return 0;
  const int chosen = svc.oracle_->choose(kind, t_s, static_cast<int>(k));
  QRGRID_CHECK_MSG(chosen >= 0 && static_cast<std::size_t>(chosen) < k,
                   "tie oracle returned " << chosen << " for a " << k
                                          << "-way tie");
  return static_cast<std::size_t>(chosen);
}

// One event-loop iteration: advance virtual time to the next event, then
// resolve everything due at that instant in precedence order —
// completions (and walltime kills) first, then outage boundaries
// (recoveries before failures), then arrivals — and run a dispatch pass.
void GridJobService::Engine::step() {
  double t = kInf;
  if (next_arrival < jobs.size()) t = jobs[next_arrival].arrival_s;
  for (const Running& r : running) t = std::min(t, event_of(r));
  t = std::min(t, trace.peek_s());
  // WAN horizon events (a pool activating or running dry) change the
  // fair shares — and may BE a job's completion when the last drain
  // lands past its replay end. Rates are constant up to this bound, so
  // advancing the model to t is exact.
  if (wan_on) t = std::min(t, wan->next_event_s(clock));
  QRGRID_CHECK_MSG(t < kInf, "service deadlock: pending jobs but no "
                             "running work, WAN drains, outage "
                             "recoveries, or future arrivals");
  if (wan_on) {
    PhaseScope scope(profiler, ProfilePhase::kWanAdvance);
    wan->advance(clock, t);
  }
  clock = std::max(clock, t);
  // Push the tracer's clock forward so emitters without a timestamp of
  // their own (WAN retirement, backend profile computes) stamp events
  // at the current virtual instant.
  if (tracer != nullptr) tracer->advance_to(clock);

  // Event precedence at one instant: completions (and walltime kills)
  // first, then outage boundaries, then arrivals — a job that finishes
  // exactly when its cluster fails has finished.
  {
    PhaseScope phase(profiler, ProfilePhase::kCompletionExtract);
    resolve_completions();
  }

  drain_outages();

  admit_arrivals();

  {
    PhaseScope phase(profiler, ProfilePhase::kDispatchScan);
    dispatch();
  }
  if (blame_on) {
    PhaseScope phase(profiler, ProfilePhase::kBlameClassify);
    classify_waits();
  }

  if (metrics != nullptr) {
    // Step curves over virtual time, sampled once per event-loop
    // iteration (the registry drops unchanged consecutive values).
    metrics->sample("queue_depth", clock,
                    static_cast<double>(pending.size()));
    metrics->sample("running_jobs", clock,
                    static_cast<double>(running.size()));
    if (wan_on) {
      for (int c = 0; c < nclusters; ++c) {
        metrics->sample("wan.uplink_load.c" + std::to_string(c), clock,
                        static_cast<double>(wan->load_score(c)));
      }
      metrics->sample("wan.backbone_load", clock,
                      static_cast<double>(wan->backbone_load()));
      metrics->sample("wan.live_flows", clock,
                      static_cast<double>(wan->live_flows()));
    }
  }
}

// Resolves every completion-class event due at the current clock, one at
// a time: the earliest due event time first and, among attempts tied on
// it, start order (seq) canonically. Candidates are re-collected per
// pick: each resolution can retire a WAN flow and move later finish
// times.
void GridJobService::Engine::resolve_completions() {
  std::vector<std::size_t> tied;
  for (;;) {
    double due = kInf;
    tied.clear();
    for (std::size_t i = 0; i < running.size(); ++i) {
      const double e = event_of(running[i]);
      if (e > clock || e > due) continue;
      if (e < due) {
        due = e;
        tied.clear();
      }
      tied.push_back(i);
    }
    if (tied.empty()) return;
    std::sort(tied.begin(), tied.end(), [&](std::size_t a, std::size_t b) {
      return running[a].seq < running[b].seq;
    });
    complete_one(tied[tie_pick(TieOracle::Kind::kCompletion, due,
                               tied.size())]);
  }
}

void GridJobService::Engine::complete_one(std::size_t index) {
  // The caller's scan selects by (event time, seq), which no vector
  // order can change — so the erase is a swap-and-pop, O(1) instead of
  // shifting the running tail per completion.
  Running done = std::move(running[index]);
  if (index != running.size() - 1) {
    running[index] = std::move(running.back());
  }
  running.pop_back();
  release_nodes(done.placement);
  const double nodes = static_cast<double>(done.placement.total_nodes);
  if (completes(done)) {
    const double finish = wan_finish(done);
    const double held = finish - done.start_s;
    useful_node_seconds += nodes * held;
    useful_flops_total += model::useful_flops(done.job.m, done.job.n);
    if (wan_on) {
      wan->retire(done.flow, report.wan_egress_bytes,
                  report.wan_ingress_bytes);
    } else {
      charge_wan(done, 1.0 - done.start_fraction);
    }
    const ExecutionResult exec = execute_attempt(done, /*killed=*/false, 1.0);
    ++report.completed_jobs;
    // value: service seconds of the attempt; value2: the WAN drain
    // stretch past the replay end.
    emit(TraceKind::kCompletion, finish, done.job.id, held,
         finish - done.finish_s, done.flow);
    record_outcome(done, finish, JobFate::kCompleted, exec);
  } else {
    // Ran past its user walltime: killed for good, everything wasted.
    const double held = done.kill_s - done.start_s;
    Progress& p = progress[done.job.id];
    p.wasted_node_s += nodes * held;
    report.wasted_node_seconds += nodes * held;
    // Capped coverage as in the outage path: the checkpoint tail
    // stretches the attempt beyond its replay share, and the share is
    // all the work (and WAN bytes) it can ever have done.
    // covered_span_fraction guards the zero-length-span edge exactly as
    // the outage kill site does.
    const double covered =
        covered_span_fraction(held, done.finish_s - done.start_s) *
        (1.0 - done.start_fraction);
    if (wan_on) {
      wan->retire(done.flow, report.wan_egress_bytes,
                  report.wan_ingress_bytes);
    } else {
      charge_wan(done, covered);
    }
    const ExecutionResult exec = execute_attempt(
        done, /*killed=*/true, done.start_fraction + covered);
    ++report.killed_jobs;
    ++report.walltime_kills;
    ++report.failed_jobs;
    // value: node-holding seconds the kill threw away.
    emit(TraceKind::kWalltimeKill, done.kill_s, done.job.id, held, 0.0,
         done.flow);
    record_outcome(done, done.kill_s, JobFate::kWalltimeKilled, exec);
  }
}

// Applies every outage boundary due at the current clock. Canonically
// the trace's pop order (time, recoveries before failures, cluster id);
// ties are picked WITHIN one (time, direction) group only, so the
// up-before-down precedence is never reordered.
void GridJobService::Engine::drain_outages() {
  std::vector<OutageEvent> due;
  while (trace.peek_s() <= clock) due.push_back(trace.pop());
  for (auto first = due.begin(); first != due.end();) {
    const auto last =
        std::find_if(first, due.end(), [&](const OutageEvent& e) {
          return e.time_s != first->time_s || e.down != first->down;
        });
    resolve_tied(first->down ? TieOracle::Kind::kOutageDown
                             : TieOracle::Kind::kOutageUp,
                 first->time_s, first, last,
                 [&](const OutageEvent& ev) { apply_outage(ev); });
    first = last;
  }
}

// Admits every arrival due at the current clock. Canonically in
// (arrival_s, id) order — the pre-sorted jobs vector; ties are picked
// among jobs sharing one arrival instant (the order is observable
// through kArrival events and queue tie-breaks).
void GridJobService::Engine::admit_arrivals() {
  while (next_arrival < jobs.size() &&
         jobs[next_arrival].arrival_s <= clock) {
    const double t = jobs[next_arrival].arrival_s;
    std::size_t end = next_arrival + 1;
    while (end < jobs.size() && jobs[end].arrival_s == t) ++end;
    // A copy: the oracle's pick order must not permute the snapshotted
    // job list.
    std::vector<Job> group(
        jobs.begin() + static_cast<std::ptrdiff_t>(next_arrival),
        jobs.begin() + static_cast<std::ptrdiff_t>(end));
    next_arrival = end;
    resolve_tied(TieOracle::Kind::kArrival, t, group.begin(), group.end(),
                 [&](Job& job) {
                   emit(TraceKind::kArrival, job.arrival_s, job.id,
                        static_cast<double>(job.priority),
                        static_cast<double>(job.user));
                   const double predicted = svc.predicted_seconds(job);
                   pending.push(std::move(job), predicted);
                 });
  }
}

// Final accounting over the finished run.
ServiceReport GridJobService::Engine::finish() {
  QRGRID_CHECK_MSG(report.completed_jobs + report.failed_jobs ==
                       static_cast<long long>(jobs.size()),
                   "job conservation violated: " << report.completed_jobs
                       << " completed + " << report.failed_jobs
                       << " failed != " << jobs.size() << " submitted");
  report.useful_node_seconds = useful_node_seconds;
  if (wan_on && report.makespan_s > 0.0) {
    for (int c = 0; c < nclusters; ++c) {
      report.wan_uplink_busy[static_cast<std::size_t>(c)] =
          wan->uplink_busy_s(c) / report.makespan_s;
      report.wan_downlink_busy[static_cast<std::size_t>(c)] =
          wan->downlink_busy_s(c) / report.makespan_s;
    }
    report.wan_backbone_busy = wan->backbone_busy_s() / report.makespan_s;
  }
  double slowdown_sum = 0.0;
  long long slowdown_count = 0;
  for (const JobOutcome& o : report.outcomes) {
    if (!o.completed()) continue;
    slowdown_sum += o.wan_slowdown;
    report.max_wan_slowdown = std::max(report.max_wan_slowdown,
                                       o.wan_slowdown);
    ++slowdown_count;
  }
  if (slowdown_count > 0) {
    report.mean_wan_slowdown =
        slowdown_sum / static_cast<double>(slowdown_count);
  }
  if (!report.outcomes.empty() && report.makespan_s > 0.0) {
    double wait_sum = 0.0, turnaround_sum = 0.0;
    for (const JobOutcome& o : report.outcomes) {
      wait_sum += o.wait_s();
      turnaround_sum += o.turnaround_s();
      report.max_wait_s = std::max(report.max_wait_s, o.wait_s());
    }
    const auto count = static_cast<double>(report.outcomes.size());
    report.mean_wait_s = wait_sum / count;
    report.mean_turnaround_s = turnaround_sum / count;
    report.throughput_jobs_per_hour =
        static_cast<double>(report.completed_jobs) / report.makespan_s *
        3600.0;
    report.aggregate_gflops = useful_flops_total / report.makespan_s / 1e9;
    report.utilization =
        useful_node_seconds /
        (static_cast<double>(grid_nodes) * report.makespan_s);
  }
  std::sort(report.outcomes.begin(), report.outcomes.end(),
            [](const JobOutcome& a, const JobOutcome& b) {
              return a.job.id < b.job.id;
            });
  if (metrics != nullptr) {
    metrics->set("service.makespan_s", report.makespan_s);
    metrics->set("service.utilization", report.utilization);
    metrics->set("service.mean_wait_s", report.mean_wait_s);
    const double scans = metrics->counter("dispatch.backfill_scans");
    if (scans > 0.0) {
      metrics->set("dispatch.backfill_hit_rate",
                   static_cast<double>(report.backfilled_jobs) / scans);
    }
    if (wan_on) {
      for (int c = 0; c < nclusters; ++c) {
        const std::string suffix = ".c" + std::to_string(c);
        metrics->set("wan.uplink_busy_frac" + suffix,
                     report.wan_uplink_busy[static_cast<std::size_t>(c)]);
        metrics->set("wan.downlink_busy_frac" + suffix,
                     report.wan_downlink_busy[static_cast<std::size_t>(c)]);
      }
      metrics->set("wan.backbone_busy_frac", report.wan_backbone_busy);
      metrics->set("wan.live_flows.peak",
                   static_cast<double>(wan->peak_live_flows()));
      // Incremental rate engine counters (both fairness rules):
      // full_refills << events is the contended-scaling claim.
      metrics->set("wan.rebalance.events",
                   static_cast<double>(wan->rebalance_events()));
      metrics->set("wan.rebalance.recomputes",
                   static_cast<double>(wan->rebalance_recomputes()));
      metrics->set("wan.rebalance.links_touched",
                   static_cast<double>(wan->rebalance_links_touched()));
      metrics->set("wan.rebalance.full_refills",
                   static_cast<double>(wan->rebalance_full_refills()));
    }
    if (blame_on) {
      // Wait-blame rollups over the sorted outcomes: grid-wide totals
      // (all categories, zeros included — a stable key set), plus the
      // nonzero per-user and per-priority-class splits.
      std::array<double, kBlameCategoryCount> total{};
      std::map<int, std::array<double, kBlameCategoryCount>> by_user;
      std::map<int, std::array<double, kBlameCategoryCount>> by_prio;
      for (const JobOutcome& o : report.outcomes) {
        for (int k = 0; k < kBlameCategoryCount; ++k) {
          const double s = o.blame_s[static_cast<std::size_t>(k)];
          total[static_cast<std::size_t>(k)] += s;
          by_user[o.job.user][static_cast<std::size_t>(k)] += s;
          by_prio[o.job.priority][static_cast<std::size_t>(k)] += s;
        }
      }
      for (int k = 0; k < kBlameCategoryCount; ++k) {
        metrics->set(
            "blame.total." +
                blame_category_name(static_cast<BlameCategory>(k)) + "_s",
            total[static_cast<std::size_t>(k)]);
      }
      for (const auto& [user, per_cat] : by_user) {
        for (int k = 0; k < kBlameCategoryCount; ++k) {
          if (per_cat[static_cast<std::size_t>(k)] <= 0.0) continue;
          metrics->set(
              "blame.user." + std::to_string(user) + "." +
                  blame_category_name(static_cast<BlameCategory>(k)) + "_s",
              per_cat[static_cast<std::size_t>(k)]);
        }
      }
      for (const auto& [prio, per_cat] : by_prio) {
        for (int k = 0; k < kBlameCategoryCount; ++k) {
          if (per_cat[static_cast<std::size_t>(k)] <= 0.0) continue;
          metrics->set(
              "blame.prio." + std::to_string(prio) + "." +
                  blame_category_name(static_cast<BlameCategory>(k)) + "_s",
              per_cat[static_cast<std::size_t>(k)]);
        }
      }
    }
    if (profiler != nullptr) {
      // Wall times are nondeterministic by nature; they live here and in
      // BENCH totals only, never in the virtual-time event stream.
      for (int i = 0; i < kProfilePhaseCount; ++i) {
        const auto phase = static_cast<ProfilePhase>(i);
        const std::string base =
            std::string("profiler.") + profile_phase_name(phase);
        metrics->set(base + ".wall_s", profiler->total_s(phase));
        metrics->set(base + ".calls",
                     static_cast<double>(profiler->calls(phase)));
      }
    }
  }
  return std::move(report);
}

// ---------------------------------------------------------------------------
// Snapshot field list of the full in-flight state. The sequence is the
// format: any change bumps kSnapshotVersion (the format-pin test in
// job_service_snapshot_test catches drift).
template <class V>
void GridJobService::Engine::visit(V& v) {
  v(next_arrival, clock, seq, reserved_job, last_shadow,
    useful_node_seconds, useful_flops_total);
  // Report fields the event loop mutates; everything else is derived in
  // finish() or fixed by the constructor.
  v(report.outcomes, report.makespan_s, report.backfilled_jobs,
    report.completed_jobs, report.failed_jobs, report.killed_jobs,
    report.walltime_kills, report.outage_kills, report.requeued_jobs,
    report.wasted_node_seconds, report.wan_egress_bytes,
    report.wan_ingress_bytes, report.executed_attempts,
    report.aborted_attempts, report.max_residual, report.max_orthogonality,
    report.injected_abort_vtime_s, report.measured_abort_vtime_s);
  // Policy state precedes the queue entries: loading pushes them through
  // the comparator, which must already see the restored keys.
  v(free_nodes, down_depth, placeable, trace, policy, pending, running,
    progress, blame_open, blame_totals);
  v.expect(wan_on, "WAN-contention flag");
  if (wan_on) v(*wan);
  // The backend's memo-cache warm set, as (job, placement) exemplars in
  // computation order: loading replays them so every future hit/miss
  // counter and compute event matches the uninterrupted run's.
  std::vector<ProfileExemplar> exemplars;
  if constexpr (!V::kLoading) exemplars = backend.profile_exemplars();
  v(exemplars);
  v.expect(tracer != nullptr, "tracer presence");
  if (tracer != nullptr) v(*tracer);
  v.expect(metrics != nullptr, "metrics presence");
  if (metrics != nullptr) v(*metrics);
  if constexpr (V::kLoading) rebuild_after_load(exemplars);
}

void GridJobService::Engine::rebuild_after_load(
    const std::vector<ProfileExemplar>& exemplars) {
  const auto n = static_cast<std::size_t>(nclusters);
  QRGRID_CHECK_MSG(free_nodes.size() == n && down_depth.size() == n &&
                       placeable.size() == n &&
                       report.wan_egress_bytes.size() == n &&
                       report.wan_ingress_bytes.size() == n,
                   "snapshot cluster count mismatch");
  QRGRID_CHECK_MSG(next_arrival <= jobs.size(),
                   "corrupt snapshot: arrival cursor " << next_arrival);
  std::vector<long long> held_nodes(n, 0);
  for (const Running& run : running) {
    check_job(run.job);
    check_placement(run.placement, topology);
    QRGRID_CHECK_MSG(!std::isnan(run.finish_s) && !std::isnan(run.kill_s) &&
                         !std::isnan(run.est_finish_s),
                     "corrupt snapshot: running job " << run.job.id);
    for (std::size_t i = 0; i < run.placement.clusters.size(); ++i) {
      held_nodes[static_cast<std::size_t>(run.placement.clusters[i])] +=
          run.placement.nodes[i];
    }
  }
  // The free-node state grant, release and outage maintain: each node is
  // free or held by one running attempt, and placeable masks out down
  // clusters. try_place scales these counts by procs per node, so
  // hostile values stop here.
  for (std::size_t c = 0; c < n; ++c) {
    QRGRID_CHECK_MSG(
        down_depth[c] >= 0 && free_nodes[c] >= 0 &&
            free_nodes[c] + held_nodes[c] == total_nodes[c] &&
            placeable[c] == (down_depth[c] == 0 ? free_nodes[c] : 0),
        "corrupt snapshot: free-node state of cluster " << c);
  }
  for (const ProfileExemplar& e : exemplars) {
    check_job(e.job);
    check_placement(e.placement, topology);
  }
  for (const auto& [id, open] : blame_open) {
    QRGRID_CHECK_MSG(open.category >= 0 &&
                         open.category < kBlameCategoryCount,
                     "corrupt snapshot: blame category " << open.category);
  }
  if (tracer != nullptr) {
    for (const ServiceTraceEvent& ev : tracer->events()) {
      check_trace_event(ev, nclusters);
    }
  }
  const std::size_t blame_len = blame_on ? kBlameCategoryCount : 0;
  for (const JobOutcome& o : report.outcomes) {
    QRGRID_CHECK_MSG(o.blame_s.size() == blame_len,
                     "corrupt snapshot: outcome blame of job " << o.job.id);
  }
  index_placeable();
  // Re-warm the backend's memo cache with telemetry unbound: the
  // restored tracer/metrics already contain the original compute events
  // and counters, so the replays must stay silent — and every future
  // profile() call then hits or misses exactly as the uninterrupted run
  // would.
  backend.bind_telemetry(nullptr, nullptr);
  try {
    for (const ProfileExemplar& e : exemplars) {
      backend.profile(e.job, e.placement);
    }
    for (Running& run : running) {
      run.replay = &backend.profile(run.job, run.placement);  // silent hit
    }
  } catch (...) {
    backend.bind_telemetry(options.tracer, options.metrics);
    throw;
  }
  backend.bind_telemetry(options.tracer, options.metrics);
}

// ---------------------------------------------------------------------------
// Public surface: run() and the stepping/snapshot API over the Engine.

ServiceReport GridJobService::run(std::vector<Job> jobs) {
  start(std::move(jobs));
  while (active()) step();
  return finish();
}

void GridJobService::start(std::vector<Job> jobs) {
  QRGRID_CHECK_MSG(engine_ == nullptr,
                   "a run is already in flight; finish() it first");
  engine_ = std::make_unique<Engine>(*this, std::move(jobs),
                                     /*quiet=*/false);
}

bool GridJobService::active() const {
  QRGRID_CHECK_MSG(engine_ != nullptr, "no run in flight: start() first");
  return engine_->active();
}

void GridJobService::step() {
  QRGRID_CHECK_MSG(engine_ != nullptr, "no run in flight: start() first");
  QRGRID_CHECK_MSG(engine_->active(), "run already drained: finish() it");
  engine_->step();
}

ServiceReport GridJobService::finish() {
  QRGRID_CHECK_MSG(engine_ != nullptr, "no run in flight: start() first");
  QRGRID_CHECK_MSG(!engine_->active(),
                   "run still active: step() to completion first");
  ServiceReport report = engine_->finish();
  engine_.reset();
  return report;
}

double GridJobService::now_s() const {
  QRGRID_CHECK_MSG(engine_ != nullptr, "no run in flight: start() first");
  return engine_->clock;
}

template <class V>
void GridJobService::visit_config(V& v) const {
  // The tie oracle is deliberately absent: a harness installs its own
  // per branch.
  const int nclusters = topology_.num_clusters();
  v.expect(nclusters, "cluster count");
  for (int c = 0; c < nclusters; ++c) v.expect(topology_.cluster(c), "cluster");
  v.expect(topology_.intra_node_link(), "intra_node_link");
  v.expect(topology_.intra_cluster_link(), "intra_cluster_link");
  for (int a = 0; a < nclusters; ++a) {
    for (int b = 0; b < nclusters; ++b) {
      v.expect(topology_.inter_cluster_link(a, b), "inter_cluster_link");
    }
  }
  v.expect(roofline_, "roofline");
  options_.visit(v);
}

std::string GridJobService::snapshot() {
  QRGRID_CHECK_MSG(engine_ != nullptr, "no run in flight: start() first");
  SnapshotWriter w;
  w(std::string(kSnapshotMagic), kSnapshotVersion);
  visit_config(w);
  w(engine_->jobs, *engine_);
  return w.bytes();
}

void GridJobService::restore(const std::string& bytes) {
  QRGRID_CHECK_MSG(engine_ == nullptr,
                   "a run is already in flight; finish() it first");
  SnapshotReader r(bytes);
  std::string magic;
  r(magic);
  QRGRID_CHECK_MSG(magic == kSnapshotMagic,
                   "not a service snapshot (bad magic)");
  std::uint32_t version = 0;
  r(version);
  QRGRID_CHECK_MSG(version == kSnapshotVersion,
                   "snapshot format version " << version
                       << " != supported " << kSnapshotVersion);
  visit_config(r);
  std::vector<Job> jobs;
  r(jobs);
  for (const Job& job : jobs) check_job(job);
  check_unique_ids(jobs);
  // Built aside and installed only once fully loaded: a refused snapshot
  // leaves no run in flight.
  auto engine = std::make_unique<Engine>(*this, std::move(jobs),
                                         /*quiet=*/true);
  r(*engine);
  QRGRID_CHECK_MSG(r.at_end(), "snapshot has trailing bytes");
  engine_ = std::move(engine);
}

}  // namespace qrgrid::sched
