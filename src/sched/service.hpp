// Grid job service: queued multi-job scheduling over the DES engine.
//
// The service co-executes a stream of TSQR factorization jobs on one
// shared grid in virtual time. Placement goes through the paper's
// QCG-OMPI contract: for each job a JobProfile (g groups confined to
// single clusters by their latency bound) is handed to the run's one
// MetaScheduler, which allocates from the currently-free processes of
// each cluster; the job's runtime on the granted nodes is the exact
// des_tsqr replay of its schedule (cached per shape x placement, which
// is what lets a 1000-job bench finish in seconds). Nodes are held
// exclusively for the job's duration and returned at completion — space
// sharing, the way Grid'5000's OAR batch scheduler actually hands out
// the paper's testbed.
//
// Scheduling is pluggable (sched/policy.hpp): every queue-order and
// reservation/backfill decision goes through a SchedulingPolicy
// object. Built-ins: FCFS (head blocks), shortest-
// predicted-job-first (Section-IV Equation (1) as the sort key), EASY
// backfilling (arrival-ordered head keeps a reservation at the earliest
// time enough nodes free up; later jobs may jump ahead only if they
// provably finish before it — the pass visits them as a queue-order
// merge of the pending queue's per-procs buckets, skipping every size
// that cannot be placed until an admission moves the free state),
// priority-aware EASY (a higher-priority
// pending job claims the reservation; shadow times price WAN drain
// estimates under contention), and weighted fair-share (deficit-round-
// robin over per-user accumulated service / weight).
//
// Fault model: ServiceOptions carries an OutageTrace of whole-cluster
// down/up boundaries. A failing cluster kills every job holding nodes on
// it; the lost node-seconds are charged as waste and the job is requeued
// (up to max_retries times; optionally with restart credit for completed
// row-block panels of its replay). Jobs carry user walltime estimates:
// EASY plans with the ESTIMATES, execution uses exact replay seconds, and
// an attempt running past its walltime is killed for good. Event
// precedence at one virtual instant: completions (and walltime kills),
// then outage boundaries (recoveries before failures), then arrivals.
//
// Shared WAN (sched/wan.hpp): with wan_contention on, the replays stop
// being private — every in-flight attempt's inter-site byte demand
// drains against grid-wide per-cluster uplink/downlink horizons and one
// aggregate backbone at fair share, and the attempt cannot complete
// before its demand has drained. Finish times become load-dependent:
// max(cached replay end, WAN drain end), which is >= the isolated replay
// always and == it when nothing overlaps. wan_aware additionally biases
// placement toward clusters whose WAN links carry the fewest in-flight
// flows. Note EASY's no-delay guarantee is proved against replay-exact
// (or walltime-bounded) completions; under contention running jobs can
// outlast their estimates, so the reservation becomes best-effort.
// Execution backend (sched/backend.hpp): one class in two kinds. The
// virtual-time bookkeeping above is always driven by its cached DES
// replay profile, so WHICH kind runs the attempts never changes a
// scheduling decision. The default kDesReplay kind stops there;
// kMsgRuntime additionally executes every attempt for real on a threaded
// msg::Runtime — completed jobs carry measured makespans and numerics
// (residual/orthogonality), and injected kills abort the communicator
// mid-factorization, so the fault accounting is exercised against
// genuine partial executions. The equivalence suite pins the two kinds
// to identical decisions and to finish-time agreement within a stated
// tolerance.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "model/roofline.hpp"
#include "sched/backend.hpp"
#include "sched/job.hpp"
#include "sched/outage.hpp"
#include "sched/policy.hpp"
#include "sched/wan.hpp"
#include "simgrid/topology.hpp"

namespace qrgrid::sched {

class MetricsRegistry;
class PhaseProfiler;
class ServiceTracer;

/// Deterministic seam over every same-instant ordering choice the service
/// makes. The event loop's precedence (completions, then outage
/// recoveries, then outage failures, then arrivals) is fixed; WITHIN one
/// precedence class at one virtual instant the canonical order is a pure
/// tie-break (seq for completions and outage victims, trace order for
/// outage boundaries, id for arrivals). An installed oracle is consulted
/// at exactly those ties: `choose` picks which of the k tied candidates
/// goes next, where the candidates are presented in canonical order —
/// index 0 is the canonical pick. The service has one code path per
/// event class: without an oracle (the default) every tie takes index 0,
/// so an oracle that always answers 0 reproduces the oracle-free run by
/// construction. The interleaving explorer (sched/explore.hpp) drives
/// this seam to enumerate ALL legal event orderings.
class TieOracle {
 public:
  enum class Kind : int {
    kCompletion = 0,   ///< completions/walltime kills tied on event time
    kOutageUp,         ///< cluster recoveries tied at one instant
    kOutageDown,       ///< cluster failures tied at one instant
    kArrival,          ///< submissions tied on arrival_s
    kOutageVictim,     ///< kill order among one failure's running victims
  };
  virtual ~TieOracle() = default;
  /// Which of the k (>= 2) tied candidates goes next at virtual time
  /// t_s. Must return a value in [0, k); the canonical choice is 0.
  virtual int choose(Kind kind, double t_s, int k) = 0;
};

struct ServiceOptions {
  /// Which SchedulingPolicy make_policy constructs
  /// (fcfs|spjf|easy|prio-easy|fair) — the one selection path; run()
  /// resets the instance before every workload.
  Policy policy = Policy::kFcfs;
  /// Domains per cluster for each job's TSQR replay; 0 = auto (one domain
  /// per process for N <= 128, at most 16 for wider panels — the Fig. 6/7
  /// trade-off), core::kOneDomainPerProcess = exactly one single-rank
  /// domain per process (the layout under which a msg-runtime execution
  /// is structurally identical to the replay schedule). Fixed for the
  /// service's lifetime, like every option, so the profile cache (one
  /// per service) needs no key for it.
  int domains_per_cluster = 0;
  /// Bound on how many pending candidates one backfill pass examines
  /// behind the blocked head (SLURM's bf_max_job_test): only the first
  /// backfill_depth of them may backfill. 0 = unlimited; negative is
  /// refused.
  int backfill_depth = 0;
  /// Whole-cluster failure/recovery boundaries (default: no faults).
  OutageTrace outages;
  /// Outage-killed jobs are requeued at most this many times; the next
  /// kill is final. Walltime kills are always final. Must be >= 0.
  int max_retries = 3;
  /// When true, an outage-killed job restarts from its last completed
  /// row-block panel instead of from scratch: the kept prefix of the
  /// replay is banked as useful work and only the remainder re-runs.
  bool restart_credit = false;
  /// Restart-credit granularity: the replay is checkpointable at
  /// `checkpoint_panels` equally-spaced points (domains are equal-sized,
  /// so panels are uniform in replay time). Must be >= 0; 0 banks
  /// nothing.
  int checkpoint_panels = 8;
  /// Checkpoints are not free: with restart_credit on, every interior
  /// panel boundary an attempt crosses writes its state over the
  /// intra-cluster link, charged as this many seconds appended to the
  /// attempt (and to EASY's estimate of it). 0 keeps PR-2's free credit;
  /// large values flip the credit/overhead trade-off against
  /// checkpointing. Negative or NaN is refused.
  double checkpoint_cost_s = 0.0;

  /// --- Shared-WAN contention (sched/wan.hpp) ---
  /// Thread one grid-wide WAN model through the run: concurrent jobs'
  /// inter-site byte demands share per-cluster uplink/downlink horizons
  /// and an aggregate backbone at fair share, and job finish times
  /// stretch accordingly. Off (default) reproduces PR-2 exactly.
  bool wan_contention = false;
  /// Network-aware placement: order candidate clusters by how many
  /// in-flight flows currently touch their WAN links, so new placements
  /// land on idle uplinks when the meta-scheduler has a choice. Requires
  /// wan_contention (the service refuses it alone).
  bool wan_aware = false;
  /// Aggregate capacity of each site's WAN uplink (and downlink), in
  /// bytes/second. Also forwarded to every replay's DesEngine
  /// (set_wan_aggregate_Bps), so one knob governs both the intra-replay
  /// horizon and the cross-job contention model.
  double wan_link_Bps = 10e9 / 8.0;
  /// Shared backbone capacity; 0 = auto, wan_link_Bps x max(1, sites/2)
  /// — a trunk that can carry about half the sites at full tilt.
  /// +infinity = unconstrained core under either fairness rule: the
  /// site access links bind and the trunk imposes no rate constraint
  /// (Grid'5000's overprovisioned RENATER core), so no backbone pools
  /// are admitted and rebalance components stay per-site islands.
  double wan_backbone_Bps = 0.0;
  /// How concurrent flows share the WAN links (the assign_wan_rates
  /// rule; both run through the one incremental rate engine):
  /// equal-split per link is the regression baseline; max-min runs
  /// progressive filling over multi-link demands, so flows bottlenecked
  /// on one link return their unused share everywhere else.
  WanFairness wan_fairness = WanFairness::kEqualSplit;

  /// --- Execution backend (sched/backend.hpp) ---
  /// How granted attempts run: kDesReplay (cached replay, the default)
  /// or kMsgRuntime (real threaded execution per attempt of at most 8M
  /// matrix entries, small workloads only). Scheduling decisions are
  /// backend-independent.
  BackendKind backend = BackendKind::kDesReplay;

  /// --- Observability (sched/telemetry.hpp) ---
  /// Caller-owned structured-event stream and metrics store, threaded
  /// through the service, policy, WAN model, and backend for the run.
  /// Null (the default) disables recording entirely: every emit site is
  /// one pointer test, and a disabled run is byte-identical to a build
  /// without the telemetry layer. Telemetry never influences a
  /// scheduling decision.
  ServiceTracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
  /// Wait-blame attribution: classify, per pending job per vtime
  /// interval, why it did not start (the BlameCategory taxonomy in
  /// sched/telemetry.hpp), emitted as kWaitBlame events (tracer), rolled
  /// up per job/user/priority class (metrics), and copied into each
  /// JobOutcome::blame_s. The categories partition each job's reported
  /// wait exactly. Off (the default) skips the classification pass
  /// entirely: traces and metrics are byte-identical to a build without
  /// it, and service outcomes are identical either way.
  bool wait_blame = false;
  /// Scoped wall-clock phase timers around the loop's hot phases
  /// (sched/profiler.hpp). Null (the default) never reads a clock. Wall
  /// times land in `profiler.*` gauges only — never in the virtual-time
  /// trace — so trace byte-determinism is unaffected.
  PhaseProfiler* profiler = nullptr;

  /// Snapshot guard (sched/snapshot.hpp): every option a checkpoint's
  /// bytes or its replayed decisions depend on, as `expect` tags named
  /// after the fields — the writer stores them, and restore() compares
  /// each against this service's value, refusing the first mismatch by
  /// name. The profiler (wall clock only) is deliberately absent.
  template <class V>
  void visit(V& v) const {
    v.expect(policy, "policy");
    v.expect(domains_per_cluster, "domains_per_cluster");
    v.expect(backfill_depth, "backfill_depth");
    v.expect(outages.config_key(), "outages");
    v.expect(max_retries, "max_retries");
    v.expect(restart_credit, "restart_credit");
    v.expect(checkpoint_panels, "checkpoint_panels");
    v.expect(checkpoint_cost_s, "checkpoint_cost_s");
    v.expect(wan_contention, "wan_contention");
    v.expect(wan_aware, "wan_aware");
    v.expect(wan_link_Bps, "wan_link_Bps");
    v.expect(wan_backbone_Bps, "wan_backbone_Bps");
    v.expect(wan_fairness, "wan_fairness");
    v.expect(backend, "backend");
    v.expect(tracer != nullptr, "tracer");
    v.expect(metrics != nullptr, "metrics");
    v.expect(wait_blame, "wait_blame");
  }
};

/// Grid-wide accounting of one service run.
///
/// Conservation invariants (checked by the fault test suite):
///   completed_jobs + failed_jobs == submitted jobs == outcomes.size()
///   killed_jobs == walltime_kills + outage_kills
///   useful_node_seconds + wasted_node_seconds <= capacity x makespan
struct ServiceReport {
  Policy policy = Policy::kFcfs;
  std::vector<JobOutcome> outcomes;  ///< ALL jobs, sorted by job id

  double makespan_s = 0.0;           ///< last completion-or-final-kill time
  double mean_wait_s = 0.0;
  double max_wait_s = 0.0;
  double mean_turnaround_s = 0.0;
  double throughput_jobs_per_hour = 0.0;
  double aggregate_gflops = 0.0;     ///< sum of useful flops / makespan
  double utilization = 0.0;          ///< useful node-seconds / capacity
  long long backfilled_jobs = 0;

  long long completed_jobs = 0;
  long long failed_jobs = 0;      ///< walltime-killed or out of retries
  long long killed_jobs = 0;      ///< kill EVENTS (one job may die twice)
  long long walltime_kills = 0;
  long long outage_kills = 0;
  long long requeued_jobs = 0;    ///< requeue events after outage kills
  double useful_node_seconds = 0.0;  ///< completed attempts + banked panels
  double wasted_node_seconds = 0.0;  ///< held but thrown away by kills

  /// Per-master-cluster WAN byte totals summed over every job's replay
  /// (the DesEngine per-cluster counters, mapped back to grid sites).
  std::vector<long long> wan_egress_bytes;
  std::vector<long long> wan_ingress_bytes;

  /// Shared-WAN accounting (all neutral when wan_contention is off).
  /// Slowdowns are over COMPLETED jobs: contended service time over the
  /// isolated replay remainder of the final attempt.
  double mean_wan_slowdown = 1.0;
  double max_wan_slowdown = 1.0;
  /// Fraction of the makespan each link carried at least one in-flight
  /// job's undrained WAN demand.
  std::vector<double> wan_uplink_busy;
  std::vector<double> wan_downlink_busy;
  double wan_backbone_busy = 0.0;

  /// Real-execution accounting (all zero on the des-replay backend).
  long long executed_attempts = 0;  ///< attempts run on the msg runtime
  long long aborted_attempts = 0;   ///< of those, killed mid-factorization
  double max_residual = 0.0;        ///< worst ||A-QR||/||A|| over executions
  double max_orthogonality = 0.0;   ///< worst ||Q^T Q - I|| over executions
  /// Per killed-and-executed attempt: where on the replay timeline the
  /// service injected the kill, vs the furthest virtual time the real
  /// aborted run actually reached — summed, so the suite can pin the
  /// synthetic truncation against genuine partial executions.
  double injected_abort_vtime_s = 0.0;
  double measured_abort_vtime_s = 0.0;
};

/// WAN bytes the run pushed across site uplinks (egress summed over
/// clusters; equals the ingress sum — every byte leaves one site and
/// enters another).
long long total_wan_bytes(const ServiceReport& report);

/// Busiest WAN link of the run: max busy fraction over every uplink,
/// downlink, and the backbone (0 when contention modeling is off).
double max_wan_busy_fraction(const ServiceReport& report);

/// Canonical policy-comparison table columns, shared by the CLI `serve`
/// subcommand and bench_job_service so the two never drift apart.
std::vector<std::string> summary_header();
std::vector<std::string> summary_row(const ServiceReport& report);

/// Fraction of an attempt's span [0, span] that `elapsed` seconds cover,
/// clamped to [0, 1]. The guarded form of the kill paths' former raw
/// `elapsed / span`: a zero-length span (floating-point absorption can
/// collapse start + tiny attempt onto start even though the attempt
/// seconds are positive) counts as fully covered when any time elapsed
/// and as nothing otherwise — never NaN, never infinity.
double covered_span_fraction(double elapsed, double span);

class GridJobService {
 public:
  GridJobService(simgrid::GridTopology topology, model::Roofline roofline,
                 ServiceOptions options = {});
  ~GridJobService();  // out of line: engine_ deletes an incomplete type

  /// Runs the whole workload until every job has completed or been killed
  /// for the last time, and reports. Throws qrgrid::Error if some job
  /// cannot fit even an empty, fully-up grid. Exactly
  /// start(); while (active()) step(); return finish();
  ServiceReport run(std::vector<Job> jobs);

  /// --- Stepping API: run(), one event-loop iteration at a time. ---
  /// Validates and admits the workload and stands up the run's state
  /// (outage cursor, WAN model, telemetry preamble) without advancing
  /// virtual time. One run may be in flight per service.
  void start(std::vector<Job> jobs);
  /// True while undispatched arrivals, pending jobs, or running attempts
  /// remain — run()'s loop condition.
  bool active() const;
  /// One iteration of the event loop: advance to the next event time,
  /// resolve completions/kills, outage boundaries, arrivals, then a
  /// dispatch pass. Requires active().
  void step();
  /// Final accounting over the finished run; clears the in-flight state
  /// so the service can start() again. Requires !active().
  ServiceReport finish();
  /// Virtual clock of the in-flight run (0 before the first step).
  double now_s() const;

  /// --- Snapshot / restore (sched/snapshot.hpp) ---
  /// Byte-faithful capture of the FULL mid-run state between steps:
  /// pending queue (policy-private state included), running attempts,
  /// free-node accounting, WAN flows and horizons, outage cursors and RNG
  /// streams, restart-credit progress, and telemetry high-water marks.
  /// Restoring into a service built with the SAME configuration (guarded
  /// by the embedded visit_config tags) and stepping to completion
  /// reproduces the uninterrupted run's trace, metrics, and report
  /// byte-for-byte.
  /// restore() treats the bytes as hostile: anything malformed ends in
  /// qrgrid::Error with no run left in flight (caller-owned telemetry
  /// sinks may hold partially restored state).
  std::string snapshot();
  void restore(const std::string& bytes);

  /// Installs (or clears, with nullptr) the same-instant tie oracle.
  /// Borrowed, not owned; consulted only when two or more candidates of
  /// one precedence class tie at one virtual instant.
  void set_tie_oracle(TieOracle* oracle) { oracle_ = oracle; }

  /// Section-IV Equation (1) estimate used by SPJF ordering (and reported
  /// alongside the exact replay times).
  double predicted_seconds(const Job& job) const;

  const simgrid::GridTopology& topology() const { return topology_; }

 private:
  /// One in-flight workload: the run's state and its event loop
  /// (defined in service.cpp), kept out of the service so the loop can
  /// pause between steps and serialize itself. Null when no run is in
  /// flight.
  struct Engine;

  /// Everything that must match for a snapshot to be restorable here,
  /// as expect tags: the cluster count (first, so a mismatch stops before
  /// the per-cluster tags misalign), every ClusterSpec, every link, the
  /// roofline, and ServiceOptions::visit. Embedded in snapshots and
  /// compared on restore().
  template <class V>
  void visit_config(V& v) const;

  simgrid::GridTopology topology_;
  model::Roofline roofline_;
  ServiceOptions options_;
  /// The scheduling-policy object every queue-order / backfill /
  /// placement-scoring decision goes through (never the enum). Stateful
  /// policies (fair-share) are reset at the top of every run().
  std::unique_ptr<SchedulingPolicy> policy_;
  /// Declared after the configuration it borrows; profiles it caches
  /// stay valid for the service's lifetime.
  ExecutionBackend backend_;
  std::unique_ptr<Engine> engine_;
  TieOracle* oracle_ = nullptr;
};

}  // namespace qrgrid::sched
