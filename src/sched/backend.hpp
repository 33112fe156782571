// Pluggable execution backends for the grid job service.
//
// GridJobService turns a queue of factorization requests into virtual-time
// scheduling decisions; HOW one granted attempt actually runs is this
// interface. Two implementations:
//
//   DesReplayBackend — the cached des_tsqr replay (the PR-1..3 behavior,
//     byte-identical): one DES pass per (shape x placement), memoized, no
//     payload data ever touched. This is what lets a 1000-job bench finish
//     in seconds and is the production path for figure-scale matrices.
//
//   MsgRuntimeBackend — actually executes tsqr_factor / caqr_factor on a
//     threaded msg::Runtime sized to the placement, with the placement's
//     sub-topology mapped through msg::cost_model (TopologyCostModel), and
//     reports real numerics (residual, orthogonality) per job. Injected
//     kills become REAL mid-run failures: a virtual-walltime limit on the
//     runtime aborts the communicator mid-factorization through the abort
//     propagation machinery (tests/failure_test.cpp), instead of
//     synthetically truncating a replay.
//
// The contract that makes the service's decisions backend-INDEPENDENT:
// both backends derive their performance profile from the same DES replay
// code (MsgRuntimeBackend inherits DesReplayBackend::profile), so
// placement, start order, and backfill choices are identical under either
// backend by construction — and the equivalence suite pins exactly that,
// plus the measured-vs-replayed finish-time agreement that turns the
// simulator into a validated predictor.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/roofline.hpp"
#include "sched/job.hpp"
#include "simgrid/topology.hpp"

namespace qrgrid::sched {

class MetricsRegistry;
class ServiceTracer;

/// Nodes granted to one job, parallel arrays over the clusters used
/// (ascending master cluster id — the canonical form the profile cache
/// key and the report's parallel arrays rely on).
struct Placement {
  std::vector<int> clusters;
  std::vector<int> nodes;
  int total_nodes = 0;

  template <class V>
  void visit(V& v) { v(clusters, nodes, total_nodes); }
};

/// Cached performance profile of one (shape x placement) combination —
/// everything the service needs to advance virtual time, account WAN
/// bytes, and feed the shared-WAN contention model.
struct ExecutionProfile {
  double seconds = 0.0;
  double gflops = 0.0;
  double compute_utilization = 0.0;
  std::vector<long long> egress_bytes;   ///< per placement cluster
  std::vector<long long> ingress_bytes;  ///< per placement cluster
  /// Fraction of the replay timeline before the first byte leaves
  /// (reaches) each placement cluster's WAN link — TSQR's compute
  /// prefix, during which the job does not contend. 1.0 when the
  /// cluster moves no WAN bytes at all.
  std::vector<double> egress_first_fraction;
  std::vector<double> ingress_first_fraction;
};

/// What one real execution measured. Default-constructed (executed ==
/// false) for replay-only backends: nothing ran, nothing was measured.
struct ExecutionResult {
  bool executed = false;  ///< an actual factorization ran on msg::Runtime
  bool aborted = false;   ///< the virtual-walltime limit killed it mid-run
  /// Simulated makespan of the real run: max final rank clock after the
  /// factorization (Q formation and verification are not metered). For
  /// aborted runs, the furthest virtual time any rank reached before the
  /// abort propagated — the REAL truncation point the service's synthetic
  /// fault accounting is validated against.
  double measured_s = 0.0;
  double residual = std::numeric_limits<double>::quiet_NaN();
  double orthogonality = std::numeric_limits<double>::quiet_NaN();
};

/// Which backend a ServiceOptions asks for.
enum class BackendKind {
  kDesReplay,   ///< cached DES replay (default, figure-scale)
  kMsgRuntime,  ///< threaded msg::Runtime execution (small workloads)
};
/// Parses "des" | "msg"; throws qrgrid::Error otherwise.
BackendKind backend_of(const std::string& name);
std::string backend_name(BackendKind kind);

/// Knobs shared by every backend (split out of ServiceOptions so backends
/// do not depend on scheduling policy).
struct BackendOptions {
  /// Domains per cluster for the TSQR replay; 0 = auto (one domain per
  /// process for N <= 128, at most 16 for wider panels),
  /// core::kOneDomainPerProcess = exactly one single-rank domain per
  /// process — the layout under which the msg runtime's execution is
  /// structurally identical to the replay schedule.
  int domains_per_cluster = 0;
  /// Aggregate per-site WAN uplink capacity forwarded to every replay's
  /// DesEngine (part of the profile cache key).
  double wan_link_Bps = 10e9 / 8.0;
  /// Record per-transfer WAN events in the replay (the shared-WAN
  /// contention model's activation windows). Off for contention-free
  /// services so figure-scale replays never grow vectors nothing reads.
  bool record_wan_transfers = false;
  /// Matrix data seed for real executions; each job's payload is drawn
  /// from a per-job-id diffusion of this, so distinct jobs factor
  /// genuinely different matrices.
  std::uint64_t matrix_seed = 2026;
  /// Real executions refuse jobs with more than this many matrix entries
  /// (m x n): the msg backend is for SMALL workloads; figure-scale jobs
  /// belong on the replay backend.
  double max_execute_elements = 8e6;
  /// When > 0, jobs wider than this run the full CAQR panel algorithm
  /// (caqr_factor, panels of this width) instead of single-panel TSQR.
  int caqr_panel_width = 0;
};

/// Topology over a per-cluster node subset of `master`, plus the mapping
/// from its cluster indices back to master cluster ids. Shared by the
/// service's placement path (free nodes) and the backends' replay /
/// execution paths (granted nodes). `order` lists master cluster ids in
/// the sequence the MetaScheduler's first-fit should consider them
/// (identity = naive; the wan-aware path passes idlest-uplink-first).
struct SubTopology {
  simgrid::GridTopology topology;
  std::vector<int> to_master;
};
SubTopology make_sub_topology(const simgrid::GridTopology& master,
                              const std::vector<int>& nodes_per_cluster,
                              const std::vector<int>& order);
std::vector<int> identity_order(int num_clusters);

/// One profile-cache MISS, recorded in computation order: the (job
/// shape, placement) pair whose profile the backend had to compute. A
/// restored service replays these through profile() with telemetry
/// unbound, silently pre-warming the cache so every FUTURE hit/miss
/// counter and kProfileCompute event matches the uninterrupted run's
/// byte-for-byte.
struct ProfileExemplar {
  Job job;
  Placement placement;

  template <class V>
  void visit(V& v) { v(job, placement); }
};

/// How granted attempts run. profile() is what the service schedules and
/// accounts with — it MUST be backend-independent (see the header
/// comment); execute() is the optional real run.
class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  virtual std::string name() const = 0;

  /// True when execute() actually runs factorizations (the service skips
  /// the call entirely otherwise — no result plumbing on the hot path).
  virtual bool executes() const = 0;

  /// Memoized performance profile of the job on its granted nodes.
  /// The reference stays valid for the backend's lifetime.
  virtual const ExecutionProfile& profile(const Job& job,
                                          const Placement& placement) = 0;

  /// Runs the attempt for real. `abort_vtime_s` is where an injected kill
  /// (outage or walltime) lands on the factorization's virtual timeline:
  /// any rank whose clock crosses it aborts the communicator, releasing
  /// every peer — +infinity runs to completion and verifies numerics.
  virtual ExecutionResult execute(const Job& job, const Placement& placement,
                                  double abort_vtime_s) = 0;

  /// Observability seam: the service binds its (optional) tracer and
  /// metrics before a run so backends can report profile-cache traffic
  /// and real executions. Nulls (the default) disable recording; nothing
  /// here may influence a profile or an execution.
  void bind_telemetry(ServiceTracer* tracer, MetricsRegistry* metrics) {
    tracer_ = tracer;
    metrics_ = metrics;
  }

  /// Snapshot seam: every cache miss this backend ever computed, in
  /// order. The base backend has no cache and returns an empty list.
  virtual const std::vector<ProfileExemplar>& profile_exemplars() const;

 protected:
  ServiceTracer* tracer_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
};

/// The cached-DES-replay backend (refactored out of GridJobService,
/// byte-identical behavior). execute() never runs anything.
class DesReplayBackend : public ExecutionBackend {
 public:
  DesReplayBackend(const simgrid::GridTopology* topology,
                   model::Roofline roofline, BackendOptions options);

  std::string name() const override { return "des-replay"; }
  bool executes() const override { return false; }
  const ExecutionProfile& profile(const Job& job,
                                  const Placement& placement) override;
  ExecutionResult execute(const Job&, const Placement&, double) override {
    return {};
  }

  const std::vector<ProfileExemplar>& profile_exemplars() const override {
    return exemplars_;
  }

 protected:
  const simgrid::GridTopology* topology_;
  model::Roofline roofline_;
  BackendOptions options_;

 private:
  std::unordered_map<std::string, ExecutionProfile> profile_cache_;
  std::vector<ProfileExemplar> exemplars_;  ///< cache misses, in order
};

/// Threaded-runtime backend: schedules with the inherited DES profile
/// (identical decisions by construction) and additionally executes every
/// attempt on a msg::Runtime over the placement's sub-topology.
class MsgRuntimeBackend final : public DesReplayBackend {
 public:
  using DesReplayBackend::DesReplayBackend;

  std::string name() const override { return "msg-runtime"; }
  bool executes() const override { return true; }
  ExecutionResult execute(const Job& job, const Placement& placement,
                          double abort_vtime_s) override;
};

std::unique_ptr<ExecutionBackend> make_backend(
    BackendKind kind, const simgrid::GridTopology* topology,
    model::Roofline roofline, const BackendOptions& options);

}  // namespace qrgrid::sched
