// The execution backend of the grid job service: one class, two kinds.
//
// GridJobService turns a queue of factorization requests into virtual-time
// scheduling decisions; HOW one granted attempt actually runs is this
// class, in the kind ServiceOptions::backend selects:
//
//   kDesReplay — the cached des_tsqr replay: one DES pass per (shape x
//     placement), memoized, no payload data ever touched. This is what
//     lets a 1000-job bench finish in seconds and is the production path
//     for figure-scale matrices.
//
//   kMsgRuntime — additionally executes tsqr_factor, the algorithm the
//     replay prices, on a threaded msg::Runtime sized to the placement,
//     with the placement's sub-topology mapped through msg::cost_model
//     (TopologyCostModel), and reports real numerics (residual,
//     orthogonality) per job. Injected kills become REAL mid-run
//     failures: a virtual-walltime limit on the runtime aborts the
//     communicator mid-factorization through the abort propagation
//     machinery (tests/failure_test.cpp), instead of synthetically
//     truncating a replay.
//
// The contract that makes the service's decisions backend-INDEPENDENT:
// both kinds schedule with the same cached replay profile(), so
// placement, start order, and backfill choices are identical under either
// kind by construction — and the equivalence suite pins exactly that,
// plus the measured-vs-replayed finish-time agreement that turns the
// simulator into a validated predictor.
#pragma once

#include <compare>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "model/roofline.hpp"
#include "sched/job.hpp"
#include "simgrid/topology.hpp"

namespace qrgrid::sched {

class MetricsRegistry;
class ServiceTracer;
struct ServiceOptions;

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
  /// Fraction of the replay timeline before the first transfer leaves
  /// (reaches) each placement cluster's WAN link — TSQR's compute
  /// prefix, during which the job does not contend. 1.0 when the
  /// cluster never sends (receives) across the WAN.
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

/// Which kind of backend a ServiceOptions asks for.
enum class BackendKind {
  kDesReplay,   ///< cached DES replay (default, figure-scale)
  kMsgRuntime,  ///< replay plus threaded msg::Runtime execution (small)
};
/// Parses "des" | "msg"; throws qrgrid::Error otherwise.
BackendKind backend_of(const std::string& name);
std::string backend_name(BackendKind kind);

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
/// accounts with — the same for both kinds (see the header comment);
/// execute() is the kMsgRuntime kind's real run. Borrows the owning
/// service's topology, roofline, and options: one declaration of the
/// run's configuration, read where it is used.
class ExecutionBackend {
 public:
  ExecutionBackend(const simgrid::GridTopology& topology,
                   const model::Roofline& roofline,
                   const ServiceOptions& options);

  /// True for the kMsgRuntime kind: execute() actually runs
  /// factorizations (the service skips the call entirely otherwise — no
  /// result plumbing on the hot path).
  bool executes() const;

  /// Memoized performance profile of the job on its granted nodes.
  /// The reference stays valid for the backend's lifetime.
  const ExecutionProfile& profile(const Job& job, const Placement& placement);

  /// Runs the attempt for real; requires executes(). `abort_vtime_s` is
  /// where an injected kill (outage or walltime) lands on the
  /// factorization's virtual timeline: any rank whose clock crosses it
  /// aborts the communicator, releasing every peer — +infinity runs to
  /// completion and verifies numerics.
  ExecutionResult execute(const Job& job, const Placement& placement,
                          double abort_vtime_s);

  /// Observability seam: the service's (optional) tracer and metrics,
  /// bound at construction, through which the backend reports
  /// profile-cache traffic and real executions. The restore path unbinds
  /// them (nulls) while it re-warms the cache; nothing here may influence
  /// a profile or an execution.
  void bind_telemetry(ServiceTracer* tracer, MetricsRegistry* metrics) {
    tracer_ = tracer;
    metrics_ = metrics;
  }

  /// Snapshot seam: every cache miss this backend ever computed, in
  /// order.
  const std::vector<ProfileExemplar>& profile_exemplars() const {
    return exemplars_;
  }

 private:
  /// Profile-cache key: the job's shape and its canonical placement,
  /// compared exactly (m too — no rounding). The options that also
  /// shape a replay (domains_per_cluster, wan_link_Bps, ...) are the
  /// borrowed service's, fixed for this backend's lifetime.
  struct ProfileKey {
    double m = 0.0;
    int n = 0;
    core::TreeKind tree = core::TreeKind::kFlat;
    std::vector<int> clusters;
    std::vector<int> nodes;

    auto operator<=>(const ProfileKey&) const = default;
  };

  const simgrid::GridTopology& topology_;
  const model::Roofline& roofline_;
  const ServiceOptions& options_;
  ServiceTracer* tracer_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  std::map<ProfileKey, ExecutionProfile> profile_cache_;
  std::vector<ProfileExemplar> exemplars_;  ///< cache misses, in order
};

}  // namespace qrgrid::sched
