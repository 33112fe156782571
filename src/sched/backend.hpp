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
#include <cstddef>
#include <limits>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/roofline.hpp"
#include "sched/job.hpp"
#include "simgrid/topology.hpp"

namespace qrgrid::sched {

struct ServiceOptions;

/// Nodes granted to one job, parallel arrays over the clusters used
/// (ascending master cluster id — the canonical form the profile cache
/// key and the report's parallel arrays rely on).
struct Placement {
  std::vector<int> clusters;
  std::vector<int> nodes;

  /// The nodes granted in all. Derived, so a checkpoint does not carry
  /// it: a restored placement is summed only after check_placement has
  /// bounded each entry.
  int total_nodes() const {
    return std::accumulate(nodes.begin(), nodes.end(), 0);
  }

  auto operator<=>(const Placement&) const = default;

  template <class V>
  void visit(V& v) { v(clusters, nodes); }
};

/// Throws qrgrid::Error unless `p` is a placement this topology could
/// have granted: ascending distinct clusters, each holding 1..capacity
/// nodes. Restored placements index per-cluster arrays and build replay
/// topologies, so hostile bytes stop here.
void check_placement(const Placement& p, const simgrid::GridTopology& topo);

/// Cached performance profile of one (shape x placement) combination —
/// everything the service needs to advance virtual time, account WAN
/// bytes, and feed the shared-WAN contention model.
struct ExecutionProfile {
  double seconds = 0.0;
  double gflops = 0.0;
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

/// How granted attempts run. profile() is what the service schedules and
/// accounts with — the same for both kinds (see the header comment);
/// execute() is the kMsgRuntime kind's real run. Borrows the owning
/// service's topology, roofline, and options: one declaration of the
/// run's configuration, read where it is used.
class ExecutionBackend {
 public:
  /// Profile-cache key: the job's shape and its canonical placement,
  /// compared exactly (m too — no rounding). The options that also
  /// shape a replay (domains_per_cluster, wan_link_Bps, ...) are the
  /// borrowed service's, fixed for this backend's lifetime. The cache is
  /// hashed, and a lookup hashes a borrowed view of the job's shape and
  /// placement, so only a miss builds a key; the ordering below sorts
  /// profile_keys().
  struct ProfileKey {
    double m = 0.0;
    int n = 0;
    core::TreeKind tree = core::TreeKind::kFlat;
    Placement placement;

    auto operator<=>(const ProfileKey&) const = default;

    template <class V>
    void visit(V& v) { v(m, n, tree, placement); }
  };

  ExecutionBackend(const simgrid::GridTopology& topology,
                   const model::Roofline& roofline,
                   const ServiceOptions& options);

  /// True for the kMsgRuntime kind: execute() actually runs
  /// factorizations (the service skips the call entirely otherwise — no
  /// result plumbing on the hot path).
  bool executes() const;

  /// Memoized performance profile of the job on its granted nodes,
  /// reporting the cache traffic to the service's tracer and metrics.
  /// The reference stays valid for the backend's lifetime.
  const ExecutionProfile& profile(const Job& job, const Placement& placement);

  /// The cached profile of the job on these nodes, or nullptr if none
  /// was computed yet. An observer's lookup: it computes nothing and
  /// counts no cache traffic, so calling it changes no counter, event
  /// or later decision.
  const ExecutionProfile* find_profile(const Job& job,
                                       const Placement& placement) const;

  /// Runs the attempt for real; requires executes(). `abort_vtime_s` is
  /// where an injected kill (outage or walltime) lands on the
  /// factorization's virtual timeline: any rank whose clock crosses it
  /// aborts the communicator, releasing every peer — +infinity runs to
  /// completion and verifies numerics.
  ExecutionResult execute(const Job& job, const Placement& placement,
                          double abort_vtime_s);

  /// Snapshot seam: the cached profiles' keys, sorted into key order on
  /// output (the hashed cache has none), so a checkpoint's bytes do not
  /// depend on the order the profiles were computed in.
  std::vector<ProfileKey> profile_keys() const;
  /// Snapshot load: validates every key (a well-formed shape, a
  /// placement this grid could grant), then computes each profile not
  /// cached yet. Silently: the restored telemetry already holds the
  /// original compute events and counters, and every later profile()
  /// call hits or misses as the uninterrupted run's would.
  void warm(const std::vector<ProfileKey>& keys);

 private:
  /// A ProfileKey's fields with the placement borrowed: what profile()
  /// and find_profile() look up with, so a hit copies no vector.
  struct KeyView {
    double m;
    int n;
    core::TreeKind tree;
    const Placement& placement;

    KeyView(double m_in, int n_in, core::TreeKind tree_in,
            const Placement& placement_in)
        : m(m_in), n(n_in), tree(tree_in), placement(placement_in) {}
    // Implicit: the cache's hash and equality take owned keys as views.
    KeyView(const ProfileKey& key)  // NOLINT(google-explicit-constructor)
        : KeyView(key.m, key.n, key.tree, key.placement) {}
  };
  /// Transparent hash and equality over views, so the cache finds a
  /// ProfileKey by a KeyView. Equal exactly when ProfileKey's ordering
  /// holds the keys equivalent.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(const KeyView& key) const;
  };
  struct KeyEqual {
    using is_transparent = void;
    bool operator()(const KeyView& a, const KeyView& b) const;
  };

  /// The replay behind one cache entry: a pure function of the key and
  /// the borrowed configuration, reporting nothing.
  ExecutionProfile compute(const ProfileKey& key) const;

  const simgrid::GridTopology& topology_;
  const model::Roofline& roofline_;
  /// Also the telemetry sinks (tracer, metrics) the backend reports
  /// through; nothing reported may influence a profile or an execution.
  const ServiceOptions& options_;
  /// Node-based, so a profile's address survives later inserts and
  /// rehashes: profile() hands out references for the cache's lifetime.
  std::unordered_map<ProfileKey, ExecutionProfile, KeyHash, KeyEqual>
      profile_cache_;
};

}  // namespace qrgrid::sched
