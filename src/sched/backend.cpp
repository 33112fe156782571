#include "sched/backend.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>

#include "common/check.hpp"
#include "core/des_algos.hpp"
#include "core/tsqr.hpp"
#include "linalg/generators.hpp"
#include "linalg/norms.hpp"
#include "model/costs.hpp"
#include "msg/comm.hpp"
#include "sched/profiler.hpp"
#include "sched/service.hpp"
#include "sched/telemetry.hpp"
#include "simgrid/cost.hpp"
#include "simgrid/des.hpp"

namespace qrgrid::sched {

namespace {

/// Matrix payload seed of real executions (per-job-id diffused).
constexpr std::uint64_t kMatrixSeed = 2026;
/// Real executions refuse jobs with more matrix entries (m x n) than
/// this: the msg-runtime kind is for SMALL workloads; figure-scale jobs
/// belong on the replay kind.
constexpr double kMaxExecuteElements = 8e6;

}  // namespace

BackendKind backend_of(const std::string& name) {
  if (name == "des") return BackendKind::kDesReplay;
  if (name == "msg") return BackendKind::kMsgRuntime;
  throw Error("unknown --backend '" + name + "' (des|msg)");
}

std::string backend_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::kDesReplay:
      return "des-replay";
    case BackendKind::kMsgRuntime:
      return "msg-runtime";
  }
  throw Error("unreachable backend kind");
}

void check_placement(const Placement& p, const simgrid::GridTopology& topo) {
  QRGRID_CHECK_MSG(!p.clusters.empty() && p.clusters.size() == p.nodes.size(),
                   "corrupt snapshot: placement shape");
  for (std::size_t i = 0; i < p.clusters.size(); ++i) {
    const int c = p.clusters[i];
    QRGRID_CHECK_MSG((i == 0 ? c >= 0 : c > p.clusters[i - 1]) &&
                         c < topo.num_clusters() && p.nodes[i] >= 1 &&
                         p.nodes[i] <= topo.cluster(c).nodes,
                     "corrupt snapshot: placement on cluster " << c);
  }
}

namespace {

/// Topology of the granted nodes (clusters in ascending master id) —
/// shared by the replay and the real execution so both run the job on
/// the SAME simulated hardware.
simgrid::GridTopology placement_topology(const simgrid::GridTopology& master,
                                         const Placement& placement) {
  std::vector<simgrid::ClusterSpec> clusters;
  for (std::size_t i = 0; i < placement.clusters.size(); ++i) {
    simgrid::ClusterSpec spec = master.cluster(placement.clusters[i]);
    spec.nodes = placement.nodes[i];
    clusters.push_back(spec);
  }
  const std::size_t k = clusters.size();
  std::vector<std::vector<simgrid::LinkParams>> inter(
      k, std::vector<simgrid::LinkParams>(k));
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      inter[i][j] = i == j ? master.intra_cluster_link()
                           : master.inter_cluster_link(placement.clusters[i],
                                                       placement.clusters[j]);
    }
  }
  return simgrid::GridTopology(std::move(clusters), master.intra_node_link(),
                               master.intra_cluster_link(), std::move(inter));
}

}  // namespace

ExecutionBackend::ExecutionBackend(const simgrid::GridTopology& topology,
                                   const model::Roofline& roofline,
                                   const ServiceOptions& options)
    : topology_(topology), roofline_(roofline), options_(options) {}

bool ExecutionBackend::executes() const {
  return options_.backend == BackendKind::kMsgRuntime;
}

namespace {

/// Folds one word into a running hash: a multiply spreads it into the
/// high bits, the shift brings them back down to the bucket index.
std::uint64_t fold(std::uint64_t h, std::uint64_t word) {
  h = (h ^ word) * 0x9e3779b97f4a7c15ull;
  return h ^ (h >> 32);
}

}  // namespace

std::size_t ExecutionBackend::KeyHash::operator()(const KeyView& key) const {
  // m + 0.0 turns -0.0 into +0.0, which == holds equal.
  std::uint64_t h = fold(std::bit_cast<std::uint64_t>(key.m + 0.0),
                         static_cast<std::uint64_t>(key.n) << 8 |
                             static_cast<std::uint64_t>(key.tree));
  const Placement& p = key.placement;
  for (std::size_t i = 0; i < p.clusters.size(); ++i) {
    h = fold(h, static_cast<std::uint64_t>(p.clusters[i]) << 32 |
                    static_cast<std::uint32_t>(p.nodes[i]));
  }
  return static_cast<std::size_t>(h);
}

bool ExecutionBackend::KeyEqual::operator()(const KeyView& a,
                                            const KeyView& b) const {
  return a.m == b.m && a.n == b.n && a.tree == b.tree &&
         a.placement == b.placement;
}

const ExecutionProfile& ExecutionBackend::profile(const Job& job,
                                                  const Placement& placement) {
  const auto cached =
      profile_cache_.find(KeyView(job.m, job.n, job.tree, placement));
  MetricsRegistry* metrics = options_.metrics;
  if (cached != profile_cache_.end()) {
    if (metrics != nullptr) metrics->add("backend.profile_hits");
    return cached->second;
  }
  if (metrics != nullptr) metrics->add("backend.profile_misses");
  const ExecutionProfile* entry = nullptr;
  {
    PhaseScope scope(options_.profiler, ProfilePhase::kProfileCompute);
    ProfileKey key{job.m, job.n, job.tree, placement};
    ExecutionProfile computed = compute(key);
    entry = &profile_cache_.emplace(std::move(key), std::move(computed))
                 .first->second;
  }
  if (options_.tracer != nullptr) {
    options_.tracer->emit(TraceKind::kProfileCompute,
                          options_.tracer->now_s(), job.id, entry->seconds);
  }
  return *entry;
}

ExecutionProfile ExecutionBackend::compute(const ProfileKey& key) const {
  const simgrid::GridTopology granted =
      placement_topology(topology_, key.placement);

  int domains = options_.domains_per_cluster;
  if (domains == 0) {
    // Auto: one domain per process while panels are narrow (Fig. 6's
    // regime), at most 16 for N > 128 where the combine flops stop paying
    // for themselves (Fig. 7b).
    int min_procs = granted.cluster(0).procs();
    for (int c = 1; c < granted.num_clusters(); ++c) {
      min_procs = std::min(min_procs, granted.cluster(c).procs());
    }
    domains = std::min(min_procs, key.n <= 128 ? 64 : 16);
  }

  simgrid::DesEngine engine(&granted, roofline_);
  engine.set_wan_aggregate_Bps(options_.wan_link_Bps);
  const core::DomainLayout layout =
      core::make_domain_layout(granted, domains);
  core::des_tsqr(engine, layout.groups, layout.domain_cluster, key.m, key.n,
                 key.tree, /*form_q=*/false);

  ExecutionProfile profile;
  profile.seconds = engine.makespan();
  profile.gflops =
      model::useful_flops(key.m, key.n) / profile.seconds / 1e9;
  // Per-phase WAN demand: the first instant a transfer claims each
  // cluster's uplink or downlink, as a fraction of the replay — the
  // compute prefix the shared-WAN model lets pass contention-free (1.0
  // for a link no transfer claims). Transfers start strictly before the
  // makespan, so the clamp only guards degenerate zero-length replays.
  const auto first_fraction = [&profile](double first_s) {
    if (first_s == std::numeric_limits<double>::infinity()) return 1.0;
    return profile.seconds > 0.0
               ? std::min(first_s / profile.seconds, 1.0 - 1e-12)
               : 0.0;
  };
  for (int c = 0; c < granted.num_clusters(); ++c) {
    profile.egress_bytes.push_back(engine.wan_egress_bytes(c));
    profile.ingress_bytes.push_back(engine.wan_ingress_bytes(c));
    profile.egress_first_fraction.push_back(
        first_fraction(engine.first_egress_s(c)));
    profile.ingress_first_fraction.push_back(
        first_fraction(engine.first_ingress_s(c)));
  }
  return profile;
}

const ExecutionProfile* ExecutionBackend::find_profile(
    const Job& job, const Placement& placement) const {
  const auto cached =
      profile_cache_.find(KeyView(job.m, job.n, job.tree, placement));
  return cached == profile_cache_.end() ? nullptr : &cached->second;
}

std::vector<ExecutionBackend::ProfileKey> ExecutionBackend::profile_keys()
    const {
  std::vector<ProfileKey> keys;
  keys.reserve(profile_cache_.size());
  for (const auto& [key, profile] : profile_cache_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

void ExecutionBackend::warm(const std::vector<ProfileKey>& keys) {
  for (const ProfileKey& key : keys) {
    // The shape check_job admits: des_tsqr replays it.
    QRGRID_CHECK_MSG(std::isfinite(key.m) && key.m >= key.n && key.n >= 1 &&
                         key.tree >= core::TreeKind::kFlat &&
                         key.tree <= core::TreeKind::kGridHierarchical,
                     "corrupt snapshot: profile key of shape "
                         << key.m << " x " << key.n);
    check_placement(key.placement, topology_);
  }
  for (const ProfileKey& key : keys) {
    if (!profile_cache_.contains(key)) {
      profile_cache_.emplace(key, compute(key));
    }
  }
}

ExecutionResult ExecutionBackend::execute(const Job& job,
                                          const Placement& placement,
                                          double abort_vtime_s) {
  QRGRID_CHECK(executes());
  const auto m_total = static_cast<std::int64_t>(std::llround(job.m));
  const auto n = static_cast<Index>(job.n);
  QRGRID_CHECK_MSG(static_cast<double>(m_total) * job.n <=
                       kMaxExecuteElements,
                   "job " << job.id << " (" << job.m << " x " << job.n
                          << ") is too large for the msg-runtime backend "
                             "(at most "
                          << kMaxExecuteElements
                          << " matrix entries); run it on the des-replay "
                             "backend");

  const simgrid::GridTopology granted =
      placement_topology(topology_, placement);
  const int procs = granted.total_procs();
  QRGRID_CHECK_MSG(m_total / procs >= n,
                   "job " << job.id << ": " << m_total << " rows over "
                          << procs
                          << " granted processes leaves local blocks "
                             "shorter than n = "
                          << n);
  const std::vector<int> rank_cluster = granted.rank_clusters();
  const auto blocks = core::partition_rows(m_total, procs);

  auto cost = std::make_shared<simgrid::TopologyCostModel>(granted,
                                                           roofline_);
  msg::Runtime runtime(procs, std::move(cost));
  runtime.set_vtime_limit(abort_vtime_s);

  // Every job factors a genuinely distinct matrix: the payload seed is a
  // per-job-id diffusion of kMatrixSeed (same idiom as the outage
  // generator's per-cluster streams).
  const std::uint64_t seed =
      kMatrixSeed +
      0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(job.id + 1);

  std::vector<Matrix> q_blocks(static_cast<std::size_t>(procs));
  std::vector<double> factor_vtime(static_cast<std::size_t>(procs), 0.0);
  Matrix r;

  ExecutionResult result;
  result.executed = true;
  try {
    runtime.run([&](msg::Comm& comm) {
      const auto me = static_cast<std::size_t>(comm.rank());
      Matrix local(static_cast<Index>(blocks[me].count), n);
      fill_gaussian_rows(local.view(), static_cast<Index>(blocks[me].offset),
                         seed);
      core::TsqrOptions opts;
      opts.tree = job.tree;
      opts.rank_cluster = rank_cluster;
      core::TsqrFactors f = core::tsqr_factor(comm, local.view(), opts);
      factor_vtime[me] = comm.vtime();
      q_blocks[me] = core::tsqr_form_explicit_q(comm, f);
      if (comm.rank() == 0) r = std::move(f.r);  // the tree root
    });
  } catch (const msg::VtimeLimitError&) {
    // The injected kill landed: a genuine partial execution, aborted
    // through the same propagation machinery as any rank death. How far
    // the clocks really got is the run's measured truncation point.
    result.aborted = true;
  }
  auto note_execution = [&](const ExecutionResult& r) {
    if (options_.metrics != nullptr) {
      options_.metrics->add("backend.executions");
      if (r.aborted) options_.metrics->add("backend.aborted_executions");
    }
    if (options_.tracer != nullptr) {
      options_.tracer->emit(TraceKind::kExecute, options_.tracer->now_s(),
                            job.id, r.measured_s, r.aborted ? 1.0 : 0.0);
    }
  };
  if (result.aborted) {
    // run() rethrew before returning stats; the partial clocks survive.
    result.measured_s = runtime.last_run_stats().max_vtime;
    note_execution(result);
    return result;
  }

  // Completed: the measured makespan is the factorization's critical path
  // (clocks snapshotted before Q formation, matching the form_q=false
  // replay), and the numerics gate runs on the fully materialized Q.
  result.measured_s =
      *std::max_element(factor_vtime.begin(), factor_vtime.end());
  Matrix a(static_cast<Index>(m_total), n);
  fill_gaussian_rows(a.view(), 0, seed);
  Matrix q(static_cast<Index>(m_total), n);
  for (int rank = 0; rank < procs; ++rank) {
    const auto& blk = blocks[static_cast<std::size_t>(rank)];
    copy(q_blocks[static_cast<std::size_t>(rank)].view(),
         q.block(static_cast<Index>(blk.offset), 0,
                 static_cast<Index>(blk.count), n));
  }
  result.residual = factorization_residual(a.view(), q.view(), r.view());
  result.orthogonality = orthogonality_error(q.view());
  note_execution(result);
  return result;
}

}  // namespace qrgrid::sched
