#include "simgrid/topology.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace qrgrid::simgrid {

GridTopology::GridTopology(std::vector<ClusterSpec> clusters,
                           LinkParams intra_node, LinkParams intra_cluster,
                           std::vector<std::vector<LinkParams>> inter_cluster)
    : clusters_(std::move(clusters)),
      intra_node_(intra_node),
      intra_cluster_(intra_cluster),
      inter_cluster_(std::move(inter_cluster)) {
  QRGRID_CHECK(!clusters_.empty());
  QRGRID_CHECK(inter_cluster_.size() == clusters_.size());
  for (const auto& row : inter_cluster_) {
    QRGRID_CHECK(row.size() == clusters_.size());
  }
  base_.resize(clusters_.size());
  int acc = 0;
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    base_[c] = acc;
    acc += clusters_[c].procs();
  }
  total_procs_ = acc;
}

ProcLocation GridTopology::location_of(int rank) const {
  QRGRID_CHECK_MSG(rank >= 0 && rank < total_procs_, "rank=" << rank);
  ProcLocation loc;
  for (int c = num_clusters() - 1; c >= 0; --c) {
    if (rank >= base_[static_cast<std::size_t>(c)]) {
      loc.cluster = c;
      const int within = rank - base_[static_cast<std::size_t>(c)];
      const int ppn = clusters_[static_cast<std::size_t>(c)].procs_per_node;
      loc.node = within / ppn;
      loc.proc = within % ppn;
      return loc;
    }
  }
  return loc;  // unreachable
}

std::vector<int> GridTopology::rank_clusters() const {
  std::vector<int> clusters;
  clusters.reserve(static_cast<std::size_t>(total_procs_));
  for (int c = 0; c < num_clusters(); ++c) {
    for (int p = 0; p < clusters_[static_cast<std::size_t>(c)].procs(); ++p) {
      clusters.push_back(c);
    }
  }
  return clusters;
}

LinkParams GridTopology::link(int rank_a, int rank_b) const {
  if (rank_a == rank_b) return LinkParams{0.0, 1e300};
  const ProcLocation a = location_of(rank_a);
  const ProcLocation b = location_of(rank_b);
  if (a.cluster != b.cluster) {
    return inter_cluster_link(a.cluster, b.cluster);
  }
  if (a.node != b.node) return intra_cluster_;
  return intra_node_;
}

msg::LinkClass GridTopology::link_class(int rank_a, int rank_b) const {
  if (rank_a == rank_b) return msg::LinkClass::kSelf;
  const ProcLocation a = location_of(rank_a);
  const ProcLocation b = location_of(rank_b);
  if (a.cluster != b.cluster) return msg::LinkClass::kInterCluster;
  if (a.node != b.node) return msg::LinkClass::kIntraCluster;
  return msg::LinkClass::kIntraNode;
}

const LinkParams& GridTopology::inter_cluster_link(int ca, int cb) const {
  return inter_cluster_[static_cast<std::size_t>(ca)]
                       [static_cast<std::size_t>(cb)];
}

double GridTopology::theoretical_peak_gflops() const {
  double slowest = clusters_.front().proc_peak_gflops;
  for (const auto& c : clusters_) {
    slowest = std::min(slowest, c.proc_peak_gflops);
  }
  return slowest * total_procs_;
}

GridTopology GridTopology::grid5000(int sites, int nodes_per_cluster,
                                    int procs_per_node, bool equal_power) {
  QRGRID_CHECK(sites >= 1 && sites <= 4);
  QRGRID_CHECK(nodes_per_cluster >= 1 && procs_per_node >= 1);
  // Fig. 3(a): measured latency (ms) and throughput (Mb/s) between the four
  // sites; per-processor theoretical peaks from §V-A (Opteron 246 -> 2218,
  // 4.0 to 5.2 Gflop/s per processor).
  struct SiteDef {
    const char* name;
    double proc_peak;
  };
  static constexpr SiteDef kSites[4] = {
      {"Orsay", 4.0},
      {"Toulouse", 4.4},
      {"Bordeaux", 4.8},
      {"Sophia", 5.2},
  };
  // Symmetric latency matrix in ms (diagonal = intra-cluster latency).
  static constexpr double kLatencyMs[4][4] = {
      {0.07, 7.97, 6.98, 6.12},
      {7.97, 0.03, 9.03, 8.18},
      {6.98, 9.03, 0.05, 7.18},
      {6.12, 8.18, 7.18, 0.06},
  };
  // Symmetric throughput matrix in Mb/s (diagonal = intra-cluster GigE).
  static constexpr double kThroughputMbps[4][4] = {
      {890.0, 78.0, 90.0, 102.0},
      {78.0, 890.0, 77.0, 90.0},
      {90.0, 77.0, 890.0, 83.0},
      {102.0, 90.0, 83.0, 890.0},
  };
  auto mbps_to_Bps = [](double mbps) { return mbps * 1e6 / 8.0; };

  std::vector<ClusterSpec> clusters;
  for (int s = 0; s < sites; ++s) {
    const double peak = equal_power ? kSites[0].proc_peak
                                    : kSites[s].proc_peak;
    clusters.push_back(ClusterSpec{kSites[s].name, nodes_per_cluster,
                                   procs_per_node, peak});
  }
  // §V-A: shared-memory transfers between two processes of a node show
  // 17 us latency and 5 Gb/s throughput under the OpenMPI sm driver.
  const LinkParams intra_node{17e-6, 5e9 / 8.0};
  // Intra-cluster GigE: use the worst measured intra-site latency (0.07 ms)
  // as the common value; throughput 890 Mb/s.
  const LinkParams intra_cluster{0.07e-3, mbps_to_Bps(890.0)};

  std::vector<std::vector<LinkParams>> inter(
      static_cast<std::size_t>(sites),
      std::vector<LinkParams>(static_cast<std::size_t>(sites)));
  for (int a = 0; a < sites; ++a) {
    for (int b = 0; b < sites; ++b) {
      if (a == b) {
        inter[a][b] = intra_cluster;
      } else {
        inter[a][b] = LinkParams{kLatencyMs[a][b] * 1e-3,
                                 mbps_to_Bps(kThroughputMbps[a][b])};
      }
    }
  }
  return GridTopology(std::move(clusters), intra_node, intra_cluster,
                      std::move(inter));
}

}  // namespace qrgrid::simgrid
