// Description of a cluster-of-clusters grid: the Grid'5000 substitute.
//
// A topology is a list of clusters (geographical sites), each with a number
// of nodes and processes per node. Ranks are laid out cluster-major,
// node-major (rank 0..procs_per_cluster-1 on cluster 0, etc.) — the natural
// contiguous placement the paper assumes for ScaLAPACK (Fig. 1 notes that
// random rank placement would only be worse). Three link classes carry the
// measured Grid'5000 parameters of Fig. 3(a): shared-memory intra-node,
// GigE intra-cluster, and per-pair wide-area inter-cluster links.
#pragma once

#include <string>
#include <vector>

#include "msg/cost_model.hpp"

namespace qrgrid::simgrid {

/// A point-to-point link: latency in seconds, bandwidth in bytes/second.
struct LinkParams {
  double latency_s = 0.0;
  double bandwidth_Bps = 1.0;

  double transfer_seconds(std::size_t bytes) const {
    return latency_s + static_cast<double>(bytes) / bandwidth_Bps;
  }

  bool operator==(const LinkParams&) const = default;
  /// Field list for visitors (the job service's snapshot guard).
  template <class V>
  void visit(V& v) { v(latency_s, bandwidth_Bps); }
};

/// One geographical site.
struct ClusterSpec {
  std::string name;
  int nodes = 0;
  int procs_per_node = 0;
  double proc_peak_gflops = 4.0;  ///< theoretical peak per processor

  int procs() const { return nodes * procs_per_node; }

  bool operator==(const ClusterSpec&) const = default;
  /// Field list for visitors (the job service's snapshot guard).
  template <class V>
  void visit(V& v) { v(name, nodes, procs_per_node, proc_peak_gflops); }
};

/// Where a global rank lives.
struct ProcLocation {
  int cluster = 0;
  int node = 0;  ///< node index within the cluster
  int proc = 0;  ///< processor index within the node
};

class GridTopology {
 public:
  GridTopology(std::vector<ClusterSpec> clusters, LinkParams intra_node,
               LinkParams intra_cluster,
               std::vector<std::vector<LinkParams>> inter_cluster);

  int num_clusters() const { return static_cast<int>(clusters_.size()); }
  const ClusterSpec& cluster(int c) const {
    return clusters_[static_cast<std::size_t>(c)];
  }
  int total_procs() const { return total_procs_; }

  /// Decomposes a global rank (cluster-major, node-major layout).
  ProcLocation location_of(int rank) const;

  /// Cluster id of every global rank, in rank order — the
  /// TsqrOptions::rank_cluster / DomainLayout::domain_cluster vector for
  /// one-rank-per-domain runs over this topology.
  std::vector<int> rank_clusters() const;

  /// First global rank of cluster c.
  int cluster_rank_base(int c) const {
    return base_[static_cast<std::size_t>(c)];
  }

  /// Link parameters between two ranks (self links are free). Each call
  /// decomposes both ranks; the replay engines ask per event, so they read
  /// a RouteTable (simgrid/route.hpp) that tests pin to these answers.
  LinkParams link(int rank_a, int rank_b) const;

  msg::LinkClass link_class(int rank_a, int rank_b) const;

  const LinkParams& intra_node_link() const { return intra_node_; }
  const LinkParams& intra_cluster_link() const { return intra_cluster_; }
  const LinkParams& inter_cluster_link(int ca, int cb) const;

  /// Theoretical grid peak in Gflop/s. The paper evaluates efficiency
  /// against the *slowest* component, so this is procs * min(proc peak).
  double theoretical_peak_gflops() const;

  /// The Grid'5000 subset used in the paper: `sites` clusters out of
  /// {Orsay, Toulouse, Bordeaux, Sophia}, each with `nodes_per_cluster`
  /// dual-processor nodes and the measured Fig. 3(a) link parameters.
  /// With `equal_power` every site gets the slowest site's processor peak
  /// — the configuration the paper's JobProfile requested ("groups of
  /// equivalent computing power", §III), which it achieved by booking
  /// only part of the faster machines.
  static GridTopology grid5000(int sites = 4, int nodes_per_cluster = 32,
                               int procs_per_node = 2,
                               bool equal_power = false);

 private:
  std::vector<ClusterSpec> clusters_;
  LinkParams intra_node_;
  LinkParams intra_cluster_;
  std::vector<std::vector<LinkParams>> inter_cluster_;
  std::vector<int> base_;  ///< first rank of each cluster
  int total_procs_ = 0;
};

}  // namespace qrgrid::simgrid
