// Per-rank route table: every rank's cluster, node and compute-speed
// scale, plus the cluster-pair link matrix, resolved once from a
// GridTopology.
//
// GridTopology::location_of scans the cluster list and divides on every
// call, and link/link_class call it twice each. The replay engines ask
// those questions for every message and every compute step (76 million
// messages in the Fig. 8 sweep), so both engines read this table instead:
// a route is two array loads and a compare. The table is immutable after
// construction, so the msg runtime's rank threads share one without
// locks. Every answer equals the topology's bit for bit, and out-of-range
// ranks throw qrgrid::Error, as location_of does.
#pragma once

#include <cstddef>
#include <vector>

#include "msg/cost_model.hpp"
#include "simgrid/topology.hpp"

namespace qrgrid::simgrid {

/// How a message from one rank to another travels: the link it crosses,
/// that link's class, and the clusters at both ends.
struct Route {
  LinkParams link;
  msg::LinkClass cls = msg::LinkClass::kSelf;
  int src_cluster = 0;
  int dst_cluster = 0;
};

/// Where a rank lives and how fast it computes.
struct RankSite {
  int cluster = 0;
  int node = 0;        ///< node index within the cluster
  double scale = 1.0;  ///< proc_peak(cluster) / proc_peak(cluster 0)
};

/// Seconds for `flops` at `rate_gflops` on a rank whose speed scale is
/// `scale`: the one compute-time formula of the DES engine and the msg
/// runtime's cost model. The operand order is part of the contract —
/// replays are pinned bit for bit.
inline double flop_seconds(double flops, double rate_gflops, double scale) {
  return flops / (rate_gflops * scale * 1e9);
}

class RouteTable {
 public:
  explicit RouteTable(const GridTopology& topology);

  int nprocs() const { return static_cast<int>(sites_.size()); }

  /// The rank's cluster, node and speed scale; throws qrgrid::Error for
  /// a rank outside [0, nprocs()).
  const RankSite& site(int rank) const {
    if (rank < 0 || rank >= nprocs()) reject(rank);
    return sites_[static_cast<std::size_t>(rank)];
  }

  /// The route from `src` to `dst`: GridTopology::link and link_class of
  /// the pair plus both ranks' clusters. A rank's route to itself is the
  /// free self link.
  Route route(int src, int dst) const {
    const RankSite& s = site(src);
    const RankSite& d = site(dst);
    Route r{intra_node_, msg::LinkClass::kIntraNode, s.cluster, d.cluster};
    if (src == dst) {
      r.link = LinkParams{0.0, 1e300};
      r.cls = msg::LinkClass::kSelf;
    } else if (s.cluster != d.cluster) {
      r.link = cluster_links_[static_cast<std::size_t>(
          s.cluster * num_clusters_ + d.cluster)];
      r.cls = msg::LinkClass::kInterCluster;
    } else if (s.node != d.node) {
      r.link = intra_cluster_;
      r.cls = msg::LinkClass::kIntraCluster;
    }
    return r;
  }

 private:
  /// Throws qrgrid::Error naming the rank. Out of line, so the lookup
  /// above stays small enough to inline into every replayed event.
  [[noreturn]] void reject(int rank) const;

  std::vector<RankSite> sites_;
  std::vector<LinkParams> cluster_links_;  ///< K x K, row = source cluster
  int num_clusters_ = 0;
  LinkParams intra_node_;
  LinkParams intra_cluster_;
};

}  // namespace qrgrid::simgrid
