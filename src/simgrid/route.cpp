#include "simgrid/route.hpp"

#include <source_location>
#include <string>

#include "common/check.hpp"

namespace qrgrid::simgrid {

RouteTable::RouteTable(const GridTopology& topology)
    : num_clusters_(topology.num_clusters()),
      intra_node_(topology.intra_node_link()),
      intra_cluster_(topology.intra_cluster_link()) {
  sites_.reserve(static_cast<std::size_t>(topology.total_procs()));
  const double base_peak = topology.cluster(0).proc_peak_gflops;
  for (int c = 0; c < num_clusters_; ++c) {
    const ClusterSpec& spec = topology.cluster(c);
    const double scale = spec.proc_peak_gflops / base_peak;
    for (int node = 0; node < spec.nodes; ++node) {
      for (int proc = 0; proc < spec.procs_per_node; ++proc) {
        sites_.push_back(RankSite{c, node, scale});
      }
    }
    for (int d = 0; d < num_clusters_; ++d) {
      cluster_links_.push_back(topology.inter_cluster_link(c, d));
    }
  }
}

void RouteTable::reject(int rank) const {
  detail::check_failed("rank >= 0 && rank < nprocs()",
                       "rank=" + std::to_string(rank) + ", nprocs=" +
                           std::to_string(nprocs()),
                       std::source_location::current());
}

}  // namespace qrgrid::simgrid
