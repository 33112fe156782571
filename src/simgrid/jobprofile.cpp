#include "simgrid/jobprofile.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace qrgrid::simgrid {

namespace {

/// Can the given group live inside one cluster under its latency and
/// bandwidth bounds? (Intra-cluster links are the binding constraint; a
/// group spanning clusters would additionally see wide-area links.)
bool cluster_satisfies(const GridTopology& topo,
                       const GroupRequirement& req) {
  const LinkParams& l = topo.intra_cluster_link();
  return l.latency_s <= req.max_intra_latency_s &&
         l.bandwidth_Bps >= req.min_intra_bandwidth_Bps;
}

}  // namespace

bool MetaScheduler::choose_clusters(const JobProfile& profile,
                                    const std::vector<int>& free_procs,
                                    const std::vector<int>& order,
                                    std::vector<int>& group_cluster,
                                    std::vector<int>& left) const {
  const int nclusters = topology_.num_clusters();
  QRGRID_CHECK(free_procs.size() == static_cast<std::size_t>(nclusters));
  for (const int c : order) QRGRID_CHECK(c >= 0 && c < nclusters);
  left.assign(free_procs.begin(), free_procs.end());

  // With equal_group_power we emulate the paper's reservation trick: every
  // group gets the same process count, but on clusters whose processors
  // are faster than the slowest requested cluster we cap the processes per
  // node ("book 2 of 4 cores") so aggregate powers stay within tolerance.
  // Here processor counts per group are fixed by the profile, so we only
  // verify the resulting imbalance and reject if out of tolerance.
  group_cluster.clear();
  double lo_power = 0.0;
  double hi_power = 0.0;
  const int norder = static_cast<int>(order.size());
  int next = 0;  // position in `order` the next first-fit starts at
  for (const GroupRequirement& req : profile.groups) {
    QRGRID_CHECK(req.processes > 0);
    // First-fit: find a cluster with enough free processes meeting the
    // connectivity bounds. Groups are placed on distinct clusters first
    // (round-robin start) to reflect the clusters-of-clusters intent.
    int chosen = -1;
    for (int step = 0; step < norder; ++step) {
      const int pos = (next + step) % norder;
      const int c = order[static_cast<std::size_t>(pos)];
      if (left[static_cast<std::size_t>(c)] >= req.processes &&
          cluster_satisfies(topology_, req)) {
        chosen = c;
        next = (pos + 1) % norder;
        break;
      }
    }
    if (chosen < 0) return false;

    left[static_cast<std::size_t>(chosen)] -= req.processes;
    const double power =
        req.processes * topology_.cluster(chosen).proc_peak_gflops;
    lo_power = group_cluster.empty() ? power : std::min(lo_power, power);
    hi_power = group_cluster.empty() ? power : std::max(hi_power, power);
    group_cluster.push_back(chosen);
  }

  if (profile.equal_group_power && group_cluster.size() > 1) {
    if (lo_power <= 0.0 ||
        (hi_power - lo_power) / hi_power > profile.power_tolerance) {
      return false;
    }
  }
  return true;
}

std::optional<Allocation> MetaScheduler::allocate(
    const JobProfile& profile, const std::vector<int>& free_procs,
    const std::vector<int>& order) const {
  Allocation alloc;
  std::vector<int> left;
  if (!choose_clusters(profile, free_procs, order, alloc.group_cluster,
                       left)) {
    return std::nullopt;
  }
  std::vector<int> used(free_procs.size(), 0);
  for (std::size_t g = 0; g < profile.groups.size(); ++g) {
    const int c = alloc.group_cluster[g];
    const auto cc = static_cast<std::size_t>(c);
    const int base = topology_.cluster_rank_base(c) + used[cc];
    for (int i = 0; i < profile.groups[g].processes; ++i) {
      alloc.rank_to_group.push_back(static_cast<int>(g));
      alloc.placement.push_back(base + i);
    }
    used[cc] += profile.groups[g].processes;
  }
  return alloc;
}

std::optional<Allocation> MetaScheduler::allocate(
    const JobProfile& profile) const {
  std::vector<int> free_procs;
  std::vector<int> order;
  for (int c = 0; c < topology_.num_clusters(); ++c) {
    free_procs.push_back(topology_.cluster(c).procs());
    order.push_back(c);
  }
  return allocate(profile, free_procs, order);
}

ProcessGroupAttributes attributes_from(const Allocation& alloc) {
  return ProcessGroupAttributes{alloc.rank_to_group};
}

}  // namespace qrgrid::simgrid
