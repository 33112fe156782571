#include "simgrid/jobprofile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace qrgrid::simgrid {
namespace {

JobProfile four_site_profile(int procs_per_group) {
  JobProfile profile;
  profile.name = "tsqr-4-sites";
  for (int g = 0; g < 4; ++g) {
    GroupRequirement req;
    req.processes = procs_per_group;
    req.max_intra_latency_s = 1e-3;        // excludes wide-area links
    req.min_intra_bandwidth_Bps = 100e6 / 8;
    profile.groups.push_back(req);
  }
  return profile;
}

TEST(MetaScheduler, PlacesFourGroupsOnFourClusters) {
  MetaScheduler sched(GridTopology::grid5000());
  auto alloc = sched.allocate(four_site_profile(64));
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(alloc->size(), 256);
  // Each group must be confined to one cluster, the one it reports.
  const GridTopology& topo = sched.topology();
  ASSERT_EQ(alloc->group_cluster.size(), 4u);
  for (int g = 0; g < 4; ++g) {
    const int cluster = alloc->group_cluster[static_cast<std::size_t>(g)];
    for (int r = 0; r < alloc->size(); ++r) {
      if (alloc->group_of(r) != g) continue;
      EXPECT_EQ(topo.location_of(
                    alloc->placement[static_cast<std::size_t>(r)]).cluster,
                cluster);
    }
  }
}

TEST(MetaScheduler, DistinctGroupsLandOnDistinctClusters) {
  MetaScheduler sched(GridTopology::grid5000());
  auto alloc = sched.allocate(four_site_profile(64));
  ASSERT_TRUE(alloc.has_value());
  const GridTopology& topo = sched.topology();
  std::vector<int> cluster_of_group(4, -1);
  for (int r = 0; r < alloc->size(); ++r) {
    const int g = alloc->group_of(r);
    cluster_of_group[static_cast<std::size_t>(g)] = topo.location_of(
        alloc->placement[static_cast<std::size_t>(r)]).cluster;
  }
  EXPECT_EQ(alloc->group_cluster, cluster_of_group);
  std::sort(cluster_of_group.begin(), cluster_of_group.end());
  EXPECT_EQ(cluster_of_group, (std::vector<int>{0, 1, 2, 3}));
}

TEST(MetaScheduler, OversizedRequestIsRejected) {
  MetaScheduler sched(GridTopology::grid5000(1));  // 64 procs total
  JobProfile profile;
  GroupRequirement req;
  req.processes = 65;
  profile.groups.push_back(req);
  EXPECT_FALSE(sched.allocate(profile).has_value());
}

TEST(MetaScheduler, TwoGroupsCanShareAClusterWhenNeeded) {
  MetaScheduler sched(GridTopology::grid5000(1));  // one 64-proc site
  JobProfile profile;
  for (int g = 0; g < 2; ++g) {
    GroupRequirement req;
    req.processes = 32;
    profile.groups.push_back(req);
  }
  auto alloc = sched.allocate(profile);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(alloc->size(), 64);
  EXPECT_EQ(alloc->group_cluster, (std::vector<int>{0, 0}));
}

TEST(MetaScheduler, EqualPowerToleranceEnforced) {
  MetaScheduler sched(GridTopology::grid5000());
  JobProfile profile = four_site_profile(64);
  profile.equal_group_power = true;
  // Peaks 4.0 .. 5.2 per proc: imbalance (5.2-4.0)/5.2 ~ 23%.
  profile.power_tolerance = 0.30;
  EXPECT_TRUE(sched.allocate(profile).has_value());
  profile.power_tolerance = 0.10;
  EXPECT_FALSE(sched.allocate(profile).has_value());
}

TEST(MetaScheduler, LatencyBoundTooStrictIsRejected) {
  MetaScheduler sched(GridTopology::grid5000());
  JobProfile profile;
  GroupRequirement req;
  req.processes = 8;
  req.max_intra_latency_s = 1e-9;  // tighter than any real link
  profile.groups.push_back(req);
  EXPECT_FALSE(sched.allocate(profile).has_value());
}

TEST(MetaScheduler, AttributesExposeGroupIds) {
  MetaScheduler sched(GridTopology::grid5000());
  auto alloc = sched.allocate(four_site_profile(16));
  ASSERT_TRUE(alloc.has_value());
  ProcessGroupAttributes attrs = attributes_from(*alloc);
  ASSERT_EQ(attrs.group_of_rank.size(), 64u);
  EXPECT_EQ(attrs.group_of_rank.front(), 0);
  EXPECT_EQ(attrs.group_of_rank.back(), 3);
}

TEST(MetaScheduler, FreeCapacityHonorsOrderAndFreeProcs) {
  MetaScheduler sched(GridTopology::grid5000());  // 4 sites x 64 procs
  JobProfile profile = four_site_profile(16);
  profile.groups.resize(2);
  // First-fit offers clusters in the given order and skips clusters
  // without enough free processes; unlisted clusters are never used.
  auto alloc = sched.allocate(profile, {64, 8, 64, 64}, {1, 3, 0});
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(alloc->group_cluster, (std::vector<int>{3, 0}));
  // Ranks come from the front of the cluster's free processes.
  EXPECT_EQ(alloc->placement.front(), sched.topology().cluster_rank_base(3));
  EXPECT_FALSE(sched.allocate(profile, {64, 8, 64, 64}, {1}).has_value());
  EXPECT_THROW(sched.allocate(profile, {64, 64}, {0, 1}), Error);
  EXPECT_THROW(sched.allocate(profile, {64, 64, 64, 64}, {4}), Error);
}

/// The oracle of allocate(profile, free_procs, order): a residual grid of
/// only the free nodes, listing the clusters of `order` that have any in
/// that order, plus the map from its cluster indices back to `master`'s.
/// nullopt when nothing is free.
struct ResidualGrid {
  GridTopology topology;
  std::vector<int> to_master;
};

std::optional<ResidualGrid> residual_grid(const GridTopology& master,
                                          const std::vector<int>& free_nodes,
                                          const std::vector<int>& order) {
  std::vector<ClusterSpec> clusters;
  std::vector<int> to_master;
  for (const int c : order) {
    const int nodes = free_nodes[static_cast<std::size_t>(c)];
    if (nodes <= 0) continue;
    ClusterSpec spec = master.cluster(c);
    spec.nodes = nodes;
    clusters.push_back(spec);
    to_master.push_back(c);
  }
  if (clusters.empty()) return std::nullopt;
  const std::size_t k = clusters.size();
  std::vector<std::vector<LinkParams>> inter(k, std::vector<LinkParams>(k));
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      inter[i][j] = i == j ? master.intra_cluster_link()
                           : master.inter_cluster_link(to_master[i],
                                                       to_master[j]);
    }
  }
  return ResidualGrid{
      GridTopology(std::move(clusters), master.intra_node_link(),
                   master.intra_cluster_link(), std::move(inter)),
      std::move(to_master)};
}

TEST(MetaScheduler, FreeCapacityMatchesResidualGridOracle) {
  // Randomized differential check: allocating from the free processes
  // of the full grid must choose exactly the clusters a scheduler over
  // the residual grid of those free nodes chooses — heterogeneous
  // grids, zero-free clusters, shuffled orders, equal and unequal
  // groups, power equalization on and off, and unsatisfiable latency
  // bounds. The decision alone (choose_clusters) must agree with the
  // allocation it expands into, written into buffers the previous trial
  // left dirty (other lengths, other grids' clusters).
  const double peaks[] = {4.0, 4.4, 5.2, 6.0};
  Rng rng(2026);
  int placed = 0;
  std::vector<int> decided;
  std::vector<int> left;
  for (int trial = 0; trial < 20000; ++trial) {
    const int k = 1 + static_cast<int>(rng.uniform_index(6));
    std::vector<ClusterSpec> clusters;
    for (int c = 0; c < k; ++c) {
      ClusterSpec spec;
      spec.name = "site" + std::to_string(c);
      spec.nodes = 1 + static_cast<int>(rng.uniform_index(6));
      spec.procs_per_node = 1 + static_cast<int>(rng.uniform_index(4));
      spec.proc_peak_gflops = peaks[rng.uniform_index(4)];
      clusters.push_back(spec);
    }
    std::vector<std::vector<LinkParams>> inter(
        static_cast<std::size_t>(k),
        std::vector<LinkParams>(static_cast<std::size_t>(k)));
    for (auto& row : inter) {
      for (LinkParams& link : row) {
        link = LinkParams{rng.uniform(5e-3, 20e-3), 1e8 / 8};
      }
    }
    const GridTopology master(clusters, LinkParams{1e-6, 1e9},
                              LinkParams{1e-4, 1e8}, inter);

    std::vector<int> free_nodes(static_cast<std::size_t>(k));
    std::vector<int> free_procs(static_cast<std::size_t>(k));
    std::vector<int> order(static_cast<std::size_t>(k));
    for (int c = 0; c < k; ++c) {
      const auto cc = static_cast<std::size_t>(c);
      free_nodes[cc] = static_cast<int>(
          rng.uniform_index(static_cast<std::uint64_t>(clusters[cc].nodes) +
                            1));
      free_procs[cc] = free_nodes[cc] * clusters[cc].procs_per_node;
      order[cc] = c;
    }
    for (int i = k - 1; i > 0; --i) {  // Fisher-Yates
      std::swap(order[static_cast<std::size_t>(i)],
                order[rng.uniform_index(static_cast<std::uint64_t>(i) + 1)]);
    }

    JobProfile profile;
    const int groups = 1 + static_cast<int>(rng.uniform_index(8));
    const bool equal_sizes = rng.uniform_index(2) == 0;
    const bool strict = rng.uniform_index(8) == 0;
    GroupRequirement req;
    req.max_intra_latency_s = strict ? 1e-9 : 1e-3;
    req.min_intra_bandwidth_Bps = 100e6 / 8;
    req.processes = 1 + static_cast<int>(rng.uniform_index(12));
    for (int g = 0; g < groups; ++g) {
      if (!equal_sizes) {
        req.processes = 1 + static_cast<int>(rng.uniform_index(12));
      }
      profile.groups.push_back(req);
    }
    profile.equal_group_power = rng.uniform_index(2) == 0;
    profile.power_tolerance = rng.uniform(0.0, 0.4);

    const MetaScheduler scheduler(master);
    const auto got = scheduler.allocate(profile, free_procs, order);
    // The decision alone picks exactly the clusters allocate expands,
    // and fails exactly when it does.
    const bool chosen =
        scheduler.choose_clusters(profile, free_procs, order, decided, left);
    ASSERT_EQ(chosen, got.has_value()) << "trial " << trial;
    if (chosen) {
      ASSERT_EQ(decided, got->group_cluster) << "trial " << trial;
      // `left` is what the groups leave: each cluster's free processes
      // less those of the groups it holds.
      std::vector<int> want_left = free_procs;
      for (std::size_t g = 0; g < profile.groups.size(); ++g) {
        want_left[static_cast<std::size_t>(decided[g])] -=
            profile.groups[g].processes;
      }
      ASSERT_EQ(left, want_left) << "trial " << trial;
    }
    // An equalized grant keeps its group powers within tolerance,
    // recomputed here from the chosen clusters.
    if (got.has_value() && profile.equal_group_power &&
        profile.groups.size() > 1) {
      double lo = 0.0;
      double hi = 0.0;
      for (std::size_t g = 0; g < profile.groups.size(); ++g) {
        const double power =
            profile.groups[g].processes *
            master.cluster(got->group_cluster[g]).proc_peak_gflops;
        lo = g == 0 ? power : std::min(lo, power);
        hi = g == 0 ? power : std::max(hi, power);
      }
      EXPECT_LE((hi - lo) / hi, profile.power_tolerance) << "trial " << trial;
    }
    const std::optional<ResidualGrid> residual =
        residual_grid(master, free_nodes, order);
    if (!residual.has_value()) {
      EXPECT_FALSE(got.has_value()) << "trial " << trial;
      continue;
    }
    const auto want = MetaScheduler(residual->topology).allocate(profile);
    ASSERT_EQ(got.has_value(), want.has_value()) << "trial " << trial;
    if (!want.has_value()) continue;
    ++placed;
    // Group g is the contiguous rank block after groups 0..g-1; its
    // first rank names its residual cluster.
    std::vector<int> want_clusters;
    std::size_t first = 0;
    for (const GroupRequirement& group : profile.groups) {
      const int c = residual->topology.location_of(want->placement[first])
                        .cluster;
      want_clusters.push_back(
          residual->to_master[static_cast<std::size_t>(c)]);
      first += static_cast<std::size_t>(group.processes);
    }
    ASSERT_EQ(got->group_cluster, want_clusters) << "trial " << trial;
    ASSERT_EQ(decided, want_clusters) << "trial " << trial;
    EXPECT_EQ(got->rank_to_group, want->rank_to_group) << "trial " << trial;
  }
  EXPECT_GT(placed, 1000);
}

}  // namespace
}  // namespace qrgrid::simgrid
