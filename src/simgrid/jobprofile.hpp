// QCG-OMPI substitute: JobProfile resource requests, the meta-scheduler
// that allocates matching process groups on a grid, and the runtime
// attribute the application reads to discover its topology (paper §II-D
// and §III).
//
// The contract mirrors the paper's description: the application declares
// groups of equivalent computing power with good intra-group connectivity
// and accepts weaker inter-group links; the scheduler allocates physical
// resources satisfying the request (capping processes per node when needed
// to equalize group power — §III notes that in some experiments only half
// the cores of a machine were allocated for this reason); the application
// then retrieves group identifiers and builds one communicator per group.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "simgrid/topology.hpp"

namespace qrgrid::simgrid {

/// Requirements for one process group of the application.
struct GroupRequirement {
  int processes = 0;              ///< how many ranks this group needs
  double max_intra_latency_s = 1.0;   ///< upper bound on in-group latency
  double min_intra_bandwidth_Bps = 0; ///< lower bound on in-group bandwidth
};

/// The application's declared communication structure.
struct JobProfile {
  std::string name;
  std::vector<GroupRequirement> groups;
  /// Require all groups to have (approximately) equal aggregate compute
  /// power; the scheduler may then allocate fewer processes per node on
  /// faster clusters.
  bool equal_group_power = false;
  /// Allowed relative power imbalance between groups when
  /// equal_group_power is set.
  double power_tolerance = 0.35;
};

/// The scheduler's answer: which global ranks belong to which group.
struct Allocation {
  /// group id (index into JobProfile::groups) for every allocated rank;
  /// allocation.rank_to_group.size() == total allocated processes.
  std::vector<int> rank_to_group;
  /// global topology ranks backing each allocated rank (the "machine
  /// file"): allocated rank i runs on topology rank placement[i].
  std::vector<int> placement;
  /// The cluster each group is confined to, indexed by group id.
  std::vector<int> group_cluster;

  int group_of(int rank) const {
    return rank_to_group[static_cast<std::size_t>(rank)];
  }
  int size() const { return static_cast<int>(rank_to_group.size()); }
};

/// Resource-aware meta-scheduler (the QosCosGrid analog). Groups are
/// placed cluster by cluster: a group whose latency bound excludes
/// wide-area links is confined to a single cluster.
class MetaScheduler {
 public:
  explicit MetaScheduler(GridTopology topology)
      : topology_(std::move(topology)) {}

  /// The placement decision alone: the cluster each group is confined
  /// to, chosen from what is free now — `free_procs[c]` processes of
  /// cluster c (one entry per cluster). Round-robin first-fit offers the
  /// clusters in `order` (cluster ids; a cluster not listed is never
  /// used) and resumes after the last one chosen. Returns false if the
  /// free processes cannot satisfy the profile (not enough of them, or
  /// power equalization impossible within tolerance). Writes into the
  /// caller's buffers, overwriting whatever they held: `group_cluster`
  /// gets each group's cluster (indexed by group id) and `left` the free
  /// processes the chosen groups leave per cluster, so a caller probing
  /// many placements allocates nothing. Builds no machine file: a caller
  /// that only needs the clusters (the job service's placement probes)
  /// stops here.
  bool choose_clusters(const JobProfile& profile,
                       const std::vector<int>& free_procs,
                       const std::vector<int>& order,
                       std::vector<int>& group_cluster,
                       std::vector<int>& left) const;
  /// choose_clusters() expanded into the per-rank machine file: each
  /// cluster's free processes are taken to be its lowest-numbered ranks,
  /// handed out to its groups in group order.
  std::optional<Allocation> allocate(const JobProfile& profile,
                                     const std::vector<int>& free_procs,
                                     const std::vector<int>& order) const;
  /// The same on the idle grid, offering clusters in id order.
  std::optional<Allocation> allocate(const JobProfile& profile) const;

  const GridTopology& topology() const { return topology_; }

 private:
  GridTopology topology_;
};

/// What QCG-OMPI exposes to the application at MPI_Init time: the group
/// identifier of each rank (retrieved in the paper through an MPI
/// attribute, then fed to MPI_Comm_split).
struct ProcessGroupAttributes {
  std::vector<int> group_of_rank;
};

/// Builds the runtime-visible attributes from a scheduler allocation.
ProcessGroupAttributes attributes_from(const Allocation& alloc);

}  // namespace qrgrid::simgrid
