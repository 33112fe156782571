// The QCG-OMPI workflow of the paper's §III, end to end:
//
//   1. the application declares a JobProfile (groups of equal computing
//      power, good intra-group connectivity, weaker between groups);
//   2. the meta-scheduler allocates physical resources that match;
//   3. at "MPI_Init" the application reads its group attribute and builds
//      one communicator per geographical site (MPI_Comm_split);
//   4. QCG-TSQR runs with the grid-hierarchical reduction tree and the
//      intensive communication stays confined within the sites.
//
// The example prints the allocation, the per-link-class message counts,
// and contrasts them with a topology-blind run.
#include <algorithm>
#include <iostream>

#include "common/table.hpp"
#include "core/tsqr.hpp"
#include "linalg/generators.hpp"
#include "linalg/norms.hpp"
#include "model/roofline.hpp"
#include "simgrid/cost.hpp"
#include "simgrid/jobprofile.hpp"

using namespace qrgrid;

int main() {
  // Four-site Grid'5000 slice: 4 x 4 nodes x 2 processors = 32 processes.
  simgrid::GridTopology topo = simgrid::GridTopology::grid5000(
      /*sites=*/4, /*nodes_per_cluster=*/4, /*procs_per_node=*/2);
  simgrid::MetaScheduler scheduler(topo);

  // Step 1: the JobProfile. Equal computing power across groups — the
  // constraint that made the paper book only 2 of 4 cores on some nodes.
  simgrid::JobProfile profile;
  profile.name = "qcg-tsqr-4x8";
  profile.equal_group_power = true;
  profile.power_tolerance = 0.35;
  for (int g = 0; g < 4; ++g) {
    simgrid::GroupRequirement req;
    req.processes = 8;
    req.max_intra_latency_s = 1e-3;          // rules out wide-area links
    req.min_intra_bandwidth_Bps = 100e6 / 8;  // at least fast Ethernet
    profile.groups.push_back(req);
  }

  // Step 2: allocation.
  auto alloc = scheduler.allocate(profile);
  if (!alloc.has_value()) {
    std::cerr << "scheduler could not satisfy the JobProfile\n";
    return 1;
  }
  simgrid::ProcessGroupAttributes attrs = attributes_from(*alloc);
  std::cout << "JobProfile '" << profile.name << "' allocated "
            << alloc->size() << " processes:\n";
  TextTable placement;
  placement.set_header({"group", "processes", "site"});
  for (int g = 0; g < 4; ++g) {
    const auto count = std::count(alloc->rank_to_group.begin(),
                                  alloc->rank_to_group.end(), g);
    const int site = alloc->group_cluster[static_cast<std::size_t>(g)];
    placement.add_row({std::to_string(g), std::to_string(count),
                       topo.cluster(site).name});
  }
  placement.print(std::cout);

  // Steps 3-4: run TSQR twice — topology-aware vs topology-blind — and
  // compare where the messages went.
  auto cost = std::make_shared<simgrid::TopologyCostModel>(
      topo, model::paper_calibration());
  const int p = alloc->size();
  const Index m_loc = 1024, n = 64;

  // Step 3: topology discovery + per-site communicators (demonstrated
  // once, outside the measured runs, so the bookkeeping traffic does not
  // pollute the tree comparison).
  {
    msg::Runtime rt(p, cost);
    rt.run([&](msg::Comm& world) {
      const int group =
          attrs.group_of_rank[static_cast<std::size_t>(world.rank())];
      msg::Comm site = world.split(group, world.rank());
      QRGRID_CHECK(site.size() == 8);  // one group per geographical site
    });
    std::cout << "\nPer-site communicators built via comm split on the QCG "
                 "group attribute (8 ranks each).\n";
  }

  // Step 4: the factorization itself, tuned tree vs blind flat tree.
  TextTable outcome;
  outcome.set_header({"tree", "intra-node msgs", "intra-site msgs",
                      "inter-site msgs", "simulated time (s)"});
  for (core::TreeKind kind :
       {core::TreeKind::kGridHierarchical, core::TreeKind::kFlat}) {
    msg::Runtime rt(p, cost);
    msg::RunStats stats = rt.run([&](msg::Comm& world) {
      Matrix local(m_loc, n);
      fill_gaussian_rows(local.view(), world.rank() * m_loc, 777);
      core::TsqrOptions options;
      options.tree = kind;
      options.rank_cluster = attrs.group_of_rank;
      core::TsqrFactors f = tsqr_factor(world, local.view(), options);
      if (world.rank() == 0) {
        QRGRID_CHECK(is_upper_triangular(f.r.view()));
      }
    });
    outcome.add_row(
        {kind == core::TreeKind::kGridHierarchical ? "grid-hierarchical"
                                                   : "flat (blind)",
         std::to_string(stats.messages_by_class[1]),
         std::to_string(stats.messages_by_class[2]),
         std::to_string(stats.messages_by_class[3]),
         format_number(stats.max_vtime, 4)});
  }
  std::cout << '\n';
  outcome.print(std::cout);
  std::cout << "\nThe tuned tree crosses the wide-area links exactly "
               "sites-1 = 3 times; the blind\nflat tree drags every "
               "remote R factor to the root across the grid.\n";
  return 0;
}
