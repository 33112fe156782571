#include "simgrid/des.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/des_algos.hpp"
#include "simgrid/cost.hpp"

namespace qrgrid::simgrid {
namespace {

/// A toy 2-cluster topology with round numbers for exact assertions.
GridTopology toy_topology() {
  std::vector<ClusterSpec> clusters = {
      ClusterSpec{"A", 2, 2, 4.0},
      ClusterSpec{"B", 2, 2, 4.0},
  };
  const LinkParams intra_node{1.0, 100.0};
  const LinkParams intra_cluster{10.0, 10.0};
  std::vector<std::vector<LinkParams>> inter(2, std::vector<LinkParams>(2));
  inter[0][0] = intra_cluster;
  inter[1][1] = intra_cluster;
  inter[0][1] = inter[1][0] = LinkParams{1000.0, 1.0};
  return GridTopology(std::move(clusters), intra_node, intra_cluster,
                      std::move(inter));
}

model::Roofline flat_roofline() {
  model::Roofline r;
  r.dgemm_gflops = 1e-9;  // 1 flop per virtual second at peak
  r.f_min = 1.0;
  r.f_max = 1.0;
  return r;
}

TEST(DesEngine, ComputeAdvancesOneClock) {
  GridTopology topo = toy_topology();
  DesEngine engine(&topo, flat_roofline());
  engine.compute(3, 5.0, 0);
  EXPECT_DOUBLE_EQ(engine.clock(3), 5.0);
  EXPECT_DOUBLE_EQ(engine.clock(0), 0.0);
  EXPECT_DOUBLE_EQ(engine.makespan(), 5.0);
}

TEST(DesEngine, P2pUsesLinkOfThePair) {
  GridTopology topo = toy_topology();
  DesEngine engine(&topo, flat_roofline());
  engine.p2p(0, 1, 100);  // intra-node: 1 + 100/100 = 2
  EXPECT_DOUBLE_EQ(engine.clock(1), 2.0);
  engine.p2p(0, 2, 100);  // intra-cluster: 10 + 10 = 20
  EXPECT_DOUBLE_EQ(engine.clock(2), 20.0);
  engine.p2p(0, 4, 1);  // inter-cluster: 1000 + 1
  EXPECT_DOUBLE_EQ(engine.clock(4), 1001.0);
}

TEST(DesEngine, P2pKeepsLaterArrival) {
  GridTopology topo = toy_topology();
  DesEngine engine(&topo, flat_roofline());
  engine.compute(1, 500.0, 0);
  engine.p2p(0, 1, 100);
  // The wire arrival (latency 1) is long past; the receiver still pays the
  // byte-serialization time 100/100 = 1 on top of its clock.
  EXPECT_DOUBLE_EQ(engine.clock(1), 501.0);
}

TEST(DesEngine, MessageCountersByClass) {
  GridTopology topo = toy_topology();
  DesEngine engine(&topo, flat_roofline());
  engine.p2p(0, 1, 8);
  engine.p2p(0, 2, 8);
  engine.p2p(0, 4, 8);
  engine.p2p(4, 0, 8);
  EXPECT_EQ(engine.messages(), 4);
  EXPECT_EQ(engine.messages_of(msg::LinkClass::kIntraNode), 1);
  EXPECT_EQ(engine.messages_of(msg::LinkClass::kIntraCluster), 1);
  EXPECT_EQ(engine.messages_of(msg::LinkClass::kInterCluster), 2);
  EXPECT_EQ(engine.bytes_of(msg::LinkClass::kInterCluster), 16);
}

TEST(DesEngine, AllreduceDepthMatchesButterfly) {
  GridTopology topo = toy_topology();
  DesEngine engine(&topo, flat_roofline());
  // 4 ranks inside cluster A, all on distinct... ranks 0,1 node 0; 2,3
  // node 1. Butterfly rounds: (0,1),(2,3) intra-node then (0,2),(1,3)
  // intra-cluster.
  std::vector<int> ranks = {0, 1, 2, 3};
  engine.allreduce(ranks, 100, 0.0, 0);
  // Round 1: intra-node cost 1 + 100/100 = 2. Round 2: 10 + 10 = 20 on
  // top of clock 2.
  for (int r : ranks) EXPECT_DOUBLE_EQ(engine.clock(r), 22.0);
}

TEST(DesEngine, AllreduceHandlesNonPowerOfTwo) {
  GridTopology topo = toy_topology();
  DesEngine engine(&topo, flat_roofline());
  std::vector<int> ranks = {0, 1, 2};
  engine.allreduce(ranks, 10, 0.0, 0);
  // All clocks must advance and end up equal-ish (rank 0 folded out waits
  // for the unfold message).
  EXPECT_GT(engine.clock(0), 0.0);
  EXPECT_GT(engine.clock(1), 0.0);
  EXPECT_GT(engine.clock(2), 0.0);
}

TEST(DesEngine, AllreduceCombineFlopsCharged) {
  GridTopology topo = toy_topology();
  DesEngine engine(&topo, flat_roofline());
  std::vector<int> ranks = {0, 1};
  engine.allreduce(ranks, 8, 7.0, 0);
  EXPECT_DOUBLE_EQ(engine.total_flops(), 14.0);  // one round, both ranks
}

TEST(DesEngine, BcastReachesEveryoneThroughBinomialTree) {
  GridTopology topo = toy_topology();
  DesEngine engine(&topo, flat_roofline());
  std::vector<int> ranks = {0, 1, 2, 3, 4, 5};
  engine.bcast(ranks, 8);
  for (int r = 1; r < 6; ++r) EXPECT_GT(engine.clock(r), 0.0);
}

TEST(DesEngine, SynchronizeLevelsClocks) {
  GridTopology topo = toy_topology();
  DesEngine engine(&topo, flat_roofline());
  engine.compute(0, 9.0, 0);
  std::vector<int> ranks = {0, 1, 2};
  engine.synchronize(ranks);
  EXPECT_DOUBLE_EQ(engine.clock(1), 9.0);
  EXPECT_DOUBLE_EQ(engine.clock(2), 9.0);
}

TEST(DesEngine, ComputeUtilizationIsComputeOverMakespan) {
  GridTopology topo = toy_topology();
  DesEngine engine(&topo, flat_roofline());
  engine.compute(0, 10.0, 0);  // busy 10 of makespan 10
  engine.compute(1, 5.0, 0);   // busy 5 of 10
  // Remaining 6 ranks idle: utilization = (10 + 5) / (10 * 8).
  EXPECT_DOUBLE_EQ(engine.compute_utilization(), 15.0 / 80.0);
}

TEST(DesEngine, UtilizationRisesWithM) {
  // Property 3's mechanism: communication terms are independent of M, so
  // the busy fraction grows toward 1 as the matrix gets taller.
  GridTopology topo = GridTopology::grid5000(4, 4, 2);
  model::Roofline roof = model::paper_calibration();
  double prev = 0.0;
  for (double m = 1 << 17; m <= (1 << 23); m *= 8) {
    DesEngine engine(&topo, roof);
    std::vector<int> ranks(static_cast<std::size_t>(topo.total_procs()));
    std::iota(ranks.begin(), ranks.end(), 0);
    // A simple compute+allreduce loop proportional to M.
    for (int step = 0; step < 16; ++step) {
      for (int r : ranks) engine.compute(r, m, 64);
      engine.allreduce(ranks, 4096, 0.0, 64);
    }
    const double util = engine.compute_utilization();
    EXPECT_GT(util, prev);
    EXPECT_LE(util, 1.0);
    prev = util;
  }
}

TEST(DesEngine, TracksFirstWanActivityPerCluster) {
  GridTopology topo = toy_topology();
  const int remote = topo.cluster_rank_base(1);
  constexpr double kNever = std::numeric_limits<double>::infinity();
  DesEngine engine(&topo, flat_roofline());
  const auto expect_quiet = [&](int cluster) {
    EXPECT_EQ(engine.first_egress_s(cluster), kNever) << cluster;
    EXPECT_EQ(engine.first_ingress_s(cluster), kNever) << cluster;
  };
  expect_quiet(0);
  expect_quiet(1);
  engine.compute(0, 5.0, 0);
  engine.p2p(0, 1, 4096);  // intra-node: never a WAN transfer
  expect_quiet(0);
  expect_quiet(1);
  // The first send claims the idle channel at the sender's clock.
  const double sent_at = engine.clock(0);
  ASSERT_GT(sent_at, 0.0);
  engine.p2p(0, remote, 512);  // cluster 0 -> 1
  EXPECT_EQ(engine.first_egress_s(0), sent_at);
  EXPECT_EQ(engine.first_ingress_s(1), engine.first_egress_s(0));
  EXPECT_EQ(engine.first_egress_s(1), kNever);
  EXPECT_EQ(engine.first_ingress_s(0), kNever);
  // Later transfers never move a first instant; a zero-byte one still
  // marks the reverse direction's links.
  engine.p2p(0, remote, 128);
  engine.p2p(remote, 0, 0);  // cluster 1 -> 0
  EXPECT_EQ(engine.first_egress_s(0), sent_at);
  EXPECT_EQ(engine.first_ingress_s(1), sent_at);
  EXPECT_EQ(engine.first_egress_s(1), engine.first_ingress_s(0));
  EXPECT_LT(engine.first_egress_s(1), kNever);
  EXPECT_EQ(engine.wan_egress_bytes(1), 0);
}

TEST(DesEngine, FasterClusterComputesFaster) {
  std::vector<ClusterSpec> clusters = {
      ClusterSpec{"slow", 1, 1, 4.0},
      ClusterSpec{"fast", 1, 1, 8.0},
  };
  const LinkParams l{1.0, 1.0};
  std::vector<std::vector<LinkParams>> inter(2, std::vector<LinkParams>(2, l));
  GridTopology topo(std::move(clusters), l, l, std::move(inter));
  DesEngine engine(&topo, flat_roofline());
  engine.compute(0, 100.0, 0);
  engine.compute(1, 100.0, 0);
  EXPECT_DOUBLE_EQ(engine.clock(0) / engine.clock(1), 2.0);
}

TEST(DesEngine, ButterflyPricesBothDirectionsOnTheForwardLink) {
  // Asymmetric WAN: 0 -> 1 has latency 10 and 1 B/s, 1 -> 0 latency 20
  // and 4 B/s. Each side's wire arrival uses its own direction's latency;
  // both receive serializations are priced on the (0, 1) link.
  std::vector<ClusterSpec> clusters = {ClusterSpec{"A", 1, 1, 4.0},
                                       ClusterSpec{"B", 1, 1, 4.0}};
  const LinkParams local{1.0, 1.0};
  std::vector<std::vector<LinkParams>> inter = {
      {local, LinkParams{10.0, 1.0}}, {LinkParams{20.0, 4.0}, local}};
  GridTopology topo(std::move(clusters), local, local, std::move(inter));
  DesEngine engine(&topo, flat_roofline());
  const std::vector<int> ranks = {0, 1};
  engine.allreduce(ranks, 8, 0.0, 0);
  EXPECT_EQ(engine.clock(0), 20.0 + 8.0);
  EXPECT_EQ(engine.clock(1), 10.0 + 8.0);
}

// ------------------------------------------------------------ route table
//
// The route table against its naive oracle: GridTopology's own per-call
// lookups, and the compute-time formula evaluated per rank.

/// 1-5 clusters, each with its own node count, processes per node and
/// processor peak, and an asymmetric inter-cluster matrix.
GridTopology random_grid(Rng& rng) {
  const int k = 1 + static_cast<int>(rng.uniform_index(5));
  std::vector<ClusterSpec> clusters;
  for (int c = 0; c < k; ++c) {
    clusters.push_back(
        ClusterSpec{std::string(1, static_cast<char>('A' + c)),
                    1 + static_cast<int>(rng.uniform_index(4)),
                    1 + static_cast<int>(rng.uniform_index(3)),
                    rng.uniform(2.0, 8.0)});
  }
  const LinkParams intra_node{rng.uniform(1e-6, 1e-5),
                              rng.uniform(1e8, 1e9)};
  const LinkParams intra_cluster{rng.uniform(1e-5, 1e-4),
                                 rng.uniform(1e7, 1e8)};
  std::vector<std::vector<LinkParams>> inter(
      static_cast<std::size_t>(k),
      std::vector<LinkParams>(static_cast<std::size_t>(k)));
  for (auto& row : inter) {
    for (LinkParams& link : row) {
      link = LinkParams{rng.uniform(1e-3, 1e-2), rng.uniform(1e6, 1e7)};
    }
  }
  return GridTopology(std::move(clusters), intra_node, intra_cluster,
                      std::move(inter));
}

double scale_of(const GridTopology& topo, int rank) {
  return topo.cluster(topo.location_of(rank).cluster).proc_peak_gflops /
         topo.cluster(0).proc_peak_gflops;
}

TEST(RouteTable, MatchesTopologyLookupsOnRandomGrids) {
  Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    const GridTopology topo = random_grid(rng);
    const RouteTable table(topo);
    const TopologyCostModel cost(topo, model::paper_calibration());
    const int p = topo.total_procs();
    ASSERT_EQ(table.nprocs(), p);
    for (int a = 0; a < p; ++a) {
      const ProcLocation loc = topo.location_of(a);
      ASSERT_EQ(table.site(a).cluster, loc.cluster) << "rank " << a;
      ASSERT_EQ(table.site(a).node, loc.node) << "rank " << a;
      ASSERT_EQ(table.site(a).scale, scale_of(topo, a)) << "rank " << a;
      for (int b = 0; b < p; ++b) {
        SCOPED_TRACE(testing::Message() << "trial " << trial << " route "
                                        << a << " -> " << b);
        const Route route = table.route(a, b);
        const LinkParams link = topo.link(a, b);
        ASSERT_EQ(route.link, link);
        ASSERT_EQ(route.cls, topo.link_class(a, b));
        ASSERT_EQ(route.src_cluster, loc.cluster);
        ASSERT_EQ(route.dst_cluster, topo.location_of(b).cluster);
        // The msg runtime's cost model reads the same table.
        ASSERT_EQ(cost.link_class(a, b), topo.link_class(a, b));
        if (a != b) {
          ASSERT_EQ(cost.transfer_seconds(a, b, 4096), link.latency_s);
          ASSERT_EQ(cost.serialization_seconds(a, b, 4096),
                    4096.0 / link.bandwidth_Bps);
        }
      }
    }
  }
}

TEST(RouteTable, ComputeSecondsEqualThePerRankFormula) {
  Rng rng(29);
  const model::Roofline roof = model::paper_calibration();
  for (int trial = 0; trial < 40; ++trial) {
    const GridTopology topo = random_grid(rng);
    const TopologyCostModel cost(topo, roof);
    const int p = topo.total_procs();
    // Ranks in random order with repeats, so same-cluster runs break
    // and a rank advances more than once.
    std::vector<int> ranks;
    for (int i = 0; i < 2 * p; ++i) {
      ranks.push_back(static_cast<int>(
          rng.uniform_index(static_cast<std::uint64_t>(p))));
    }
    // One engine of each kind across every ncols, so the rate memo
    // switches between steps.
    DesEngine span_engine(&topo, roof);
    DesEngine rank_engine(&topo, roof);
    std::vector<double> want(static_cast<std::size_t>(p), 0.0);
    double total = 0.0;
    for (int ncols : {0, 1, 64, 0, 512}) {
      const double flops = rng.uniform(1e3, 1e9);
      auto seconds = [&](int r) {
        return flops / (roof.rate_gflops(ncols) * scale_of(topo, r) * 1e9);
      };
      span_engine.compute(ranks, flops, ncols);
      for (int r : ranks) {
        rank_engine.compute(r, flops, ncols);
        want[static_cast<std::size_t>(r)] += seconds(r);
        total += flops;
      }
      for (int r = 0; r < p; ++r) {
        SCOPED_TRACE(testing::Message() << "trial " << trial << " ncols "
                                        << ncols << " rank " << r);
        const double w = want[static_cast<std::size_t>(r)];
        ASSERT_EQ(span_engine.compute_seconds(r), w);
        ASSERT_EQ(span_engine.clock(r), w);
        ASSERT_EQ(rank_engine.compute_seconds(r), w);
        ASSERT_EQ(cost.flop_seconds(r, flops, ncols), seconds(r));
      }
      EXPECT_EQ(span_engine.total_flops(), total);
      EXPECT_EQ(rank_engine.total_flops(), total);
    }
  }
}

TEST(RouteTable, OutOfRangeRanksThrow) {
  GridTopology topo = toy_topology();
  const int p = topo.total_procs();
  const RouteTable table(topo);
  const TopologyCostModel cost(topo, flat_roofline());
  for (int bad : {-1, p}) {
    SCOPED_TRACE(testing::Message() << "rank " << bad);
    DesEngine engine(&topo, flat_roofline());
    const std::vector<int> bad_last = {0, bad};
    const std::vector<int> bad_first = {bad, 0};
    EXPECT_THROW(engine.compute(bad, 1.0, 0), Error);
    EXPECT_THROW(engine.compute(bad_last, 1.0, 0), Error);
    EXPECT_THROW(engine.p2p(0, bad, 8), Error);
    EXPECT_THROW(engine.p2p(bad, 0, 8), Error);
    EXPECT_THROW(engine.allreduce(bad_last, 8, 1.0, 0), Error);
    EXPECT_THROW(engine.allreduce(bad_first, 8, 1.0, 0), Error);
    EXPECT_THROW(engine.reduce_bcast(bad_last, 8, 1.0, 0), Error);
    EXPECT_THROW(engine.reduce_bcast(bad_first, 8, 1.0, 0), Error);
    EXPECT_THROW(engine.bcast(bad_last, 8), Error);
    EXPECT_THROW(engine.bcast(bad_first, 8), Error);
    EXPECT_THROW(table.site(bad), Error);
    EXPECT_THROW(table.route(0, bad), Error);
    EXPECT_THROW(table.route(bad, bad), Error);
    EXPECT_THROW(cost.flop_seconds(bad, 1.0, 0), Error);
    EXPECT_THROW(cost.transfer_seconds(0, bad, 8), Error);
    EXPECT_THROW(cost.serialization_seconds(bad, 0, 8), Error);
    EXPECT_THROW(cost.link_class(0, bad), Error);
  }
}

// ------------------------------------------------------------ replay pins
//
// Whole replays pinned bit for bit: hexfloat seconds and exact counts.
// The constants equal what per-event GridTopology lookups produce, so the
// route table must reproduce them. A moved expression, operand order or
// accumulation order changes them; that is a bug to fix, not a re-pin.

struct ReplayBits {
  double seconds = 0.0;
  long long messages = 0;
  long long inter_cluster_messages = 0;
  double compute_utilization = 0.0;
};

struct PinnedReplay {
  std::string name;
  ReplayBits bits;
};

std::string pin_row(const PinnedReplay& run) {
  std::ostringstream os;
  os << std::hexfloat << "{\"" << run.name << "\", {" << run.bits.seconds
     << ", " << run.bits.messages << ", " << run.bits.inter_cluster_messages
     << ", " << run.bits.compute_utilization << "}},";
  return os.str();
}

/// run_des_scalapack and run_des_tsqr over a heterogeneous and an
/// equal-power grid: every tree kind, form_q on and off, multi-rank
/// domains (ScaLAPACK leaves) and one domain per process.
std::vector<PinnedReplay> replay_matrix() {
  struct Grid {
    const char* name;
    GridTopology topology;
    double m;
    double n;
  };
  const Grid grids[] = {
      {"hetero", GridTopology::grid5000(4, 32, 2), 4194304.0, 64.0},
      {"equal", GridTopology::grid5000(3, 8, 2, true), 393216.0, 192.0},
  };
  const std::pair<const char*, core::TreeKind> trees[] = {
      {"flat", core::TreeKind::kFlat},
      {"binary", core::TreeKind::kBinary},
      {"grid", core::TreeKind::kGridHierarchical},
  };
  const std::pair<const char*, int> layouts[] = {
      {"d3", 3}, {"per-proc", core::kOneDomainPerProcess}};
  const model::Roofline roof = model::paper_calibration();
  auto bits_of = [](const core::DesRunResult& r) {
    return ReplayBits{r.seconds, r.total_messages, r.inter_cluster_messages,
                      r.compute_utilization};
  };
  std::vector<PinnedReplay> runs;
  for (const Grid& g : grids) {
    for (bool q : {false, true}) {
      const std::string suffix = q ? "/q" : "";
      runs.push_back(
          {std::string(g.name) + "/scalapack" + suffix,
           bits_of(core::run_des_scalapack(g.topology, roof, g.m, g.n, 64,
                                           q))});
      for (const auto& [tree_name, tree] : trees) {
        for (const auto& [layout_name, domains] : layouts) {
          runs.push_back(
              {std::string(g.name) + "/tsqr/" + tree_name + "/" +
                   layout_name + suffix,
               bits_of(core::run_des_tsqr(g.topology, roof, domains, g.m,
                                          g.n, tree, q))});
        }
      }
    }
  }
  return runs;
}

TEST(DesReplay, PinnedBits) {
  const PinnedReplay kPinned[] = {
      {"hetero/scalapack",
       {0x1.09b72f44919cap+2, 64770, 24765, 0x1.c4efbcd653649p-5}},
      {"hetero/tsqr/flat/d3",
       {0x1.6b78bdc22f6fdp-2, 61987, 9, 0x1.4b1f1b593b954p-1}},
      {"hetero/tsqr/flat/per-proc",
       {0x1.4a13faca3d05ep-1, 255, 192, 0x1.6cad72dcb0a06p-2}},
      {"hetero/tsqr/binary/d3",
       {0x1.6097fffad9f83p-2, 61987, 6, 0x1.5555cd1533e38p-1}},
      {"hetero/tsqr/binary/per-proc",
       {0x1.129ed62c859ecp-2, 255, 3, 0x1.b63e323902374p-1}},
      {"hetero/tsqr/grid/d3",
       {0x1.5e7f5b9c7e321p-2, 61987, 3, 0x1.57604c1d3ca4fp-1}},
      {"hetero/tsqr/grid/per-proc",
       {0x1.129ed62c859ecp-2, 255, 3, 0x1.b63e323902374p-1}},
      {"hetero/scalapack/q",
       {0x1.09b72f4491a53p+3, 129540, 49530, 0x1.c4efbcd65355fp-5}},
      {"hetero/tsqr/flat/d3/q",
       {0x1.4287dbac2d905p-1, 62894, 18, 0x1.75296762c2d96p-1}},
      {"hetero/tsqr/flat/per-proc/q",
       {0x1.145b7ca45c238p+0, 510, 384, 0x1.b3e3689d5fe33p-2}},
      {"hetero/tsqr/binary/d3/q",
       {0x1.3aeada49f82bep-1, 62894, 12, 0x1.7e2e1aabf8a41p-1}},
      {"hetero/tsqr/binary/per-proc/q",
       {0x1.12c4a8c4567e2p-1, 510, 6, 0x1.b64aa6e6d1bf8p-1}},
      {"hetero/tsqr/grid/d3/q",
       {0x1.399a6b3f572eep-1, 62894, 6, 0x1.7fc7e906f951cp-1}},
      {"hetero/tsqr/grid/per-proc/q",
       {0x1.12c4a8c4567e2p-1, 510, 6, 0x1.b64aa6e6d1bf8p-1}},
      {"equal/scalapack",
       {0x1.c3ae3db1b92f2p+2, 36002, 13022, 0x1.a54c403a19714p-4}},
      {"equal/tsqr/flat/d3",
       {0x1.054d1110a46b7p+0, 29882, 6, 0x1.6c5d63f608aa6p-1}},
      {"equal/tsqr/flat/per-proc",
       {0x1.81aeb62f88e96p+0, 47, 32, 0x1.ee02c02bb2c88p-2}},
      {"equal/tsqr/binary/d3",
       {0x1.ef44c8c542763p-1, 29882, 4, 0x1.80794749c631dp-1}},
      {"equal/tsqr/binary/per-proc",
       {0x1.9a29c14ab7a1bp-1, 47, 2, 0x1.d08690f49ecdfp-1}},
      {"equal/tsqr/grid/d3",
       {0x1.e3f87e876fa85p-1, 29882, 2, 0x1.8972f54508ec3p-1}},
      {"equal/tsqr/grid/per-proc",
       {0x1.9a29c14ab7a1bp-1, 47, 2, 0x1.d08690f49ecdfp-1}},
      {"equal/scalapack/q",
       {0x1.c3ae3db1b8e5dp+3, 72004, 26044, 0x1.a54c403a19b9dp-4}},
      {"equal/tsqr/flat/d3/q",
       {0x1.e5284ea33cecbp+0, 29986, 12, 0x1.889882cdc9d03p-1}},
      {"equal/tsqr/flat/per-proc/q",
       {0x1.615776b985f2ap+1, 94, 64, 0x1.0e7674ce24a6p-1}},
      {"equal/tsqr/binary/d3/q",
       {0x1.df7063c2fbd12p+0, 29986, 8, 0x1.8d4742efcc51fp-1}},
      {"equal/tsqr/binary/per-proc/q",
       {0x1.a2e5d27e81c96p+0, 94, 4, 0x1.c845bdd3ab1c7p-1}},
      {"equal/tsqr/grid/d3/q",
       {0x1.cfa26afefa979p+0, 29986, 4, 0x1.9ad22adf41e6dp-1}},
      {"equal/tsqr/grid/per-proc/q",
       {0x1.a2e5d27e81c96p+0, 94, 4, 0x1.c845bdd3ab1c7p-1}},
  };
  const std::vector<PinnedReplay> runs = replay_matrix();
  ASSERT_EQ(runs.size(), std::size(kPinned));
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ReplayBits& got = runs[i].bits;
    const ReplayBits& want = kPinned[i].bits;
    const std::string row = pin_row(runs[i]);
    EXPECT_EQ(runs[i].name, kPinned[i].name);
    EXPECT_EQ(got.seconds, want.seconds) << row;
    EXPECT_EQ(got.messages, want.messages) << row;
    EXPECT_EQ(got.inter_cluster_messages, want.inter_cluster_messages)
        << row;
    EXPECT_EQ(got.compute_utilization, want.compute_utilization) << row;
  }

  // One engine with a trace attached: a TSQR with ScaLAPACK leaves and
  // an explicit Q, then a PDGEQR2 whose butterfly folds (96 ranks) and
  // crosses the cluster 0/1 boundary.
  const GridTopology topo = GridTopology::grid5000(4, 32, 2);
  DesEngine engine(&topo, model::paper_calibration());
  TraceLog log;
  engine.set_trace(&log);
  const core::DomainLayout layout = core::make_domain_layout(topo, 2);
  core::des_tsqr(engine, layout.groups, layout.domain_cluster, 1048576.0,
                 48.0, core::TreeKind::kGridHierarchical, true);
  std::vector<int> ranks(96);
  std::iota(ranks.begin(), ranks.end(), 0);
  core::des_pdgeqr2(engine, ranks, 65536.0, 12.0, true);
  std::ostringstream got;
  got << std::hexfloat << engine.makespan() << " " << engine.messages()
      << " " << engine.messages_of(msg::LinkClass::kInterCluster) << " "
      << engine.compute_utilization() << " " << engine.total_flops() << " "
      << log.events().size();
  for (int c = 0; c < topo.num_clusters(); ++c) {
    got << " " << engine.first_egress_s(c) << " " << engine.first_ingress_s(c);
  }
  EXPECT_EQ(engine.makespan(), 0x1.cde2c47c310fcp-2) << got.str();
  EXPECT_EQ(engine.messages(), 64189) << got.str();
  EXPECT_EQ(engine.messages_of(msg::LinkClass::kInterCluster), 2278)
      << got.str();
  EXPECT_EQ(engine.compute_utilization(), 0x1.53fc7d9a600a4p-3)
      << got.str();
  EXPECT_EQ(engine.total_flops(), 0x1.2131cb25fffp+33) << got.str();
  EXPECT_EQ(log.events().size(), 143252u) << got.str();
  // Per-cluster first WAN instants: the earliest start over each
  // cluster's sent (received) inter-cluster transfers.
  EXPECT_EQ(engine.first_egress_s(0), 0x1.b3223a4dbab24p-4) << got.str();
  EXPECT_EQ(engine.first_ingress_s(0), 0x1.87bbe859dc764p-4) << got.str();
  EXPECT_EQ(engine.first_egress_s(1), 0x1.87bbe859dc764p-4) << got.str();
  EXPECT_EQ(engine.first_ingress_s(1), 0x1.b47cc6dfabfp-4) << got.str();
  EXPECT_EQ(engine.first_egress_s(2), 0x1.9116745774113p-4) << got.str();
  EXPECT_EQ(engine.first_ingress_s(2), 0x1.6f66708d5a84fp-4) << got.str();
  EXPECT_EQ(engine.first_egress_s(3), 0x1.6f66708d5a84fp-4) << got.str();
  EXPECT_EQ(engine.first_ingress_s(3), 0x1.d79010e9a6424p-4) << got.str();
}

}  // namespace
}  // namespace qrgrid::simgrid
