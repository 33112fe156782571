// Shared-WAN contention engine: fair-share draining of the GridWanModel
// horizons, conservation of WAN bytes under concurrency, monotonicity of
// contended runtimes against the isolated replays, byte-identical
// reproduction of the contention-free service when nothing overlaps, and
// the network-aware placement preference for idle uplinks.
#include "sched/wan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "sched/service.hpp"
#include "sched/snapshot.hpp"
#include "sched/workload.hpp"

namespace qrgrid::sched {
namespace {

using Pool = GridWanModel::Pool;
using Link = GridWanModel::Pool::Link;

Pool make_pool(Link link, int cluster, double bytes, double activation_s) {
  Pool pool;
  pool.link = link;
  pool.cluster = cluster;
  pool.bytes = bytes;
  pool.activation_s = activation_s;
  return pool;
}

simgrid::GridTopology small_grid() {
  // 2 sites x 2 nodes x 2 procs = 8 processes, 4 nodes.
  return simgrid::GridTopology::grid5000(2, 2, 2);
}

Job make_job(int id, double arrival_s, double m, int n, int procs) {
  Job job;
  job.id = id;
  job.arrival_s = arrival_s;
  job.m = m;
  job.n = n;
  job.procs = procs;
  return job;
}

long long sum(const std::vector<long long>& v) {
  return std::accumulate(v.begin(), v.end(), 0LL);
}

// --- GridWanModel unit level -------------------------------------------

TEST(WanModel, SingleFlowDrainsAtFullCapacity) {
  // 100 B/s uplink: 1000 bytes activating at t=2 drain at t=12 exactly.
  GridWanModel wan(2, 100.0, 200.0);
  const int flow = wan.admit(0.0, {make_pool(Link::kUplink, 0, 1000.0, 2.0)});
  EXPECT_FALSE(wan.drained(flow));
  EXPECT_DOUBLE_EQ(wan.next_event_s(0.0), 2.0);  // the activation
  wan.advance(0.0, 2.0);
  EXPECT_DOUBLE_EQ(wan.next_event_s(2.0), 12.0);  // the drain
  wan.advance(2.0, 12.0);
  ASSERT_TRUE(wan.drained(flow));
  EXPECT_DOUBLE_EQ(wan.drained_at_s(flow), 12.0);
  // Busy time covers exactly the active interval, not the idle prefix.
  EXPECT_DOUBLE_EQ(wan.uplink_busy_s(0), 10.0);
  EXPECT_DOUBLE_EQ(wan.uplink_busy_s(1), 0.0);
  std::vector<long long> egress(2, 0), ingress(2, 0);
  wan.retire(flow, egress, ingress);
  EXPECT_EQ(egress[0], 1000);
  EXPECT_EQ(sum(ingress), 0);
}

TEST(WanModel, FairShareHalvesRateAndRecoversOnRetire) {
  // Two flows on the same uplink from t=0: each gets 50 B/s. Flow A's
  // 500 bytes would alone take 5 s; shared, its first event is at 10 s —
  // but flow B retires at t=4, after which A drains at full rate.
  GridWanModel wan(1, 100.0, 100.0);
  const int a = wan.admit(0.0, {make_pool(Link::kUplink, 0, 500.0, 0.0)});
  const int b = wan.admit(0.0, {make_pool(Link::kUplink, 0, 900.0, 0.0)});
  EXPECT_DOUBLE_EQ(wan.next_event_s(0.0), 10.0);
  wan.advance(0.0, 4.0);  // a: 500-200=300 left, b: 900-200=700 left
  std::vector<long long> egress(1, 0), ingress(1, 0);
  wan.retire(b, egress, ingress);
  EXPECT_EQ(egress[0], 200);  // what b actually moved before dying
  // Alone now: 300 bytes at 100 B/s -> drained at t=7.
  EXPECT_DOUBLE_EQ(wan.next_event_s(4.0), 7.0);
  wan.advance(4.0, 7.0);
  ASSERT_TRUE(wan.drained(a));
  EXPECT_DOUBLE_EQ(wan.drained_at_s(a), 7.0);
  wan.retire(a, egress, ingress);
  EXPECT_EQ(egress[0], 700);  // 200 from b + 500 from a
}

TEST(WanModel, BackboneCouplesDisjointUplinks) {
  // Two flows on DIFFERENT uplinks but one shared backbone sized below
  // their sum: the backbone pools halve, the uplink pools do not.
  GridWanModel wan(2, 100.0, 100.0);
  const int a = wan.admit(0.0, {make_pool(Link::kUplink, 0, 400.0, 0.0),
                                make_pool(Link::kBackbone, -1, 400.0, 0.0)});
  const int b = wan.admit(0.0, {make_pool(Link::kUplink, 1, 400.0, 0.0),
                                make_pool(Link::kBackbone, -1, 400.0, 0.0)});
  // Uplinks drain in 4 s; backbones shared at 50 B/s need 8 s.
  EXPECT_DOUBLE_EQ(wan.next_event_s(0.0), 4.0);
  wan.advance(0.0, 4.0);
  EXPECT_FALSE(wan.drained(a));
  EXPECT_DOUBLE_EQ(wan.next_event_s(4.0), 8.0);
  wan.advance(4.0, 8.0);
  EXPECT_TRUE(wan.drained(a));
  EXPECT_TRUE(wan.drained(b));
  EXPECT_DOUBLE_EQ(wan.backbone_busy_s(), 8.0);
  EXPECT_DOUBLE_EQ(wan.uplink_busy_s(0), 4.0);
}

TEST(WanModel, LoadScoreCountsPendingAndActiveFlows) {
  GridWanModel wan(2, 100.0, 100.0);
  // Pending activation still counts: it will contend before a job placed
  // now reaches its own WAN phase.
  const int flow = wan.admit(0.0, {make_pool(Link::kUplink, 0, 100.0, 50.0)});
  EXPECT_EQ(wan.load_score(0), 1);
  EXPECT_EQ(wan.load_score(1), 0);
  std::vector<long long> egress(2, 0), ingress(2, 0);
  wan.retire(flow, egress, ingress);
  EXPECT_EQ(wan.load_score(0), 0);
}

TEST(WanModel, SubEpsilonResidualRetiresAtRelativeTolerance) {
  // A 1e15-byte transfer at 100 B/s, advanced to 1 s short of its
  // nominal drain instant: the 100-byte residual is 1e-13 of the
  // transfer — floating-point noise at this scale, below the drain
  // kernel's relative tolerance (1e-12 of the initial demand). The pool
  // must retire HERE, not schedule another share change for the noise,
  // and retire() must credit the full demand, not demand minus noise.
  GridWanModel wan(2, 100.0, 200.0);
  const int flow = wan.admit(0.0, {make_pool(Link::kUplink, 0, 1e15, 0.0)});
  wan.advance(0.0, 1.0e13 - 1.0);
  EXPECT_TRUE(wan.drained(flow));
  EXPECT_DOUBLE_EQ(wan.drained_at_s(flow), 1.0e13 - 1.0);
  std::vector<long long> egress(2, 0), ingress(2, 0);
  wan.retire(flow, egress, ingress);
  EXPECT_EQ(egress[0], 1000000000000000LL);

  // A residual WELL above the tolerance (1e4 bytes, 1e-11 of the
  // transfer) is real remaining demand: it keeps draining and the flow
  // retires exactly at the true drain instant.
  GridWanModel wan2(2, 100.0, 200.0);
  const int flow2 = wan2.admit(0.0, {make_pool(Link::kUplink, 0, 1e15, 0.0)});
  wan2.advance(0.0, 1.0e13 - 100.0);
  EXPECT_FALSE(wan2.drained(flow2));
  EXPECT_DOUBLE_EQ(wan2.next_event_s(1.0e13 - 100.0), 1.0e13);
  wan2.advance(1.0e13 - 100.0, 1.0e13);
  EXPECT_TRUE(wan2.drained(flow2));
  EXPECT_DOUBLE_EQ(wan2.drained_at_s(flow2), 1.0e13);
}

TEST(WanModel, HugeOrInfiniteTrunkDrainsInBoundedSteps) {
  // Equal-split, one flow admitted at t = 50 s with 1037-byte uplink and
  // backbone pools. At 1.25e17 B/s the backbone pool drains in about one
  // ulp of the clock, so rounding leaves ~150 bytes whose own drain time
  // is below an ulp: now + bytes/rate == now. An infinite trunk would
  // drain its pool at an infinite rate. Either way the event loop must
  // keep moving — next_event_s steps at least to the next representable
  // instant, and an infinite trunk admits no backbone pool at all — and
  // the site uplink alone sets the drain time.
  for (const double trunk_Bps :
       {1.25e17, std::numeric_limits<double>::infinity()}) {
    GridWanModel wan(2, 12.5e6, trunk_Bps, WanFairness::kEqualSplit);
    const double t0 = 50.0;
    const int flow =
        wan.admit(t0, {make_pool(Link::kUplink, 0, 1037.0, t0),
                       make_pool(Link::kBackbone, -1, 1037.0, t0)});
    double now = t0;
    int steps = 0;
    for (; steps < 8 && !wan.drained(flow); ++steps) {
      const double next = wan.next_event_s(now);
      ASSERT_GT(next, now) << "trunk " << trunk_Bps << " step " << steps;
      wan.advance(now, next);
      now = next;
    }
    ASSERT_TRUE(wan.drained(flow)) << "trunk " << trunk_Bps;
    EXPECT_NEAR(wan.drained_at_s(flow), t0 + 1037.0 / 12.5e6, 1e-9);
    // No backbone pool on the unconstrained core: the uplink drain is the
    // only event.
    if (std::isinf(trunk_Bps)) {
      EXPECT_EQ(steps, 1);
    }
    std::vector<long long> egress(2, 0), ingress(2, 0);
    wan.retire(flow, egress, ingress);
    EXPECT_EQ(egress[0], 1037);
  }
}

// --- Incremental rate maintenance (both fairness rules) -----------------

/// Scripted random churn against a model: admissions with mixed
/// immediate/deferred activations, event-aligned and mid-interval
/// advances, mid-flight retirements, and planning-estimate queries — the
/// full structural-event vocabulary the incremental engine must absorb.
/// Drives `models` in lockstep (identical op stream) so a test can
/// compare a model that is consulted constantly against a twin that is
/// consulted once; `after_op(op, now)`, when given, runs after every op.
/// Returns the surviving flow ids.
std::vector<int> churn_models(
    std::vector<GridWanModel*> models, std::mt19937& rng, int ops,
    int num_clusters, bool query_first_each_op,
    const std::function<void(int, double)>& after_op = {}) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<int> live;
  std::vector<long long> egress(num_clusters, 0), ingress(num_clusters, 0);
  std::vector<double> estimates;
  double now = 0.0;
  for (int op = 0; op < ops; ++op) {
    const double roll = unit(rng);
    if (roll < 0.4 || live.empty()) {
      std::vector<Pool> pools;
      const int count = 1 + static_cast<int>(unit(rng) * 3.0);
      for (int p = 0; p < count; ++p) {
        Pool pool;
        const double kind = unit(rng);
        if (kind < 0.5) {
          pool.link = Link::kUplink;
          pool.cluster = static_cast<int>(unit(rng) * num_clusters);
        } else if (kind < 0.85) {
          pool.link = Link::kDownlink;
          pool.cluster = static_cast<int>(unit(rng) * num_clusters);
        } else {
          pool.link = Link::kBackbone;  // dropped under max-min: that
          pool.cluster = -1;            // code path must stay exact too
        }
        pool.bytes = 1.0 + std::floor(unit(rng) * 1e6);
        pool.activation_s =
            now + (unit(rng) < 0.5 ? 0.0 : unit(rng) * 3.0);
        pools.push_back(pool);
      }
      int id = -1;
      for (GridWanModel* wan : models) id = wan->admit(now, pools);
      live.push_back(id);  // lockstep models assign identical flow ids
    } else if (roll < 0.55) {
      const auto pick = static_cast<std::size_t>(unit(rng) * live.size());
      for (GridWanModel* wan : models) {
        wan->retire(live[pick], egress, ingress);
      }
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (roll < 0.7) {
      for (GridWanModel* wan : models) {
        wan->drain_estimates_s(now, live, estimates);
      }
    } else {
      const double next = models.front()->next_event_s(now);
      const double to = std::isfinite(next)
                            ? (unit(rng) < 0.5
                                   ? next
                                   : now + (next - now) * unit(rng))
                            : now + 1.0;
      for (GridWanModel* wan : models) wan->advance(now, to);
      now = to;
    }
    if (query_first_each_op) {
      models.front()->drain_estimates_s(now, live, estimates);
    }
    // Shed drained flows occasionally, so the flow table also shrinks at
    // its tail.
    if (!live.empty() && unit(rng) < 0.2) {
      const int flow = live.back();
      if (models.front()->drained(flow)) {
        for (GridWanModel* wan : models) wan->retire(flow, egress, ingress);
        live.pop_back();
      }
    }
    if (after_op) after_op(op, now);
  }
  return live;
}

constexpr WanFairness kBothRules[] = {WanFairness::kEqualSplit,
                                      WanFairness::kMaxMin};

TEST(WanModelIncremental, RandomChurnMatchesGlobalOracle) {
  // The differential acceptance gate: with the oracle armed, EVERY
  // component rebalance is shadowed by a global fill over the time-based
  // demand view and compared rate-by-rate. The incremental path is
  // bit-identical by construction (same rate rule, same demand order,
  // same arithmetic), so the recorded divergence must be exactly zero —
  // the 1e-12 bound is the acceptance threshold, the zero is what
  // construction promises.
  for (const WanFairness fairness : kBothRules) {
    for (const unsigned seed : {11u, 23u, 57u}) {
      GridWanModel wan(4, 100.0, 250.0, fairness);
      wan.set_rate_oracle_check(true);
      std::mt19937 rng(seed);
      churn_models({&wan}, rng, 400, 4, /*query_first_each_op=*/false);
      const std::string where =
          wan_fairness_name(fairness) + " seed " + std::to_string(seed);
      EXPECT_GT(wan.rebalance_recomputes(), 0u) << where;
      EXPECT_LE(wan.max_oracle_rate_error(), 1e-12) << where;
      EXPECT_EQ(wan.max_oracle_rate_error(), 0.0) << where;
    }
  }
}

TEST(WanModelIncremental, UnconstrainedBackboneMatchesHugeFiniteTrunk) {
  // An infinite backbone drops out of the constraint graph entirely
  // (links_of never emits it), which must be allocation-equivalent to a
  // finite trunk too wide to ever bind: the progressive filling never
  // selects a non-binding link as bottleneck, so every rate is computed
  // through the identical freeze sequence. Twin models under lockstep
  // churn must agree bitwise — while the infinite-trunk twin touches
  // strictly fewer links (no shared trunk chaining every uplink flow
  // into one graph-wide component).
  GridWanModel finite(4, 100.0, 1e18, WanFairness::kMaxMin);
  GridWanModel infinite(4, 100.0,
                        std::numeric_limits<double>::infinity(),
                        WanFairness::kMaxMin);
  infinite.set_rate_oracle_check(true);
  std::mt19937 rng(37);
  const std::vector<int> live =
      churn_models({&finite, &infinite}, rng, 400, 4,
                   /*query_first_each_op=*/true);
  EXPECT_EQ(infinite.max_oracle_rate_error(), 0.0);
  std::vector<double> from_finite, from_infinite;
  const double now = 1e7;  // past every activation in the script
  finite.drain_estimates_s(now, live, from_finite);
  infinite.drain_estimates_s(now, live, from_infinite);
  ASSERT_EQ(from_finite.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(from_finite[i], from_infinite[i]) << "flow " << live[i];
  }
  EXPECT_GT(infinite.rebalance_recomputes(), 0u);
  EXPECT_LT(infinite.rebalance_links_touched(),
            finite.rebalance_links_touched());
  EXPECT_LE(infinite.rebalance_full_refills(),
            finite.rebalance_full_refills());
}

TEST(WanModelIncremental, UnconstrainedBackboneKeepsComponentsLocal) {
  // With the trunk out of the graph, flows on distinct site links are
  // distinct components: an event on one must not drag the other into
  // its repair, and a repair of one island is NOT a full refill.
  GridWanModel wan(2, 100.0, std::numeric_limits<double>::infinity(),
                   WanFairness::kMaxMin);
  const int a = wan.admit(0.0, {make_pool(Link::kUplink, 0, 1000.0, 0.0)});
  wan.admit(0.0, {make_pool(Link::kUplink, 1, 800.0, 0.0)});
  // First consultation repairs both freshly-dirtied islands in one pass:
  // two links (no trunk), and since that pass covers every busy link it
  // IS a full refill. Each flow fills to its full site rate.
  EXPECT_DOUBLE_EQ(wan.next_event_s(0.0), 8.0);
  EXPECT_EQ(wan.rebalance_recomputes(), 1u);
  EXPECT_EQ(wan.rebalance_links_touched(), 2u);
  EXPECT_EQ(wan.rebalance_full_refills(), 1u);
  // The trunk still carries the busy statistic via the load counter
  // even though no demand maps onto the backbone link.
  wan.advance(0.0, 2.0);
  EXPECT_DOUBLE_EQ(wan.backbone_busy_s(), 2.0);
  // Retiring island 0 mid-flight dirties only its own link: the repair
  // touches one link and leaves island 1 alone — not a full refill.
  std::vector<long long> egress(2, 0), ingress(2, 0);
  wan.retire(a, egress, ingress);
  wan.next_event_s(2.0);
  EXPECT_EQ(wan.rebalance_recomputes(), 2u);
  EXPECT_EQ(wan.rebalance_links_touched(), 3u);
  EXPECT_EQ(wan.rebalance_full_refills(), 1u);
}

TEST(WanModelIncremental, EstimateBasisCacheIsTransparent) {
  // Twin models run the identical op script; one is asked for planning
  // estimates after EVERY op, the twin only at the very end. The
  // answers must match bitwise in both fairness modes — an estimate is
  // a function of the model's state, never of its query history.
  for (const WanFairness fairness :
       {WanFairness::kEqualSplit, WanFairness::kMaxMin}) {
    GridWanModel hot(4, 100.0, 250.0, fairness);
    GridWanModel cold(4, 100.0, 250.0, fairness);
    std::mt19937 rng(2026);
    const std::vector<int> live =
        churn_models({&hot, &cold}, rng, 300, 4,
                     /*query_first_each_op=*/true);
    std::vector<double> from_hot, from_cold;
    const double now = 1e7;  // past every activation in the script
    hot.drain_estimates_s(now, live, from_hot);
    cold.drain_estimates_s(now, live, from_cold);
    ASSERT_EQ(from_hot.size(), live.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
      EXPECT_EQ(from_hot[i], from_cold[i])
          << "flow " << live[i] << " under "
          << wan_fairness_name(fairness);
    }
  }
}

TEST(WanModelIncremental, SameInstantEventsCoalesceIntoOneRebalance) {
  // Two admissions and one mid-flight retirement land at the same
  // instant with no consultation in between: three structural events,
  // ONE repair when the model is next asked a question.
  GridWanModel wan(2, 100.0, 200.0, WanFairness::kMaxMin);
  wan.admit(0.0, {make_pool(Link::kUplink, 0, 1000.0, 0.0)});
  const int b = wan.admit(0.0, {make_pool(Link::kUplink, 0, 900.0, 0.0)});
  const int c = wan.admit(0.0, {make_pool(Link::kUplink, 0, 600.0, 0.0)});
  EXPECT_EQ(wan.rebalance_events(), 3u);
  EXPECT_EQ(wan.rebalance_recomputes(), 0u);  // lazy: nothing consulted yet
  std::vector<long long> egress(2, 0), ingress(2, 0);
  wan.retire(c, egress, ingress);
  EXPECT_EQ(wan.rebalance_events(), 4u);  // undrained retirement counts
  EXPECT_EQ(wan.rebalance_recomputes(), 0u);
  // First consultation repairs once for all four events: two survivors
  // share 100 B/s, so the 900-byte flow dries at t=18.
  EXPECT_DOUBLE_EQ(wan.next_event_s(0.0), 18.0);
  EXPECT_EQ(wan.rebalance_recomputes(), 1u);
  EXPECT_LE(wan.rebalance_full_refills(), wan.rebalance_recomputes());
  wan.advance(0.0, 18.0);
  EXPECT_TRUE(wan.drained(b));
}

TEST(WanModelSnapshot, NonFiniteOrNegativeNumbersAreRefused) {
  // A pool whose bytes are NaN never drains (next_event_s answers the
  // next representable instant forever), and restored byte counts feed
  // the drain arithmetic and the retired byte totals: restore refuses
  // them. Mid-run, each number below has a bit pattern found where the
  // writer lays it out. Neither the rates nor the calendar are written:
  // restore derives both from the pools, whose activation time is
  // patched below.
  GridWanModel wan(2, 100.0, 200.0);
  wan.admit(0.0, {make_pool(Link::kUplink, 0, 1000.0, 0.0),
                  make_pool(Link::kDownlink, 1, 850.0, 1.0),
                  make_pool(Link::kUplink, 1, 500.0, 10.0)});
  ASSERT_DOUBLE_EQ(wan.next_event_s(0.0), 1.0);
  wan.advance(0.0, 1.0);
  wan.advance(1.0, 3.0);
  SnapshotWriter w;
  w(wan);
  const std::string clean = w.bytes();
  const auto bits_of = [](double value) {
    std::string bits(sizeof value, '\0');
    std::memcpy(bits.data(), &value, sizeof value);
    return bits;
  };
  const auto restore = [](const std::string& bytes) {
    GridWanModel fresh(2, 100.0, 200.0);
    SnapshotReader r(bytes);
    r(fresh);
    return fresh;
  };
  EXPECT_EQ(restore(clean).next_event_s(3.0), 9.5);  // the clean state loads

  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Patch {
    const char* what;
    double from;
    int occurrence;  ///< which occurrence of `from`'s bit pattern
    double to;
    bool refused;
  };
  const std::vector<Patch> patches = {
      {"pool bytes", 700.0, 0, kNaN, true},
      {"pool bytes", 700.0, 0, kInf, true},
      {"pool bytes", 700.0, 0, -1.0, true},
      {"moved bytes", 300.0, 0, kNaN, true},
      {"initial bytes", 1000.0, 0, -kInf, true},
      {"pool activation", 10.0, 0, kNaN, true},
  };
  for (const Patch& p : patches) {
    std::size_t at = clean.find(bits_of(p.from));
    for (int k = 0; k < p.occurrence && at != std::string::npos; ++k) {
      at = clean.find(bits_of(p.from), at + 1);
    }
    ASSERT_NE(at, std::string::npos) << p.what;
    std::string patched = clean;
    patched.replace(at, sizeof(double), bits_of(p.to));
    if (p.refused) {
      EXPECT_THROW(restore(patched), Error) << p.what << " = " << p.to;
    } else {
      EXPECT_NO_THROW(restore(patched)) << p.what << " = " << p.to;
    }
  }
}

TEST(WanModelSnapshot, FlowsOutOfIdOrderAreRefused) {
  // The flow table is id-sorted: find() binary-searches it, and a flow
  // listed twice would drain twice per step and retire with more bytes
  // than its link carried. Restore refuses ids that do not strictly
  // increase or that the id counter never issued.
  GridWanModel wan(2, 100.0, 200.0);
  wan.admit(0.0, {make_pool(Link::kUplink, 0, 1000.0, 0.0)});
  wan.admit(0.0, {make_pool(Link::kUplink, 1, 800.0, 0.0)});
  wan.advance(0.0, 1.0);
  SnapshotWriter w;
  w(wan);
  const std::string clean = w.bytes();
  const auto bits_of = [](auto value) {
    std::string bits(sizeof value, '\0');
    std::memcpy(bits.data(), &value, sizeof value);
    return bits;
  };
  // The second flow's record opens with id 1 and one pool on uplink 1.
  const std::string second = bits_of(1) + bits_of(std::uint64_t{1}) +
                             bits_of(Link::kUplink) + bits_of(1);
  const std::size_t at = clean.find(second);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(clean.rfind(second), at);
  const auto restore = [](const std::string& bytes) {
    GridWanModel fresh(2, 100.0, 200.0);
    SnapshotReader r(bytes);
    r(fresh);
  };
  EXPECT_NO_THROW(restore(clean));
  for (const int id : {0, 2}) {  // the first flow's id, an unissued id
    std::string patched = clean;
    patched.replace(at, sizeof(int), bits_of(id));
    try {
      restore(patched);
      ADD_FAILURE() << "second flow with id " << id << " was restored";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("flow id order"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(WanModelSnapshot, ActiveZeroBytePoolIsRefused) {
  // A pool is active from its activation until it runs dry. An active
  // flag on a drained pool would let the next advance "drain" it again
  // and count the flow drained while its downlink still holds bytes, so
  // its job would complete early.
  GridWanModel wan(2, 100.0, 200.0);
  const int flow = wan.admit(0.0, {make_pool(Link::kUplink, 0, 100.0, 0.0),
                                   make_pool(Link::kDownlink, 1, 1000.0, 0.0)});
  ASSERT_EQ(wan.next_event_s(0.0), 1.0);
  wan.advance(0.0, 1.0);
  ASSERT_FALSE(wan.drained(flow));  // 900 B left on the downlink
  SnapshotWriter w;
  w(wan);
  const std::string clean = w.bytes();
  // The drained uplink pool's record closes with its moved and admitted
  // bytes, 100 each, and its active flag, 0.
  const double hundred = 100.0;
  std::string record(2 * sizeof hundred, '\0');
  std::memcpy(record.data(), &hundred, sizeof hundred);
  std::memcpy(record.data() + sizeof hundred, &hundred, sizeof hundred);
  record += '\0';
  const std::size_t at = clean.find(record);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(clean.rfind(record), at);
  const auto restore = [](const std::string& bytes) {
    GridWanModel fresh(2, 100.0, 200.0);
    SnapshotReader r(bytes);
    r(fresh);
  };
  EXPECT_NO_THROW(restore(clean));
  std::string patched = clean;
  patched[at + 2 * sizeof hundred] = '\1';
  try {
    restore(patched);
    ADD_FAILURE() << "an active drained pool was restored";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("active pool with no bytes"),
              std::string::npos)
        << e.what();
  }
}

TEST(WanModelSnapshot, RestoredModelContinuesIdentically) {
  // Restore derives what the checkpoint no longer carries: each flow's
  // undrained count, frac sensitivity and load membership, and the
  // activation calendar. A restored copy must then follow the original
  // step for step. Flow a's two uplink pools share the max-min trunk
  // (frac-sensitive); flow b's uplink pool is still pending, yet counts
  // toward the load; flow c retired before its pool activated, so the
  // original's calendar still holds its dead entry, which the rebuilt
  // calendar drops; flow d's pool activates before b's, though admitted
  // after it, so the rebuilt calendar must be a heap, not the pools in
  // flow order. Every other step stops halfway to the next event, where
  // no pool drains or activates and only frac sensitivity re-dirties the
  // trunk.
  for (const WanFairness fairness :
       {WanFairness::kEqualSplit, WanFairness::kMaxMin}) {
    GridWanModel wan(3, 100.0, 150.0, fairness);
    wan.admit(0.0, {make_pool(Link::kUplink, 0, 900.0, 0.0),
                    make_pool(Link::kUplink, 1, 300.0, 0.0),
                    make_pool(Link::kDownlink, 2, 400.0, 0.0),
                    make_pool(Link::kBackbone, -1, 1200.0, 0.0)});
    wan.admit(0.0, {make_pool(Link::kDownlink, 0, 500.0, 0.0),
                    make_pool(Link::kUplink, 2, 600.0, 20.0)});
    const int c = wan.admit(0.0, {make_pool(Link::kDownlink, 1, 700.0, 2.0)});
    wan.admit(0.0, {make_pool(Link::kDownlink, 1, 400.0, 3.0)});
    wan.advance(0.0, 1.0);
    std::vector<long long> egress(3, 0), ingress(3, 0);
    wan.retire(c, egress, ingress);
    SnapshotWriter w;
    w(wan);
    GridWanModel restored(3, 100.0, 150.0, fairness);
    SnapshotReader r(w.bytes());
    r(restored);
    const std::string label = wan_fairness_name(fairness);
    double now = 1.0;
    for (int i = 0;; ++i) {
      for (int c = 0; c < 3; ++c) {
        EXPECT_EQ(restored.load_score(c), wan.load_score(c)) << label;
      }
      EXPECT_EQ(restored.backbone_load(), wan.backbone_load()) << label;
      const double next = wan.next_event_s(now);
      ASSERT_EQ(restored.next_event_s(now), next) << label << " step " << i;
      if (next == std::numeric_limits<double>::infinity()) break;
      const double to = i % 2 == 0 ? now + (next - now) / 2.0 : next;
      wan.advance(now, to);
      restored.advance(now, to);
      now = to;
    }
    SnapshotWriter original_end;
    SnapshotWriter restored_end;
    original_end(wan);
    restored_end(restored);
    EXPECT_EQ(restored_end.bytes(), original_end.bytes()) << label;
  }
}

TEST(WanModelSnapshot, RestoreAnywhereStaysInLockstep) {
  // Restore derives every cached rate, load membership, the calendar and
  // frac sensitivity; the checkpoint carries none of them. Under the
  // churn mix, every third op restores a fresh twin from the model's
  // snapshot, wherever that op left it (dirty links pending or not), and
  // the two then take the same ops. After every op their horizons, load
  // signals and snapshot bytes must agree exactly.
  const double kInf = std::numeric_limits<double>::infinity();
  for (const WanFairness fairness : kBothRules) {
    for (const double trunk_Bps : {250.0, kInf}) {
      const std::string label = wan_fairness_name(fairness) + " trunk " +
                                std::to_string(trunk_Bps);
      GridWanModel wan(4, 100.0, trunk_Bps, fairness);
      GridWanModel twin(4, 100.0, trunk_Bps, fairness);
      int restores = 0;
      const auto bytes_of = [](GridWanModel& model) {
        SnapshotWriter w;
        w(model);
        return w.bytes();
      };
      std::mt19937 rng(41);
      churn_models(
          {&wan, &twin}, rng, 400, 4, /*query_first_each_op=*/false,
          [&](int op, double now) {
            if (testing::Test::HasFailure()) return;  // the first mismatch
            if (op % 3 == 0) {
              twin = GridWanModel(4, 100.0, trunk_Bps, fairness);
              SnapshotReader r(bytes_of(wan));
              r(twin);
              ++restores;
            }
            ASSERT_EQ(bytes_of(twin), bytes_of(wan)) << label << " op " << op;
            for (int c = 0; c < 4; ++c) {
              ASSERT_EQ(twin.load_score(c), wan.load_score(c))
                  << label << " op " << op << " cluster " << c;
            }
            ASSERT_EQ(twin.backbone_load(), wan.backbone_load())
                << label << " op " << op;
            ASSERT_EQ(twin.next_event_s(now), wan.next_event_s(now))
                << label << " op " << op;
          });
      EXPECT_GT(restores, 100) << label;
      EXPECT_GT(wan.rebalance_recomputes(), 0u) << label;
    }
  }
}

TEST(WanModelSnapshot, ExhaustedOrNegativeIdCounterIsRefused) {
  // Flow ids come from a counter that only grows: admit() refuses to
  // pass INT_MAX instead of overflowing it, and restore refuses a
  // negative id counter or peak, which no run writes.
  GridWanModel wan(2, 100.0, 200.0);
  std::vector<long long> egress(2, 0), ingress(2, 0);
  for (int k = 0; k < 2; ++k) {
    const int flow = wan.admit(0.0, {make_pool(Link::kUplink, 0, 100.0, 0.0)});
    wan.retire(flow, egress, ingress);
  }
  SnapshotWriter w;
  w(wan);
  const std::string clean = w.bytes();
  const auto bits_of = [](auto value) {
    std::string bits(sizeof value, '\0');
    std::memcpy(bits.data(), &value, sizeof value);
    return bits;
  };
  // With no live flow the checkpoint opens with the cluster count and
  // fairness tags, the empty flow list, the id counter (2) and the peak
  // live count (1).
  const std::string head = bits_of(2) + bits_of(WanFairness::kEqualSplit) +
                           bits_of(std::uint64_t{0}) + bits_of(2) + bits_of(1);
  ASSERT_EQ(clean.compare(0, head.size(), head), 0);
  const std::size_t counter_at = head.size() - 2 * sizeof(int);
  const std::size_t peak_at = head.size() - sizeof(int);
  const auto patched = [&clean, &bits_of](std::size_t at, int value) {
    std::string bytes = clean;
    bytes.replace(at, sizeof value, bits_of(value));
    return bytes;
  };
  const auto restore = [](const std::string& bytes) {
    GridWanModel fresh(2, 100.0, 200.0);
    SnapshotReader r(bytes);
    r(fresh);
    return fresh;
  };
  const int kMax = std::numeric_limits<int>::max();
  GridWanModel last = restore(patched(counter_at, kMax - 1));
  EXPECT_EQ(last.admit(0.0, {make_pool(Link::kUplink, 0, 100.0, 0.0)}),
            kMax - 1);
  EXPECT_THROW(last.admit(0.0, {}), Error);
  GridWanModel exhausted = restore(patched(counter_at, kMax));
  EXPECT_THROW(exhausted.admit(0.0, {}), Error);
  EXPECT_EQ(exhausted.live_flows(), 0);  // the refusal admitted nothing
  for (const std::size_t at : {counter_at, peak_at}) {
    try {
      restore(patched(at, -1));
      ADD_FAILURE() << "a negative counter at offset " << at
                    << " was restored";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("negative counter"),
                std::string::npos)
          << e.what();
    }
  }
}

// --- Service level ------------------------------------------------------

/// Mixed wide/filler workload on the 4-site grid: 68- and 132-proc jobs
/// span 2-3 clusters (flat trees, so every remote domain ships its R
/// factor across the WAN), while single-cluster fillers fragment the
/// node pool — the state in which concurrent WAN phases genuinely
/// overlap on shared uplinks. Nodes-exclusive majorities make that
/// impossible on a 2-site grid, which is exactly why the contention
/// engine needs wide grids to bite.
simgrid::GridTopology wide_grid() {
  return simgrid::GridTopology::grid5000(4, 32, 2);
}

std::vector<Job> overlapping_wide_jobs() {
  WorkloadSpec spec;
  spec.jobs = 24;
  spec.mean_interarrival_s = 0.4;
  spec.m_choices = {1 << 17, 1 << 18};
  spec.n_choices = {256, 512};
  spec.procs_choices = {24, 48, 68, 132};
  spec.tree_choices = {core::TreeKind::kFlat};
  spec.seed = 53;
  return generate_workload(spec);
}

ServiceOptions thin_wan_options(bool contention) {
  ServiceOptions options;
  options.wan_contention = contention;
  options.wan_link_Bps = 0.02e9 / 8.0;  // 20 Mb/s: the WAN phase matters
  return options;
}

ServiceOptions thin_maxmin_options(bool contention) {
  ServiceOptions options = thin_wan_options(contention);
  options.wan_fairness = WanFairness::kMaxMin;
  return options;
}

TEST(WanService, ConservationUnderConcurrency) {
  GridJobService service(wide_grid(), model::paper_calibration(),
                         thin_wan_options(true));
  const ServiceReport report = service.run(overlapping_wide_jobs());
  ASSERT_EQ(report.completed_jobs, 24);
  EXPECT_GT(sum(report.wan_egress_bytes), 0);
  EXPECT_EQ(sum(report.wan_egress_bytes), sum(report.wan_ingress_bytes));

  // The contention-free service conserves too. (Cross-run byte identity
  // is NOT expected here: stretched finish times shift later dispatch
  // decisions, so the two runs legitimately choose different placements
  // with different WAN footprints — the serial-workload test below pins
  // the case where the schedules must coincide.)
  GridJobService isolated(wide_grid(), model::paper_calibration(),
                          thin_wan_options(false));
  const ServiceReport off = isolated.run(overlapping_wide_jobs());
  EXPECT_EQ(sum(off.wan_egress_bytes), sum(off.wan_ingress_bytes));
  EXPECT_GT(sum(off.wan_egress_bytes), 0);
}

TEST(WanService, ContendedRuntimesAreMonotoneAndStretchUnderLoad) {
  GridJobService service(wide_grid(), model::paper_calibration(),
                         thin_wan_options(true));
  const ServiceReport contended = service.run(overlapping_wide_jobs());
  GridJobService isolated(wide_grid(), model::paper_calibration(),
                          thin_wan_options(false));
  const ServiceReport alone = isolated.run(overlapping_wide_jobs());

  // The acceptance gate: a shared WAN can only ever stretch a job.
  for (const JobOutcome& o : contended.outcomes) {
    ASSERT_TRUE(o.completed());
    EXPECT_GE(o.wan_slowdown, 1.0 - 1e-9) << "job " << o.job.id;
  }
  EXPECT_GT(contended.max_wan_slowdown, 1.0);  // overlap really happened
  EXPECT_GE(contended.makespan_s, alone.makespan_s * (1.0 - 1e-12));
  EXPECT_GT(max_wan_busy_fraction(contended), 0.0);
  // The contention-free run reports neutral WAN columns.
  EXPECT_EQ(alone.mean_wan_slowdown, 1.0);
  EXPECT_EQ(max_wan_busy_fraction(alone), 0.0);
}

TEST(WanService, ZeroContentionReproducesCachedReplayTimes) {
  // Serial workload (gaps dwarf every runtime): with nothing overlapping,
  // the contention engine must reproduce the PR-2 service exactly — an
  // isolated flow drains no later than its replay end by construction.
  std::vector<Job> jobs;
  for (int i = 0; i < 5; ++i) {
    jobs.push_back(make_job(i, 1e5 * i, 1 << 18, 128, 8));
  }
  for (const Policy policy :
       {Policy::kFcfs, Policy::kSpjf, Policy::kEasyBackfill}) {
    ServiceOptions on;
    on.policy = policy;
    on.wan_contention = true;
    ServiceOptions off = on;
    off.wan_contention = false;
    const ServiceReport a =
        GridJobService(small_grid(), model::paper_calibration(), on)
            .run(jobs);
    const ServiceReport b =
        GridJobService(small_grid(), model::paper_calibration(), off)
            .run(jobs);
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
      EXPECT_EQ(a.outcomes[i].start_s, b.outcomes[i].start_s);
      EXPECT_EQ(a.outcomes[i].finish_s, b.outcomes[i].finish_s);
      EXPECT_EQ(a.outcomes[i].wan_slowdown, 1.0);
    }
    EXPECT_EQ(a.wan_egress_bytes, b.wan_egress_bytes);
    // Summary rows agree on every column except the busy fractions (the
    // links WERE occupied by the serial flows, one at a time) — located
    // by header name so appended columns never silently shift the skip.
    const std::vector<std::string> header = summary_header();
    const auto busy_at = static_cast<std::ptrdiff_t>(
        std::find(header.begin(), header.end(), "wan busy %") -
        header.begin());
    ASSERT_LT(busy_at, static_cast<std::ptrdiff_t>(header.size()));
    std::vector<std::string> row_on = summary_row(a);
    std::vector<std::string> row_off = summary_row(b);
    row_on.erase(row_on.begin() + busy_at);
    row_off.erase(row_off.begin() + busy_at);
    EXPECT_EQ(row_on, row_off) << policy_name(policy);
  }
}

TEST(WanService, AwarePlacementRequiresContention) {
  // Network-aware placement steers around the shared-WAN model's flows:
  // without the model the service refuses it, as the CLI does.
  ServiceOptions options;
  options.wan_aware = true;
  EXPECT_THROW(
      { GridJobService service(small_grid(), model::paper_calibration(),
                               options); },
      Error);
  options.wan_contention = true;
  EXPECT_NO_THROW(
      { GridJobService service(small_grid(), model::paper_calibration(),
                               options); });
}

TEST(WanService, DeterministicUnderContention) {
  WorkloadSpec spec;
  spec.jobs = 40;
  spec.procs_choices = {4, 8};
  spec.mean_interarrival_s = 0.1;
  spec.seed = 47;
  ServiceOptions options = thin_wan_options(true);
  options.policy = Policy::kEasyBackfill;
  options.wan_aware = true;
  GridJobService first(small_grid(), model::paper_calibration(), options);
  GridJobService second(small_grid(), model::paper_calibration(), options);
  const std::vector<std::string> a = summary_row(first.run(generate_workload(spec)));
  const std::vector<std::string> b =
      summary_row(second.run(generate_workload(spec)));
  EXPECT_EQ(a, b);
  // And the same service replaying the workload must not drift (the WAN
  // model is rebuilt per run, like the outage trace).
  const std::vector<std::string> c =
      summary_row(first.run(generate_workload(spec)));
  EXPECT_EQ(a, c);
}

// The PR-old acceptance gates re-run against the incremental max-min
// path: same physics, new maintenance. Conservation, monotonicity,
// zero-contention identity, and determinism must survive the rewrite.

TEST(WanServiceMaxMin, ConservationUnderConcurrency) {
  GridJobService service(wide_grid(), model::paper_calibration(),
                         thin_maxmin_options(true));
  const ServiceReport report = service.run(overlapping_wide_jobs());
  ASSERT_EQ(report.completed_jobs, 24);
  EXPECT_GT(sum(report.wan_egress_bytes), 0);
  EXPECT_EQ(sum(report.wan_egress_bytes), sum(report.wan_ingress_bytes));
}

TEST(WanServiceMaxMin, ContendedRuntimesAreMonotoneAndStretchUnderLoad) {
  GridJobService service(wide_grid(), model::paper_calibration(),
                         thin_maxmin_options(true));
  const ServiceReport contended = service.run(overlapping_wide_jobs());
  GridJobService isolated(wide_grid(), model::paper_calibration(),
                          thin_maxmin_options(false));
  const ServiceReport alone = isolated.run(overlapping_wide_jobs());
  for (const JobOutcome& o : contended.outcomes) {
    ASSERT_TRUE(o.completed());
    EXPECT_GE(o.wan_slowdown, 1.0 - 1e-9) << "job " << o.job.id;
  }
  EXPECT_GT(contended.max_wan_slowdown, 1.0);  // overlap really happened
  EXPECT_GE(contended.makespan_s, alone.makespan_s * (1.0 - 1e-12));
  EXPECT_GT(max_wan_busy_fraction(contended), 0.0);
}

TEST(WanServiceMaxMin, ZeroContentionReproducesCachedReplayTimes) {
  // Serial workload: with nothing overlapping, progressive filling gives
  // every lone flow its full link rate, so the incremental max-min
  // service must reproduce the contention-free times exactly.
  std::vector<Job> jobs;
  for (int i = 0; i < 5; ++i) {
    jobs.push_back(make_job(i, 1e5 * i, 1 << 18, 128, 8));
  }
  ServiceOptions on;
  on.wan_contention = true;
  on.wan_fairness = WanFairness::kMaxMin;
  ServiceOptions off;
  off.wan_contention = false;
  const ServiceReport a =
      GridJobService(small_grid(), model::paper_calibration(), on).run(jobs);
  const ServiceReport b =
      GridJobService(small_grid(), model::paper_calibration(), off)
          .run(jobs);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].start_s, b.outcomes[i].start_s);
    EXPECT_EQ(a.outcomes[i].finish_s, b.outcomes[i].finish_s);
    EXPECT_EQ(a.outcomes[i].wan_slowdown, 1.0);
  }
  EXPECT_EQ(a.wan_egress_bytes, b.wan_egress_bytes);
}

TEST(WanServiceMaxMin, DeterministicUnderContention) {
  WorkloadSpec spec;
  spec.jobs = 40;
  spec.procs_choices = {4, 8};
  spec.mean_interarrival_s = 0.1;
  spec.seed = 47;
  ServiceOptions options = thin_maxmin_options(true);
  options.policy = Policy::kEasyBackfill;
  options.wan_aware = true;
  GridJobService first(small_grid(), model::paper_calibration(), options);
  GridJobService second(small_grid(), model::paper_calibration(), options);
  const std::vector<std::string> a =
      summary_row(first.run(generate_workload(spec)));
  const std::vector<std::string> b =
      summary_row(second.run(generate_workload(spec)));
  EXPECT_EQ(a, b);
  const std::vector<std::string> c =
      summary_row(first.run(generate_workload(spec)));
  EXPECT_EQ(a, c);
}

TEST(WanService, NetworkAwarePlacementPrefersIdleUplinks) {
  // 4 sites x 16 nodes x 2 procs. A wide job pins WAN flows on sites
  // {0,1}; two single-cluster fillers occupy sites 2 and 3 but move no
  // WAN bytes; a second wide job then fits either {0,1} (naive first-fit
  // from site 0) or {2,3} (idle uplinks). Network-aware dispatch must
  // pick the idle pair.
  simgrid::GridTopology topo = simgrid::GridTopology::grid5000(4, 16, 2);
  std::vector<Job> jobs;
  jobs.push_back(make_job(0, 0.0, 1 << 22, 64, 34));   // wide, long: {0,1}
  jobs.push_back(make_job(1, 0.1, 1 << 20, 64, 18));   // filler: site 2
  jobs.push_back(make_job(2, 0.2, 1 << 20, 64, 18));   // filler: site 3
  jobs.push_back(make_job(3, 0.3, 1 << 17, 64, 26));   // wide: the choice

  ServiceOptions naive;
  naive.wan_contention = true;
  const ServiceReport plain =
      GridJobService(topo, model::paper_calibration(), naive).run(jobs);
  ServiceOptions aware = naive;
  aware.wan_aware = true;
  const ServiceReport steered =
      GridJobService(topo, model::paper_calibration(), aware).run(jobs);

  ASSERT_EQ(plain.outcomes[3].clusters, (std::vector<int>{0, 1}));
  ASSERT_EQ(steered.outcomes[3].clusters, (std::vector<int>{2, 3}));
  // Same feasibility, same grid: steering away from busy uplinks can
  // only help the makespan.
  EXPECT_LE(steered.makespan_s, plain.makespan_s * (1.0 + 1e-12));
}

}  // namespace
}  // namespace qrgrid::sched
