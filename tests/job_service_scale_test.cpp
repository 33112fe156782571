// Steady-state scale invariants of the indexed dispatch path: static-key
// policies pay ZERO queue resyncs across a compressed 10k-job stream
// (the counter the incremental-order rewrite exists to zero out), the
// fair-share resync stays incremental (bounded reinserts, not full-queue
// resorts), the WAN flow table reclaims retired flows (live_flows
// bounded by concurrency, not by total flows admitted), the bounded
// backfill scan honors its depth, placements track free-state changes
// rather than queue depth, and — the regression that motivated the
// queue rewrite — jobs ARRIVING mid-run under fair-share insert against
// fresh deficit keys instead of a stale-sorted range.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "sched/policy.hpp"
#include "sched/profiler.hpp"
#include "sched/service.hpp"
#include "sched/telemetry.hpp"
#include "sched/wan.hpp"
#include "sched/workload.hpp"
#include "simgrid/topology.hpp"

namespace qrgrid::sched {
namespace {

/// Compressed stand-in for the million-job scenario: few distinct shapes
/// (replay warm-up stays trivial) and an arrival rate that keeps a
/// persistent backlog, so the run spends its time in the dispatch hot
/// path — the code under test — rather than in the cost model.
WorkloadSpec scale_spec(int jobs, int users) {
  WorkloadSpec spec;
  spec.jobs = jobs;
  spec.users = users;
  spec.mean_interarrival_s = 0.33;
  spec.m_choices = {1 << 17};
  spec.n_choices = {64};
  spec.procs_choices = {16, 32, 64, 128, 256};
  spec.seed = 404;
  return spec;
}

simgrid::GridTopology paper_grid() {
  return simgrid::GridTopology::grid5000(4, 32, 2);
}

ServiceReport run_with(Policy policy, const std::vector<Job>& jobs,
                       MetricsRegistry* metrics, int backfill_depth = 0,
                       bool wan = false) {
  ServiceOptions options;
  options.policy = policy;
  options.metrics = metrics;
  options.backfill_depth = backfill_depth;
  options.wan_contention = wan;
  GridJobService service(paper_grid(), model::paper_calibration(), options);
  return service.run(jobs);
}

TEST(ScaleDispatch, StaticKeyPoliciesNeverResync) {
  const std::vector<Job> jobs = generate_workload(scale_spec(10000, 1000));
  for (const Policy policy :
       {Policy::kFcfs, Policy::kSpjf, Policy::kEasyBackfill}) {
    MetricsRegistry metrics;
    const ServiceReport report = run_with(policy, jobs, &metrics);
    EXPECT_EQ(report.completed_jobs + report.failed_jobs, 10000)
        << policy_name(policy);
    // The headline invariant of the multiset queue: static comparator
    // keys never dirty, so ten thousand dispatches run zero resyncs.
    EXPECT_EQ(metrics.counter("policy.resorts"), 0) << policy_name(policy);
    EXPECT_EQ(metrics.counter("policy.resort_reinserts"), 0)
        << policy_name(policy);
  }
}

TEST(ScaleDispatch, FairShareResyncsIncrementallyNotFully) {
  const std::vector<Job> jobs = generate_workload(scale_spec(10000, 1000));
  MetricsRegistry metrics;
  const ServiceReport report = run_with(Policy::kFairShare, jobs, &metrics);
  EXPECT_EQ(report.completed_jobs + report.failed_jobs, 10000);
  // Dynamic keys DO dirty — every started attempt moves one user's
  // deficit — so resync passes run...
  EXPECT_GT(metrics.counter("policy.resorts"), 0);
  // ...but each pass touches only the charged user's queued jobs. A full
  // resort would reinsert the whole backlog every pass; the incremental
  // bound is total reinserts <= (passes) x (largest per-user backlog),
  // which with 1000 users over 10k jobs sits orders of magnitude below
  // the full-resort cost of passes x queue depth. Gate on the loose but
  // regression-proof form: mean reinserts per pass stays below 1% of the
  // stream (a full-queue resorter blows through this immediately at any
  // realistic backlog).
  const double per_pass =
      static_cast<double>(metrics.counter("policy.resort_reinserts")) /
      static_cast<double>(metrics.counter("policy.resorts"));
  EXPECT_LT(per_pass, 100.0);
}

TEST(ScaleDispatch, BackfillDepthBoundsTheScan) {
  const std::vector<Job> jobs = generate_workload(scale_spec(4000, 100));
  constexpr int kDepth = 4;
  MetricsRegistry metrics;
  const ServiceReport report =
      run_with(Policy::kEasyBackfill, jobs, &metrics, kDepth);
  EXPECT_EQ(report.completed_jobs + report.failed_jobs, 4000);
  // Each dispatch that reaches the backfill pass computes one shadow and
  // examines at most kDepth candidates behind the reserved head.
  EXPECT_LE(metrics.counter("dispatch.backfill_scans"),
            kDepth * metrics.counter("dispatch.shadow_computations"));
  EXPECT_GT(report.backfilled_jobs, 0);
}

TEST(ScaleDispatch, PlacementsTrackStartsNotQueueDepth) {
  // A burst backlog of one matrix shape under an unbounded EASY scan.
  // Thousands of candidates pass the O(1) precheck behind each blocked
  // head, but a placement depends only on procs and the free state, and
  // the free state moves only between dispatch passes and at starts. So
  // at most one placement is computed per procs size per free state,
  // however deep the backlog the scan walks.
  WorkloadSpec spec = scale_spec(2000, 1);
  spec.mean_interarrival_s = 0.001;
  MetricsRegistry metrics;
  PhaseProfiler profiler;
  ServiceOptions options;
  options.policy = Policy::kEasyBackfill;
  options.metrics = &metrics;
  options.profiler = &profiler;
  GridJobService service(paper_grid(), model::paper_calibration(), options);
  const ServiceReport report = service.run(generate_workload(spec));
  EXPECT_EQ(report.completed_jobs, 2000);
  const long long starts = metrics.counter("policy.attempt_starts");
  const long long free_states =
      profiler.calls(ProfilePhase::kDispatchScan) + starts;
  const auto sizes = static_cast<long long>(spec.procs_choices.size());
  EXPECT_LE(profiler.calls(ProfilePhase::kPlace), sizes * free_states);
  // The bound sits far below the scan's work: without the placement
  // memo, every scanned candidate that passes the precheck places anew.
  EXPECT_GT(metrics.counter("dispatch.backfill_scans"),
            10 * sizes * free_states);
}

TEST(ScaleWan, LiveFlowTableReclaimsRetiredFlows) {
  // Every dispatched job admits a flow and every terminal retires it:
  // after thousands of admissions the LIVE set must track concurrency
  // (bounded by what 128 nodes can co-run), not history.
  WorkloadSpec spec = scale_spec(2000, 50);
  const std::vector<Job> jobs = generate_workload(spec);
  MetricsRegistry metrics;
  const ServiceReport report = run_with(Policy::kEasyBackfill, jobs, &metrics,
                                        /*backfill_depth=*/0, /*wan=*/true);
  EXPECT_EQ(report.completed_jobs + report.failed_jobs, 2000);
  const double peak = metrics.gauge("wan.live_flows.peak");
  EXPECT_GT(peak, 0.0);
  EXPECT_LE(peak, 128.0);  // concurrency-bounded, nowhere near 2000
  const auto* series = metrics.series("wan.live_flows");
  ASSERT_NE(series, nullptr);
  ASSERT_FALSE(series->empty());
  // Drained at the end: retire() erased every flow from the table.
  EXPECT_DOUBLE_EQ(series->back().second, 0.0);
}

// ------------------------------------------- incremental max-min at scale
// The scale lane's stake in the WAN rewrite: thousands of structural
// events through the incremental engine with the global fill shadowing
// every component rebalance (the `ctest -L scale` oracle-equality gate),
// and the service-level counter surface staying coherent under a real
// contended stream.

TEST(ScaleWan, IncrementalMaintenanceMatchesOracleUnderHeavyChurn) {
  // High-volume model-level churn: ~4000 structural ops, with
  // mixed immediate/deferred activations, mid-interval advances, and
  // mid-flight retirements. The armed oracle recomputes the global fill
  // at EVERY component rebalance and records the worst rate divergence;
  // the incremental path is the same arithmetic over the same demand
  // order, so the divergence must be exactly zero (1e-12 is the
  // acceptance bound, zero is what construction promises).
  using Pool = GridWanModel::Pool;
  using Link = GridWanModel::Pool::Link;
  GridWanModel wan(4, 100.0, 250.0, WanFairness::kMaxMin);
  wan.set_rate_oracle_check(true);
  std::mt19937 rng(807u);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<int> live;
  std::vector<long long> egress(4, 0), ingress(4, 0);
  std::vector<double> estimates;
  double now = 0.0;
  for (int op = 0; op < 4000; ++op) {
    const double roll = unit(rng);
    if (roll < 0.4 || live.empty()) {
      std::vector<Pool> pools;
      const int count = 1 + static_cast<int>(unit(rng) * 3.0);
      for (int p = 0; p < count; ++p) {
        Pool pool;
        if (unit(rng) < 0.55) {
          pool.link = Link::kUplink;
          pool.cluster = static_cast<int>(unit(rng) * 4.0);
        } else {
          pool.link = Link::kDownlink;
          pool.cluster = static_cast<int>(unit(rng) * 4.0);
        }
        pool.bytes = 1.0 + std::floor(unit(rng) * 1e6);
        pool.activation_s =
            now + (unit(rng) < 0.5 ? 0.0 : unit(rng) * 3.0);
        pools.push_back(pool);
      }
      live.push_back(wan.admit(now, std::move(pools)));
    } else if (roll < 0.55) {
      const auto pick = static_cast<std::size_t>(unit(rng) * live.size());
      wan.retire(live[pick], egress, ingress);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (roll < 0.65) {
      wan.drain_estimates_s(now, live, estimates);
    } else {
      const double next = wan.next_event_s(now);
      const double to =
          std::isfinite(next)
              ? (unit(rng) < 0.5 ? next : now + (next - now) * unit(rng))
              : now + 1.0;
      wan.advance(now, to);
      now = to;
    }
  }
  EXPECT_GT(wan.rebalance_events(), 1000u);
  EXPECT_GT(wan.rebalance_recomputes(), 0u);
  EXPECT_LE(wan.rebalance_recomputes(), wan.rebalance_events());
  EXPECT_LE(wan.rebalance_full_refills(), wan.rebalance_recomputes());
  EXPECT_EQ(wan.max_oracle_rate_error(), 0.0);
}

TEST(ScaleWan, RebalanceCountersStayCoherentUnderContendedStream) {
  // Service-level counter surface: a compressed contended stream (wide
  // flat-tree jobs straddling 64-proc cluster boundaries on thin
  // uplinks) must record structural events, coalesce them (recomputes
  // strictly below events), and export the same numbers through the
  // metrics gauges the bench gates on — under both fairness rules, which
  // share the one incremental engine.
  WorkloadSpec spec;
  spec.jobs = 300;
  spec.users = 20;
  spec.mean_interarrival_s = 0.33;
  spec.m_choices = {1 << 17, 1 << 18};
  spec.n_choices = {256, 512};
  spec.procs_choices = {24, 48, 68, 132};
  spec.tree_choices = {core::TreeKind::kFlat};
  spec.seed = 404;
  const std::vector<Job> jobs = generate_workload(spec);
  for (const WanFairness fairness :
       {WanFairness::kEqualSplit, WanFairness::kMaxMin}) {
    ServiceOptions options;
    options.policy = Policy::kEasyBackfill;
    options.backfill_depth = 64;
    options.wan_contention = true;
    options.wan_fairness = fairness;
    options.wan_link_Bps = 0.05e9 / 8.0;
    MetricsRegistry metrics;
    options.metrics = &metrics;
    GridJobService service(paper_grid(), model::paper_calibration(),
                           options);
    const ServiceReport report = service.run(jobs);
    const std::string rule = wan_fairness_name(fairness);
    EXPECT_EQ(report.completed_jobs + report.failed_jobs, 300) << rule;
    EXPECT_GT(report.max_wan_slowdown, 1.0) << rule;  // really contends
    const double events = metrics.gauge("wan.rebalance.events");
    const double recomputes = metrics.gauge("wan.rebalance.recomputes");
    const double links = metrics.gauge("wan.rebalance.links_touched");
    const double full = metrics.gauge("wan.rebalance.full_refills");
    EXPECT_GT(events, 0.0) << rule;
    EXPECT_GT(recomputes, 0.0) << rule;
    EXPECT_LT(recomputes, events) << rule;  // same-instant events coalesce
    EXPECT_GE(links, recomputes) << rule;   // each recompute touches >= 1
    EXPECT_LE(full, recomputes) << rule;    // a full refill is a recompute
  }
}

// ---------------------------------------------------------- regression
// The queue bug the rewrite fixed: push() positioned an arriving job by
// binary search over a range whose keys had moved since the last sort —
// UB for dynamic policies. The multiset queue resyncs before inserting,
// so an arrival right after a fair-share charge lands by FRESH deficits.

TEST(FairShareArrivals, PushAfterChargeInsertsAgainstFreshDeficits) {
  FairSharePolicy policy;
  JobQueue queue(&policy);
  Job a;
  a.id = 0, a.arrival_s = 0.0, a.m = 1 << 17, a.n = 64, a.procs = 4;
  a.user = 0;
  Job b = a;
  b.id = 1, b.arrival_s = 1.0, b.user = 1;
  queue.push(a, 10.0);
  queue.push(b, 10.0);
  EXPECT_EQ(queue.front().id, 0);  // equal deficits: arrival order
  // Charge user 0 (its queued job's key is now stale), then push another
  // user-0 job WITHOUT an intervening resort: the insert must see the
  // charged deficit, and the charged user's existing entry must have
  // moved behind the uncharged user too.
  policy.on_attempt_start(a, 100.0);
  Job c = a;
  c.id = 2, c.arrival_s = 2.0;
  queue.push(c, 10.0);
  EXPECT_EQ(queue.pop_front().id, 1);  // user 1: zero deficit, first out
  EXPECT_EQ(queue.pop_front().id, 0);  // user 0 by arrival among equals
  EXPECT_EQ(queue.pop_front().id, 2);
  EXPECT_TRUE(queue.empty());
}

TEST(FairShareArrivals, MidRunArrivalsStayDeterministicAndConserved) {
  // Service-level shape of the same bug: a trickle of arrivals lands
  // while earlier attempts keep dirtying the fair-share keys. The run
  // must conserve jobs, keep per-user accounting sane, and be exactly
  // repeatable (the old UB made this roll of the dice).
  WorkloadSpec spec = scale_spec(400, 7);
  spec.mean_interarrival_s = 2.0;  // arrivals interleave with dispatches
  const std::vector<Job> jobs = generate_workload(spec);
  const ServiceReport first = run_with(Policy::kFairShare, jobs, nullptr);
  const ServiceReport second = run_with(Policy::kFairShare, jobs, nullptr);
  EXPECT_EQ(first.completed_jobs + first.failed_jobs, 400);
  ASSERT_EQ(first.outcomes.size(), second.outcomes.size());
  for (std::size_t i = 0; i < first.outcomes.size(); ++i) {
    EXPECT_EQ(first.outcomes[i].job.id, second.outcomes[i].job.id);
    EXPECT_EQ(first.outcomes[i].start_s, second.outcomes[i].start_s);
    EXPECT_EQ(first.outcomes[i].finish_s, second.outcomes[i].finish_s);
  }
}

}  // namespace
}  // namespace qrgrid::sched
