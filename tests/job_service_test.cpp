#include "sched/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "sched/outage.hpp"
#include "sched/telemetry.hpp"
#include "sched/workload.hpp"
#include "simgrid/des.hpp"

namespace qrgrid::sched {
namespace {

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

TEST(Workload, DeterministicAndOrdered) {
  WorkloadSpec spec;
  spec.jobs = 64;
  spec.seed = 99;
  const std::vector<Job> a = generate_workload(spec);
  const std::vector<Job> b = generate_workload(spec);
  ASSERT_EQ(a.size(), 64u);
  double prev = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, static_cast<int>(i));
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
    EXPECT_EQ(a[i].m, b[i].m);
    EXPECT_EQ(a[i].n, b[i].n);
    EXPECT_EQ(a[i].procs, b[i].procs);
    EXPECT_EQ(a[i].priority, b[i].priority);
    EXPECT_GE(a[i].arrival_s, prev);
    prev = a[i].arrival_s;
  }
}

TEST(Workload, DifferentSeedsDiffer) {
  WorkloadSpec spec;
  spec.jobs = 32;
  spec.seed = 1;
  WorkloadSpec other = spec;
  other.seed = 2;
  const std::vector<Job> a = generate_workload(spec);
  const std::vector<Job> b = generate_workload(other);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_difference |= a[i].arrival_s != b[i].arrival_s ||
                      a[i].m != b[i].m || a[i].procs != b[i].procs;
  }
  EXPECT_TRUE(any_difference);
}

TEST(JobQueue, FcfsOrdersByPriorityThenArrival) {
  const auto policy = make_policy(Policy::kFcfs);
  JobQueue queue(policy.get());
  Job late = make_job(2, 5.0, 1 << 17, 64, 4);
  Job early = make_job(1, 1.0, 1 << 17, 64, 4);
  Job urgent = make_job(3, 9.0, 1 << 17, 64, 4);
  urgent.priority = 1;
  queue.push(late, 10.0);
  queue.push(early, 10.0);
  queue.push(urgent, 10.0);
  EXPECT_EQ(queue.pop_front().id, 3);  // higher priority wins
  EXPECT_EQ(queue.pop_front().id, 1);  // then earlier arrival
  EXPECT_EQ(queue.pop_front().id, 2);
  EXPECT_TRUE(queue.empty());
}

TEST(JobQueue, SpjfOrdersByPredictedRuntime) {
  const auto policy = make_policy(Policy::kSpjf);
  JobQueue queue(policy.get());
  queue.push(make_job(1, 0.0, 1 << 20, 64, 4), 30.0);
  queue.push(make_job(2, 1.0, 1 << 17, 64, 4), 3.0);
  queue.push(make_job(3, 2.0, 1 << 18, 64, 4), 7.0);
  EXPECT_EQ(queue.pop_front().id, 2);
  EXPECT_EQ(queue.pop_front().id, 3);
  EXPECT_EQ(queue.pop_front().id, 1);
}

TEST(DesEngine, PerClusterWanByteCounters) {
  simgrid::GridTopology topo = small_grid();
  simgrid::DesEngine engine(&topo, model::paper_calibration());
  const int remote = topo.cluster_rank_base(1);
  engine.p2p(0, remote, 1000);   // cluster 0 -> cluster 1
  engine.p2p(remote, 0, 250);    // cluster 1 -> cluster 0
  engine.p2p(0, 1, 4096);        // intra-node: must not touch WAN counters
  EXPECT_EQ(engine.wan_egress_bytes(0), 1000);
  EXPECT_EQ(engine.wan_ingress_bytes(1), 1000);
  EXPECT_EQ(engine.wan_egress_bytes(1), 250);
  EXPECT_EQ(engine.wan_ingress_bytes(0), 250);
  // Every WAN byte leaves one site and enters another.
  EXPECT_EQ(engine.wan_egress_bytes(0) + engine.wan_egress_bytes(1),
            engine.wan_ingress_bytes(0) + engine.wan_ingress_bytes(1));
  EXPECT_EQ(engine.bytes_of(msg::LinkClass::kInterCluster), 1250);
}

TEST(GridJobService, RunsEveryJobExactlyOnce) {
  WorkloadSpec spec;
  spec.jobs = 40;
  spec.procs_choices = {2, 4, 8};
  spec.seed = 7;
  GridJobService service(small_grid(), model::paper_calibration());
  const ServiceReport report = service.run(generate_workload(spec));
  ASSERT_EQ(report.outcomes.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    const JobOutcome& o = report.outcomes[static_cast<std::size_t>(i)];
    EXPECT_EQ(o.job.id, i);
    EXPECT_GE(o.start_s, o.job.arrival_s);
    EXPECT_DOUBLE_EQ(o.finish_s, o.start_s + o.service_s);
    EXPECT_GT(o.service_s, 0.0);
    EXPECT_GT(o.nodes, 0);
    EXPECT_FALSE(o.clusters.empty());
  }
  EXPECT_GT(report.makespan_s, 0.0);
  EXPECT_GT(report.utilization, 0.0);
  EXPECT_LE(report.utilization, 1.0);
  EXPECT_GT(report.throughput_jobs_per_hour, 0.0);
}

TEST(GridJobService, DeterministicAcrossRuns) {
  WorkloadSpec spec;
  spec.jobs = 60;
  spec.procs_choices = {2, 4, 8};
  spec.seed = 11;
  ServiceOptions options;
  options.policy = Policy::kEasyBackfill;
  GridJobService first(small_grid(), model::paper_calibration(), options);
  GridJobService second(small_grid(), model::paper_calibration(), options);
  const ServiceReport a = first.run(generate_workload(spec));
  const ServiceReport b = second.run(generate_workload(spec));
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].start_s, b.outcomes[i].start_s);
    EXPECT_EQ(a.outcomes[i].finish_s, b.outcomes[i].finish_s);
    EXPECT_EQ(a.outcomes[i].clusters, b.outcomes[i].clusters);
    EXPECT_EQ(a.outcomes[i].backfilled, b.outcomes[i].backfilled);
  }
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.mean_wait_s, b.mean_wait_s);
  EXPECT_EQ(a.wan_egress_bytes, b.wan_egress_bytes);
}

TEST(GridJobService, FcfsStartsInArrivalOrder) {
  WorkloadSpec spec;
  spec.jobs = 30;
  spec.procs_choices = {4, 8};
  spec.seed = 13;
  GridJobService service(small_grid(), model::paper_calibration());
  const ServiceReport report = service.run(generate_workload(spec));
  for (std::size_t i = 1; i < report.outcomes.size(); ++i) {
    // Same priority everywhere: a later arrival must not start earlier.
    EXPECT_LE(report.outcomes[i - 1].start_s, report.outcomes[i].start_s);
  }
  EXPECT_EQ(report.backfilled_jobs, 0);
}

TEST(GridJobService, SpjfRunsShortJobFirstUnderContention) {
  // Occupy the whole grid, then queue a long and a short job; SPJF must
  // start the short one first even though it arrived later.
  std::vector<Job> jobs;
  jobs.push_back(make_job(0, 0.0, 1 << 20, 64, 8));   // fills the grid
  jobs.push_back(make_job(1, 1.0, 1 << 21, 128, 8));  // long, earlier
  jobs.push_back(make_job(2, 2.0, 1 << 17, 64, 8));   // short, later
  ServiceOptions options;
  options.policy = Policy::kSpjf;
  GridJobService service(small_grid(), model::paper_calibration(), options);
  const ServiceReport report = service.run(jobs);
  EXPECT_LT(report.outcomes[2].start_s, report.outcomes[1].start_s);
}

TEST(GridJobService, EasyBackfillsWithoutDelayingTheHead) {
  // A long job holds cluster 0, a whole-grid job blocks at the head, and
  // a small short job sits behind it: EASY slides the small job into the
  // free cluster-1 hole the head cannot use.
  std::vector<Job> jobs;
  jobs.push_back(make_job(0, 0.0, 1 << 21, 64, 4));   // fills cluster 0
  jobs.push_back(make_job(1, 1.0, 1 << 21, 64, 8));   // head, needs all
  jobs.push_back(make_job(2, 2.0, 1 << 17, 64, 2));   // backfill candidate
  model::Roofline roof = model::paper_calibration();

  ServiceOptions fcfs;
  fcfs.policy = Policy::kFcfs;
  const ServiceReport serial =
      GridJobService(small_grid(), roof, fcfs).run(jobs);

  ServiceOptions easy;
  easy.policy = Policy::kEasyBackfill;
  const ServiceReport filled =
      GridJobService(small_grid(), roof, easy).run(jobs);

  EXPECT_EQ(filled.backfilled_jobs, 1);
  EXPECT_TRUE(filled.outcomes[2].backfilled);
  // The reservation guarantee: the blocked head starts at the same time it
  // would under plain FCFS.
  EXPECT_DOUBLE_EQ(filled.outcomes[1].start_s, serial.outcomes[1].start_s);
  // And the backfilled job finishes strictly earlier than it did queued.
  EXPECT_LT(filled.outcomes[2].finish_s, serial.outcomes[2].finish_s);
  EXPECT_LT(filled.makespan_s, serial.makespan_s);
}

TEST(GridJobService, EasyBeatsFcfsOnMixedWorkloadMakespan) {
  WorkloadSpec spec;
  spec.jobs = 120;
  spec.mean_interarrival_s = 0.05;
  spec.procs_choices = {2, 4, 8};  // mixes partial- and whole-grid jobs
  spec.seed = 17;
  const std::vector<Job> jobs = generate_workload(spec);
  model::Roofline roof = model::paper_calibration();

  ServiceOptions fcfs;
  fcfs.policy = Policy::kFcfs;
  ServiceOptions easy;
  easy.policy = Policy::kEasyBackfill;
  const ServiceReport a = GridJobService(small_grid(), roof, fcfs).run(jobs);
  const ServiceReport b = GridJobService(small_grid(), roof, easy).run(jobs);
  EXPECT_GT(b.backfilled_jobs, 0);
  EXPECT_LT(b.makespan_s, a.makespan_s);
  EXPECT_LT(b.mean_wait_s, a.mean_wait_s);
}

TEST(GridJobService, WanAccountingBalancesAcrossSites) {
  WorkloadSpec spec;
  spec.jobs = 25;
  spec.procs_choices = {8};  // forces 2-site placements -> WAN traffic
  spec.n_choices = {64};
  spec.seed = 23;
  GridJobService service(small_grid(), model::paper_calibration());
  const ServiceReport report = service.run(generate_workload(spec));
  const long long egress = std::accumulate(report.wan_egress_bytes.begin(),
                                           report.wan_egress_bytes.end(),
                                           0LL);
  const long long ingress = std::accumulate(
      report.wan_ingress_bytes.begin(), report.wan_ingress_bytes.end(), 0LL);
  EXPECT_EQ(egress, ingress);
  EXPECT_GT(egress, 0);
}

TEST(GridJobService, RejectsJobLargerThanTheGrid) {
  GridJobService service(small_grid(), model::paper_calibration());
  std::vector<Job> jobs = {make_job(0, 0.0, 1 << 20, 64, 512)};
  EXPECT_THROW(service.run(jobs), Error);
}

TEST(GridJobService, RefusesRepeatedJobIds) {
  // Progress, blame, the reservation and the trace lifecycle are keyed
  // by Job::id: a repeated id once ran with merged bookkeeping (both
  // its outcomes claimed two attempts). Admission refuses it by name,
  // and so does restore() for the job list a checkpoint carries.
  const simgrid::GridTopology topo = simgrid::GridTopology::grid5000(2, 8, 2);
  const model::Roofline roof = model::paper_calibration();
  ServiceOptions options;
  options.policy = Policy::kEasyBackfill;
  std::vector<Job> jobs = {make_job(7, 0.0, 1 << 18, 32, 8),
                           make_job(7, 0.01, 1 << 17, 32, 4),
                           make_job(2, 0.02, 1 << 16, 32, 4),
                           make_job(3, 0.03, 1 << 16, 32, 2)};
  const auto refusal = [&](std::vector<Job> workload) -> std::string {
    GridJobService service(topo, roof, options);
    try {
      service.start(std::move(workload));
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(refusal(jobs).find("job id 7 appears more than once"),
            std::string::npos)
      << refusal(jobs);
  jobs[1].id = 8;
  EXPECT_EQ(refusal(jobs), "");

  // A checkpoint whose job list repeats an id: ids with distinctive
  // bytes, the second one's first occurrence (its job-list entry)
  // overwritten with the first's.
  constexpr int kFirst = 0x11223344;
  constexpr int kSecond = 0x55667788;
  jobs[0].id = kFirst;
  jobs[1].id = kSecond;
  GridJobService source(topo, roof, options);
  source.start(jobs);
  std::string bytes = source.snapshot();
  std::string first(sizeof(int), '\0');
  std::string second(sizeof(int), '\0');
  std::memcpy(first.data(), &kFirst, sizeof(int));
  std::memcpy(second.data(), &kSecond, sizeof(int));
  const std::size_t at = bytes.find(second);
  ASSERT_NE(at, std::string::npos);
  bytes.replace(at, second.size(), first);
  GridJobService target(topo, roof, options);
  try {
    target.restore(bytes);
    ADD_FAILURE() << "a checkpoint repeating a job id was restored";
  } catch (const Error& e) {
    const std::string named =
        "job id " + std::to_string(kFirst) + " appears more than once";
    EXPECT_NE(std::string(e.what()).find(named), std::string::npos)
        << e.what();
  }
}

TEST(GridJobService, RefusesNonFiniteRowCounts) {
  // m = +inf passes m >= n: admission once took such a job and the run
  // stopped mid-way in "service deadlock". A finite m is part of a
  // well-formed job (check_job, which restore shares).
  const simgrid::GridTopology topo = simgrid::GridTopology::grid5000(2, 8, 2);
  const model::Roofline roof = model::paper_calibration();
  ServiceOptions options;
  options.policy = Policy::kEasyBackfill;
  std::vector<Job> jobs = {
      make_job(0, 0.0, 1 << 16, 32, 4),
      make_job(1, 0.01, std::numeric_limits<double>::infinity(), 32, 4)};
  const auto refusal = [&](bool run) -> std::string {
    GridJobService service(topo, roof, options);
    try {
      if (run) {
        service.run(jobs);
      } else {
        service.start(jobs);
      }
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(refusal(false).find("malformed job 1"), std::string::npos)
      << refusal(false);

  // A finite m whose replay overflows to +inf seconds is admitted, and
  // refused by name when its attempt is priced instead of stalling the
  // loop with no event to advance to.
  jobs[1].m = 1e308;
  EXPECT_EQ(refusal(false), "");
  const std::string priced = refusal(true);
  EXPECT_NE(priced.find("job 1 (1e+308 x 32) prices an attempt of inf s"),
            std::string::npos)
      << priced;
}

TEST(GridJobService, ReplayCacheDistinguishesNearbyShapes) {
  // m values that agree to 6 significant digits must not share a cached
  // replay (the cache key streams doubles at full round-trip precision).
  std::vector<Job> jobs;
  jobs.push_back(make_job(0, 0.0, 4000000, 64, 4));
  jobs.push_back(make_job(1, 1000.0, 4000001, 64, 4));  // no queueing
  GridJobService service(small_grid(), model::paper_calibration());
  const ServiceReport report = service.run(jobs);
  EXPECT_NE(report.outcomes[0].service_s, report.outcomes[1].service_s);
}

TEST(GridJobService, ReplayCacheDistinguishesTreeShapes) {
  // Two jobs identical in every dimension except the reduction tree must
  // not share a cached replay: the tree changes the critical path (flat
  // pays D-1 serialized merges at one root, binary log2 D levels).
  std::vector<Job> jobs;
  jobs.push_back(make_job(0, 0.0, 1 << 19, 256, 8));
  jobs.push_back(make_job(1, 1e6, 1 << 19, 256, 8));  // no queueing
  jobs[0].tree = core::TreeKind::kFlat;
  jobs[1].tree = core::TreeKind::kBinary;
  GridJobService service(small_grid(), model::paper_calibration());
  const ServiceReport report = service.run(jobs);
  ASSERT_EQ(report.outcomes[0].clusters, report.outcomes[1].clusters);
  ASSERT_EQ(report.outcomes[0].nodes_per_cluster,
            report.outcomes[1].nodes_per_cluster);
  EXPECT_NE(report.outcomes[0].service_s, report.outcomes[1].service_s);
}

TEST(GridJobService, WanGbpsReachesEveryReplay) {
  // Regression guard for the PR-3 cache-key fix: services differing only
  // in --wan-gbps must produce different replays for WAN-crossing jobs —
  // the knob reaches DesEngine::set_wan_aggregate_Bps and is part of the
  // cache key, so a shared key would silently reuse the wrong horizon.
  std::vector<Job> jobs = {make_job(0, 0.0, 1 << 19, 512, 8)};
  jobs[0].tree = core::TreeKind::kFlat;  // every R crosses to one root
  ServiceOptions fat;
  fat.wan_link_Bps = 10e9 / 8.0;
  ServiceOptions thin = fat;
  thin.wan_link_Bps = 1e6 / 8.0;  // 1 Mb/s: the aggregate horizon binds
  const ServiceReport a =
      GridJobService(small_grid(), model::paper_calibration(), fat)
          .run(jobs);
  const ServiceReport b =
      GridJobService(small_grid(), model::paper_calibration(), thin)
          .run(jobs);
  ASSERT_EQ(a.outcomes[0].clusters, b.outcomes[0].clusters);
  EXPECT_GT(b.outcomes[0].service_s, a.outcomes[0].service_s);
}

// Property-style invariants that must hold for EVERY policy on seeded
// workloads: exclusive nodes (per-cluster usage never exceeds capacity at
// any instant), EASY's head never starting after its promised shadow
// time, and FCFS starting the head chain in queue order.
TEST(GridJobService, SchedulingInvariantsAcrossPoliciesAndSeeds) {
  for (const sched::Policy policy :
       {Policy::kFcfs, Policy::kSpjf, Policy::kEasyBackfill}) {
    for (const std::uint64_t seed : {3u, 29u, 71u}) {
      WorkloadSpec spec;
      spec.jobs = 40;
      spec.mean_interarrival_s = 0.1;  // contended: queues actually form
      spec.procs_choices = {2, 4, 8};
      spec.seed = seed;
      ServiceOptions options;
      options.policy = policy;
      GridJobService service(small_grid(), model::paper_calibration(),
                             options);
      const ServiceReport report = service.run(generate_workload(spec));
      ASSERT_EQ(report.outcomes.size(), 40u);

      // --- Exclusive nodes: sweep each cluster's (time, +/-nodes) events.
      // Completions free nodes before same-instant starts reuse them, so
      // releases sort first at equal times.
      const simgrid::GridTopology& topo = service.topology();
      std::vector<std::multimap<std::pair<double, int>, int>> events(
          static_cast<std::size_t>(topo.num_clusters()));
      for (const JobOutcome& o : report.outcomes) {
        ASSERT_EQ(o.clusters.size(), o.nodes_per_cluster.size());
        int total = 0;
        for (std::size_t i = 0; i < o.clusters.size(); ++i) {
          auto& lane = events[static_cast<std::size_t>(o.clusters[i])];
          lane.emplace(std::make_pair(o.finish_s, 0), -o.nodes_per_cluster[i]);
          lane.emplace(std::make_pair(o.start_s, 1), o.nodes_per_cluster[i]);
          total += o.nodes_per_cluster[i];
        }
        EXPECT_EQ(total, o.nodes);
      }
      for (int c = 0; c < topo.num_clusters(); ++c) {
        int held = 0;
        for (const auto& [key, delta] : events[static_cast<std::size_t>(c)]) {
          held += delta;
          EXPECT_GE(held, 0) << policy_name(policy) << " seed " << seed;
          EXPECT_LE(held, topo.cluster(c).nodes)
              << policy_name(policy) << " seed " << seed << " cluster " << c
              << " oversubscribed at t=" << key.first;
        }
        EXPECT_EQ(held, 0);
      }

      // --- EASY reservation: a job that ever blocked as head must start
      // no later than the shadow time promised to it.
      if (policy == Policy::kEasyBackfill) {
        for (const JobOutcome& o : report.outcomes) {
          if (std::isinf(o.reserved_start_s)) continue;
          EXPECT_LE(o.start_s, o.reserved_start_s + 1e-9)
              << "job " << o.job.id << " delayed past its reservation";
        }
      }

      // --- FCFS head chain: uniform priority, so starts are monotone in
      // (arrival, id) order — the order outcomes are already sorted in.
      if (policy == Policy::kFcfs) {
        for (std::size_t i = 1; i < report.outcomes.size(); ++i) {
          EXPECT_LE(report.outcomes[i - 1].start_s,
                    report.outcomes[i].start_s)
              << "seed " << seed;
        }
      }
    }
  }
}

// Guards the replay cache and the event-queue tie-breaks: one workload
// seed plus one outage seed must give byte-identical summary rows on two
// independent services, policies and faults included.
TEST(GridJobService, SummaryRowByteIdenticalAcrossRuns) {
  WorkloadSpec spec;
  spec.jobs = 50;
  spec.mean_interarrival_s = 0.1;
  spec.procs_choices = {2, 4, 8};
  spec.seed = 31;
  std::vector<Job> jobs = generate_workload(spec);
  OutageSpec outage_spec;
  outage_spec.mtbf_s = 15.0;
  outage_spec.mean_outage_s = 2.0;
  outage_spec.seed = 77;
  {
    GridJobService predictor(small_grid(), model::paper_calibration());
    assign_walltimes(jobs, 4.0, spec.seed, [&](const Job& j) {
      return predictor.predicted_seconds(j);
    });
  }
  for (const sched::Policy policy :
       {Policy::kFcfs, Policy::kSpjf, Policy::kEasyBackfill}) {
    ServiceOptions options;
    options.policy = policy;
    options.outages = OutageTrace(outage_spec, small_grid().num_clusters());
    options.restart_credit = true;
    GridJobService first(small_grid(), model::paper_calibration(), options);
    GridJobService second(small_grid(), model::paper_calibration(), options);
    const std::vector<std::string> a = summary_row(first.run(jobs));
    const std::vector<std::string> b = summary_row(second.run(jobs));
    EXPECT_EQ(a, b) << policy_name(policy);
    // And the SAME service replaying the workload must not drift either
    // (the options' outage trace is copied per run, never consumed).
    const std::vector<std::string> c = summary_row(first.run(jobs));
    EXPECT_EQ(a, c) << policy_name(policy) << " (service reuse)";
  }
}

TEST(GridJobService, PredictedSecondsGrowWithWork) {
  GridJobService service(small_grid(), model::paper_calibration());
  const Job small_job = make_job(0, 0.0, 1 << 17, 64, 8);
  const Job large_job = make_job(1, 0.0, 1 << 22, 64, 8);
  EXPECT_LT(service.predicted_seconds(small_job),
            service.predicted_seconds(large_job));
}

// ------------------------------------------------------ pinned decisions

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// One pinned run: its service configuration and workload.
struct DecisionCase {
  std::string name;
  simgrid::GridTopology topo;
  ServiceOptions options;
  std::vector<Job> jobs;
};

/// A burst backlog of small jobs in every tree shape, so one shape and
/// placement recurs under different trees, with sizes up to twice a
/// site's processes, which must split across clusters.
std::vector<Job> burst_backlog(int jobs, int users, std::uint64_t seed) {
  WorkloadSpec spec;
  spec.jobs = jobs;
  spec.mean_interarrival_s = 0.0005;
  spec.users = users;
  spec.priority_levels = 3;
  spec.m_choices = {1 << 15, 1 << 16, 1 << 17};
  spec.n_choices = {16, 32};
  spec.procs_choices = {2, 4, 8, 16};
  spec.tree_choices = {core::TreeKind::kFlat, core::TreeKind::kBinary,
                       core::TreeKind::kGridHierarchical};
  spec.seed = seed;
  return generate_workload(spec);
}

/// A deeper burst over five job sizes, for the backfill index: long
/// backlogs in which every size recurs far apart in the queue, so one
/// pass meets many members of each size on one free state.
std::vector<Job> deep_backlog(int jobs, int priority_levels,
                              std::uint64_t seed) {
  WorkloadSpec spec;
  spec.jobs = jobs;
  spec.mean_interarrival_s = 0.0005;
  spec.priority_levels = priority_levels;
  spec.m_choices = {1 << 15, 1 << 16, 1 << 17};
  spec.n_choices = {16, 32};
  spec.procs_choices = {2, 4, 6, 8, 16};
  spec.tree_choices = {core::TreeKind::kFlat, core::TreeKind::kBinary,
                       core::TreeKind::kGridHierarchical};
  spec.seed = seed;
  return generate_workload(spec);
}

/// The pinned matrix: every policy on one burst backlog with an
/// unbounded scan, a bounded EASY scan, EASY under faults with
/// over-asked walltimes, restart credit and wait-blame, both WAN rules
/// under WAN-aware placement, and fair-share over four users; then deep
/// backlogs for the backfill index: an unbounded EASY scan over five
/// sizes, EASY at depth 7 (a pass admits its depth-th candidate),
/// prio-easy over four priority levels with walltimes, EASY under
/// faults where half the jobs have no walltime (so equal shapes can
/// carry different restart credit into one pass), and prio-easy with
/// max-min WAN-aware placement.
std::vector<DecisionCase> decision_cases() {
  const simgrid::GridTopology grid = simgrid::GridTopology::grid5000(4, 4, 2);
  std::vector<DecisionCase> cases;
  for (const Policy policy :
       {Policy::kFcfs, Policy::kSpjf, Policy::kEasyBackfill,
        Policy::kPriorityEasy, Policy::kFairShare}) {
    DecisionCase c{"burst/" + policy_name(policy), grid, {}, {}};
    c.options.policy = policy;
    c.jobs = burst_backlog(60, 2, 41);
    cases.push_back(std::move(c));
  }
  {
    DecisionCase c{"easy/depth3", grid, {}, {}};
    c.options.policy = Policy::kEasyBackfill;
    c.options.backfill_depth = 3;
    c.jobs = burst_backlog(60, 1, 43);
    cases.push_back(std::move(c));
  }
  {
    DecisionCase c{"easy/faults", grid, {}, {}};
    c.options.policy = Policy::kEasyBackfill;
    c.options.outages =
        OutageTrace(OutageSpec{0.4, 0.08, 47}, grid.num_clusters());
    c.options.restart_credit = true;
    c.options.checkpoint_panels = 4;
    c.options.wait_blame = true;
    c.jobs = burst_backlog(50, 1, 45);
    const GridJobService probe(grid, model::paper_calibration(), c.options);
    assign_walltimes(c.jobs, 1.6, 9, [&probe](const Job& job) {
      return probe.predicted_seconds(job);
    });
    cases.push_back(std::move(c));
  }
  for (const WanFairness rule : {WanFairness::kMaxMin,
                                 WanFairness::kEqualSplit}) {
    const bool maxmin = rule == WanFairness::kMaxMin;
    DecisionCase c{maxmin ? "prio-easy/maxmin-aware" : "easy/equal-aware",
                   simgrid::GridTopology::grid5000(4, 2, 2), {}, {}};
    c.options.policy =
        maxmin ? Policy::kPriorityEasy : Policy::kEasyBackfill;
    c.options.wan_contention = true;
    c.options.wan_aware = true;
    c.options.wan_fairness = rule;
    c.options.wan_link_Bps = 2e6;
    c.jobs = burst_backlog(40, 2, maxmin ? 51 : 53);
    cases.push_back(std::move(c));
  }
  {
    DecisionCase c{"fair/4-users", grid, {}, {}};
    c.options.policy = Policy::kFairShare;
    c.jobs = burst_backlog(60, 4, 57);
    for (Job& job : c.jobs) job.weight = 1.0 + job.user % 2;
    cases.push_back(std::move(c));
  }
  {
    DecisionCase c{"easy/deep-depth0", grid, {}, {}};
    c.options.policy = Policy::kEasyBackfill;
    c.jobs = deep_backlog(320, 1, 61);
    cases.push_back(std::move(c));
  }
  {
    DecisionCase c{"easy/deep-depth7", grid, {}, {}};
    c.options.policy = Policy::kEasyBackfill;
    c.options.backfill_depth = 7;
    c.jobs = deep_backlog(200, 1, 63);
    cases.push_back(std::move(c));
  }
  {
    DecisionCase c{"prio-easy/deep-walltimes", grid, {}, {}};
    c.options.policy = Policy::kPriorityEasy;
    c.jobs = deep_backlog(200, 4, 65);
    const GridJobService probe(grid, model::paper_calibration(), c.options);
    assign_walltimes(c.jobs, 1.8, 67, [&probe](const Job& job) {
      return probe.predicted_seconds(job);
    });
    cases.push_back(std::move(c));
  }
  {
    DecisionCase c{"easy/deep-faults-credit", grid, {}, {}};
    c.options.policy = Policy::kEasyBackfill;
    c.options.outages =
        OutageTrace(OutageSpec{0.3, 0.06, 69}, grid.num_clusters());
    c.options.restart_credit = true;
    c.options.checkpoint_panels = 4;
    c.jobs = deep_backlog(200, 1, 71);
    const GridJobService probe(grid, model::paper_calibration(), c.options);
    assign_walltimes(c.jobs, 1.6, 73, [&probe](const Job& job) {
      return probe.predicted_seconds(job);
    });
    for (Job& job : c.jobs) {
      if (job.id % 2 == 1) job.walltime_s = 0.0;
    }
    cases.push_back(std::move(c));
  }
  {
    DecisionCase c{"prio-easy/deep-maxmin-aware",
                   simgrid::GridTopology::grid5000(4, 2, 2), {}, {}};
    c.options.policy = Policy::kPriorityEasy;
    c.options.wan_contention = true;
    c.options.wan_aware = true;
    c.options.wan_fairness = WanFairness::kMaxMin;
    c.options.wan_link_Bps = 2e6;
    c.jobs = deep_backlog(150, 3, 75);
    cases.push_back(std::move(c));
  }
  return cases;
}

/// Length and FNV-1a-64 of one run's Chrome-trace JSON, of its full
/// event stream (every field, doubles as hexfloats: node counts,
/// reservations, blame intervals and profile computes the Chrome trace
/// does not render), and of its summary row.
struct DecisionBits {
  std::size_t trace_len = 0;
  std::uint64_t trace_hash = 0;
  std::size_t events_len = 0;
  std::uint64_t events_hash = 0;
  std::size_t row_len = 0;
  std::uint64_t row_hash = 0;
};

std::string event_stream(const std::vector<ServiceTraceEvent>& events) {
  std::ostringstream out;
  out << std::hexfloat;
  for (const ServiceTraceEvent& ev : events) {
    out << ev.t_s << ' ' << static_cast<int>(ev.kind) << ' ' << ev.job
        << ' ' << ev.cluster << ' ' << ev.flow << ' ' << ev.value << ' '
        << ev.value2 << " [";
    for (std::size_t i = 0; i < ev.clusters.size(); ++i) {
      out << ev.clusters[i] << 'x' << ev.nodes[i] << ' ';
    }
    out << "] " << ev.note << '\n';
  }
  return out.str();
}

/// Steps the case to completion under a step cap: a decision bug that
/// livelocks the loop fails here instead of hanging the suite.
DecisionBits decision_bits(DecisionCase c) {
  constexpr int kMaxSteps = 20000;
  ServiceTracer tracer;
  c.options.tracer = &tracer;
  GridJobService service(c.topo, model::paper_calibration(), c.options);
  service.start(c.jobs);
  int steps = 0;
  while (service.active() && steps < kMaxSteps) {
    service.step();
    ++steps;
  }
  EXPECT_FALSE(service.active()) << c.name << ": no end after " << steps
                                 << " steps";
  if (service.active()) return {};
  const ServiceReport report = service.finish();
  std::ostringstream trace;
  write_chrome_trace(tracer.events(), trace);
  const std::string stream = event_stream(tracer.events());
  std::string row;
  for (const std::string& cell : summary_row(report)) row += cell + '|';
  return {trace.str().size(), fnv1a64(trace.str()), stream.size(),
          fnv1a64(stream), row.size(), fnv1a64(row)};
}

// Every scheduling decision of the matrix above, pinned as bytes: which
// job starts when, where, for how long, and by which path (head start or
// backfill), plus every kill, requeue and blame interval in the trace.
// A placement shortcut that answers from a stale free state, or a profile
// cache that confuses two shapes, moves these hashes.
TEST(GridJobService, PinnedDecisions) {
  struct Pin {
    const char* name;
    DecisionBits bits;
  };
  const Pin kPinned[] = {
      {"burst/fcfs",
       {55122, 0xc7d6a83c035de45ull, 15228, 0x98c69241667135c8ull,
        79, 0xe4e39c135beb0b28ull}},
      {"burst/spjf",
       {54491, 0x50def26b75c86247ull, 15175, 0x8477505c91dd909cull,
        79, 0xf194b1376b3fd8adull}},
      {"burst/easy",
       {55172, 0x3d06cbeb13e43305ull, 25708, 0x3fcafa6f7a875e15ull,
        79, 0x1fb22c8f5ec798bcull}},
      {"burst/prio-easy",
       {54425, 0xbf13c6c8a657910ull, 24587, 0x98c1cac12eda7815ull,
        85, 0x2be51ad37a406fd1ull}},
      {"burst/fair",
       {56346, 0xd2dd0aa87dd6bcccull, 15542, 0x111f3baf415ccf2cull,
        78, 0x23d1cf3d705cc898ull}},
      {"easy/depth3",
       {56410, 0xe43ffec0e75d5297ull, 23111, 0xa339d1367669382dull,
        80, 0x7a517008020491a8ull}},
      {"easy/faults",
       {48884, 0x9558f54153168a74ull, 48366, 0x96b7ff299730530eull,
        87, 0x3db3618f75163126ull}},
      {"prio-easy/maxmin-aware",
       {47539, 0xb6212077364de017ull, 27462, 0x7a91bc2d1c443da5ull,
        87, 0xd6b4655d9a4cb0e8ull}},
      {"easy/equal-aware",
       {48464, 0x16a9de48bdb2b173ull, 34968, 0x838da20fa7a69aa3ull,
        81, 0x2154ea28180fe7dull}},
      {"fair/4-users",
       {58119, 0x3b8ebac981dd4eedull, 15697, 0x99b0a7dd04559013ull,
        78, 0x26840c626bbdff05ull}},
      {"easy/deep-depth0",
       {301701, 0x5bd2c356ad922004ull, 156288, 0xadeb937f617336bull,
        78, 0x5877522d4e7fe4b2ull}},
      {"easy/deep-depth7",
       {187609, 0xce6e0657320cd93cull, 82821, 0x714ae83bf26a198ull,
        77, 0xc4106963c6c58312ull}},
      {"prio-easy/deep-walltimes",
       {195527, 0x2f37f22ec8506d3aull, 100560, 0x89be0ac166e3a009ull,
        85, 0xae092de0d937417bull}},
      {"easy/deep-faults-credit",
       {255181, 0x5983a12661f68a7bull, 121763, 0xd81d88b5384101f7ull,
        83, 0x8d633ef138cb5f14ull}},
      {"prio-easy/deep-maxmin-aware",
       {175748, 0xadfededeb7a822fbull, 109575, 0x1e3d28d503ea2bc9ull,
        83, 0xeff744fdd15aa308ull}},
  };
  const std::vector<DecisionCase> cases = decision_cases();
  ASSERT_EQ(cases.size(), std::size(kPinned));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const DecisionBits got = decision_bits(cases[i]);
    const DecisionBits& want = kPinned[i].bits;
    std::ostringstream row;
    row << "{\"" << cases[i].name << "\", {" << got.trace_len << ", 0x"
        << std::hex << got.trace_hash << "ull, " << std::dec
        << got.events_len << ", 0x" << std::hex << got.events_hash
        << "ull, " << std::dec << got.row_len << ", 0x" << std::hex
        << got.row_hash << "ull}},";
    EXPECT_EQ(cases[i].name, kPinned[i].name);
    EXPECT_EQ(got.trace_len, want.trace_len) << row.str();
    EXPECT_EQ(got.trace_hash, want.trace_hash) << row.str();
    EXPECT_EQ(got.events_len, want.events_len) << row.str();
    EXPECT_EQ(got.events_hash, want.events_hash) << row.str();
    EXPECT_EQ(got.row_len, want.row_len) << row.str();
    EXPECT_EQ(got.row_hash, want.row_hash) << row.str();
  }
}

}  // namespace
}  // namespace qrgrid::sched
