// Wait-blame attribution and the critical-path analyzer: the blame
// partition (every job's per-category blame sums exactly to its reported
// wait, across retries, under the hardest churn + contention streams),
// the behavioral half of the zero-cost contract for the new emit sites
// (blame on/off and profiler on/off report identical outcomes, and the
// blame-on stream filtered of its kWaitBlame events is byte-identical
// to the blame-off stream), the analyzer's exact-tiling and determinism
// guarantees, per-job slack sanity, the validator's new teeth against
// synthetic partition violations, and the zero-job artifact skeleton.
#include "sched/critpath.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "model/roofline.hpp"
#include "sched/backend.hpp"
#include "sched/policy.hpp"
#include "sched/profiler.hpp"
#include "sched/service.hpp"
#include "sched/telemetry.hpp"
#include "sched/workload.hpp"
#include "simgrid/topology.hpp"

namespace qrgrid::sched {
namespace {

simgrid::GridTopology small_grid() {
  return simgrid::GridTopology::grid5000(2, 2, 2);
}

/// Figure-scale shapes (long attempts, real queueing) so outages land on
/// running jobs and every blame category has room to appear.
std::vector<Job> churn_workload(int jobs, std::uint64_t seed) {
  WorkloadSpec spec;
  spec.jobs = jobs;
  spec.mean_interarrival_s = 0.1;
  spec.procs_choices = {2, 4, 8};
  spec.users = 2;
  spec.priority_levels = 2;
  spec.seed = seed;
  return generate_workload(spec);
}

ServiceOptions churn_options(const simgrid::GridTopology& topo,
                             Policy policy) {
  OutageSpec outage_spec;
  outage_spec.mtbf_s = 10.0;
  outage_spec.mean_outage_s = 1.5;
  outage_spec.seed = 43;
  ServiceOptions options;
  options.policy = policy;
  options.outages = OutageTrace(outage_spec, topo.num_clusters());
  options.wan_contention = true;
  options.wan_aware = true;
  return options;
}

struct BlameRun {
  ServiceReport report;
  std::vector<ServiceTraceEvent> events;
};

BlameRun run_with_blame(const simgrid::GridTopology& topo,
                        const std::vector<Job>& jobs,
                        ServiceOptions options) {
  ServiceTracer tracer;
  options.tracer = &tracer;
  options.wait_blame = true;
  GridJobService service(topo, model::paper_calibration(), options);
  BlameRun run;
  run.report = service.run(jobs);
  run.events = tracer.events();
  return run;
}

// --------------------------------------------------- blame attribution

TEST(WaitBlame, PartitionSumsToWaitPerJobUnderChurnAndContention) {
  const simgrid::GridTopology topo = small_grid();
  std::vector<Job> jobs = churn_workload(30, 41);
  {
    const GridJobService predictor(topo, model::paper_calibration());
    assign_walltimes(jobs, 3.0, 41, [&](const Job& j) {
      return predictor.predicted_seconds(j);
    });
  }
  for (const Policy policy :
       {Policy::kEasyBackfill, Policy::kPriorityEasy, Policy::kFairShare}) {
    const BlameRun run =
        run_with_blame(topo, jobs, churn_options(topo, policy));
    // The validator's streaming check: at every (re)dispatch the blamed
    // intervals partition the wait to that instant.
    const std::vector<std::string> violations = validate_trace(run.events);
    EXPECT_TRUE(violations.empty())
        << policy_name(policy) << ": "
        << (violations.empty() ? "" : violations.front());
    // And the rolled-up per-job totals reproduce the reported waits,
    // including time re-accrued across outage requeues.
    int blamed_jobs = 0;
    for (const JobOutcome& outcome : run.report.outcomes) {
      ASSERT_EQ(outcome.blame_s.size(),
                static_cast<std::size_t>(kBlameCategoryCount))
          << policy_name(policy) << " job " << outcome.job.id;
      const double blamed = std::accumulate(outcome.blame_s.begin(),
                                            outcome.blame_s.end(), 0.0);
      double wait = outcome.wait_s();
      // A job killed by an outage and re-run accrues blame for the lost
      // attempt too: its partition covers final-start minus arrival.
      for (const double b : outcome.blame_s) EXPECT_GE(b, 0.0);
      EXPECT_NEAR(blamed, wait, 1e-6 + 1e-9 * std::abs(wait))
          << policy_name(policy) << " job " << outcome.job.id;
      if (blamed > 0.0) ++blamed_jobs;
    }
    // The stream actually queued: blame must not be vacuous.
    EXPECT_GT(blamed_jobs, 0) << policy_name(policy);
  }
}

TEST(WaitBlame, DepthWindowFollowsThePassAdmissions) {
  // One 16-proc cluster, EASY examining one candidate per pass. Job 1
  // (the whole grid) blocks as head behind job 0; jobs 2 and 3 arrive
  // together. The pass examines job 2, the only position in its window,
  // and backfills it, which moves job 3 up into that position. Job 3 was
  // never examined: until job 2's completion runs the next pass, the
  // depth bound holds it, not the reservation.
  const simgrid::GridTopology topo = simgrid::GridTopology::grid5000(1, 8, 2);
  const auto job = [](int id, double arrival_s, double m, int n, int procs) {
    Job j;
    j.id = id;
    j.arrival_s = arrival_s;
    j.m = m;
    j.n = n;
    j.procs = procs;
    return j;
  };
  const std::vector<Job> jobs = {job(0, 0.0, 1 << 22, 64, 8),
                                 job(1, 0.0, 1 << 16, 64, 16),
                                 job(2, 0.002, 1 << 12, 16, 4),
                                 job(3, 0.002, 1 << 24, 64, 2)};
  ServiceOptions options;
  options.policy = Policy::kEasyBackfill;
  options.backfill_depth = 1;
  const BlameRun run = run_with_blame(topo, jobs, options);
  EXPECT_TRUE(validate_trace(run.events).empty());
  const JobOutcome& backfilled = run.report.outcomes[2];
  ASSERT_EQ(backfilled.job.id, 2);
  ASSERT_TRUE(backfilled.backfilled);
  ASSERT_EQ(backfilled.start_s, 0.002);
  const ServiceTraceEvent* first_blame = nullptr;
  for (const ServiceTraceEvent& event : run.events) {
    if (event.kind == TraceKind::kWaitBlame && event.job == 3) {
      first_blame = &event;
      break;
    }
  }
  ASSERT_NE(first_blame, nullptr);
  EXPECT_EQ(static_cast<BlameCategory>(first_blame->value2),
            BlameCategory::kBackfillDepthTruncated);
  EXPECT_EQ(first_blame->t_s, backfilled.finish_s);
  EXPECT_DOUBLE_EQ(run.report.outcomes[3].blame_s[static_cast<std::size_t>(
                       BlameCategory::kBackfillDepthTruncated)],
                   backfilled.finish_s - 0.002);
}

TEST(WaitBlame, OffPathIsByteIdenticalAndOutcomesMatch) {
  const simgrid::GridTopology topo = small_grid();
  const std::vector<Job> jobs = churn_workload(25, 77);
  ServiceOptions options = churn_options(topo, Policy::kEasyBackfill);

  ServiceTracer off_tracer;
  options.tracer = &off_tracer;
  options.wait_blame = false;
  GridJobService off_service(topo, model::paper_calibration(), options);
  const ServiceReport off_report = off_service.run(jobs);

  const BlameRun on = run_with_blame(topo, jobs, options);

  // Behavioral half: identical service outcomes, column for column.
  EXPECT_EQ(summary_row(off_report), summary_row(on.report));

  // Stream half: dropping the kWaitBlame events and masking the config
  // bit must reproduce the blame-off stream byte for byte.
  std::vector<ServiceTraceEvent> filtered;
  for (const ServiceTraceEvent& event : on.events) {
    if (event.kind == TraceKind::kWaitBlame) continue;
    filtered.push_back(event);
  }
  ASSERT_LT(filtered.size(), on.events.size());  // blame really fired
  ASSERT_FALSE(filtered.empty());
  EXPECT_EQ(static_cast<int>(filtered.front().value) &
                kTraceConfigWaitBlame,
            kTraceConfigWaitBlame);
  filtered.front().value -= kTraceConfigWaitBlame;
  std::ostringstream off_json, filtered_json;
  write_chrome_trace(off_tracer.events(), off_json);
  write_chrome_trace(filtered, filtered_json);
  EXPECT_EQ(off_json.str(), filtered_json.str());
}

// ------------------------------------------------------- critical path

TEST(CriticalPath, TilesMakespanExactlyAndDeterministically) {
  const simgrid::GridTopology topo = small_grid();
  std::vector<Job> jobs = churn_workload(30, 41);
  {
    const GridJobService predictor(topo, model::paper_calibration());
    assign_walltimes(jobs, 3.0, 41, [&](const Job& j) {
      return predictor.predicted_seconds(j);
    });
  }
  const ServiceOptions options = churn_options(topo, Policy::kEasyBackfill);
  const BlameRun first = run_with_blame(topo, jobs, options);
  const BlameRun second = run_with_blame(topo, jobs, options);
  const CriticalPathReport cp = analyze_critical_path(first.events);

  // The chain tiles [0, makespan] with exactly-adjacent tiles — double
  // equality, not tolerance: every boundary is a recorded event time.
  ASSERT_FALSE(cp.chain.empty());
  EXPECT_TRUE(cp.tiles(first.report.makespan_s));
  EXPECT_NEAR(cp.path_length_s(), cp.makespan_s,
              1e-9 * std::max(1.0, cp.makespan_s));
  // The chain ends in the makespan-defining run and counts its attempts.
  EXPECT_EQ(cp.chain.back().kind, CritSegment::Kind::kRun);
  EXPECT_GE(cp.chain_attempts, 1);
  // Composition totals are the chain re-summed by kind.
  EXPECT_NEAR(cp.run_s + cp.outage_s + cp.wait_s + cp.pre_arrival_s,
              cp.path_length_s(), 1e-9 * std::max(1.0, cp.makespan_s));
  // Wait tiles carry blame attribution when the run was blamed, and the
  // per-category decomposition never exceeds the chain's wait total.
  const double blamed = std::accumulate(cp.wait_blame_s.begin(),
                                        cp.wait_blame_s.end(), 0.0);
  EXPECT_LE(blamed, cp.wait_s + 1e-9);

  // Determinism: same seed, two independent runs, identical JSON.
  const CriticalPathReport cp2 = analyze_critical_path(second.events);
  std::ostringstream json1, json2;
  write_critpath_json(cp, json1);
  write_critpath_json(cp2, json2);
  EXPECT_EQ(json1.str(), json2.str());
}

TEST(CriticalPath, SlackIsNonNegativeAndZeroOnTheChain) {
  const simgrid::GridTopology topo = small_grid();
  const std::vector<Job> jobs = churn_workload(25, 19);
  const BlameRun run = run_with_blame(
      topo, jobs, churn_options(topo, Policy::kPriorityEasy));
  const CriticalPathReport cp = analyze_critical_path(run.events);
  ASSERT_FALSE(cp.job_slack_s.empty());
  double min_slack = 1e300;
  for (const auto& [job, slack] : cp.job_slack_s) {
    EXPECT_GE(slack, 0.0) << "job " << job;
    min_slack = std::min(min_slack, slack);
  }
  // The makespan-defining job has no room to slip.
  EXPECT_EQ(min_slack, 0.0);
  for (const CritSegment& seg : cp.chain) {
    if (seg.kind != CritSegment::Kind::kRun) continue;
    ASSERT_TRUE(cp.job_slack_s.contains(seg.job));
    EXPECT_EQ(cp.job_slack_s.at(seg.job), 0.0) << "chain job " << seg.job;
  }
}

TEST(CriticalPath, EmptyAndAttemptFreeStreamsYieldEmptyReports) {
  const CriticalPathReport empty = analyze_critical_path({});
  EXPECT_EQ(empty.makespan_s, 0.0);
  EXPECT_TRUE(empty.chain.empty());
  EXPECT_TRUE(empty.job_slack_s.empty());
  EXPECT_TRUE(empty.tiles(0.0));
  EXPECT_FALSE(empty.tiles(1.0));
}

TEST(CriticalPath, TilesRefusesGapsOverlapsAndOtherMakespans) {
  CriticalPathReport cp;
  cp.makespan_s = 3.0;
  cp.chain.resize(2);
  cp.chain[0] = {CritSegment::Kind::kWait, 0, -1, 0.0, 1.0, -1};
  cp.chain[1] = {CritSegment::Kind::kRun, 0, -1, 1.0, 3.0, -1};
  EXPECT_TRUE(cp.tiles(3.0));
  EXPECT_FALSE(cp.tiles(2.0));  // another run's makespan
  CriticalPathReport bad = cp;
  bad.chain[0].t0_s = 0.5;  // starts after 0
  EXPECT_FALSE(bad.tiles(3.0));
  bad = cp;
  bad.chain[1].t0_s = 1.5;  // gap between tiles
  EXPECT_FALSE(bad.tiles(3.0));
  bad = cp;
  bad.chain[1].t0_s = 0.5;  // overlapping tiles
  EXPECT_FALSE(bad.tiles(3.0));
  bad = cp;
  bad.chain[1].t1_s = 2.5;  // ends before the makespan
  EXPECT_FALSE(bad.tiles(3.0));
  bad = cp;
  bad.makespan_s = 2.5;  // the report disagrees with the run
  EXPECT_FALSE(bad.tiles(3.0));
}

// ------------------------------------------------------ validator teeth

ServiceTraceEvent ev(double t_s, TraceKind kind, int job = -1) {
  ServiceTraceEvent event;
  event.t_s = t_s;
  event.kind = kind;
  event.job = job;
  return event;
}

ServiceTraceEvent blame_ev(double t_s, int job, double interval_s,
                           BlameCategory category) {
  ServiceTraceEvent event = ev(t_s, TraceKind::kWaitBlame, job);
  event.value = interval_s;
  event.value2 = static_cast<double>(category);
  return event;
}

std::vector<ServiceTraceEvent> with_blame_config(
    std::vector<ServiceTraceEvent> tail) {
  std::vector<ServiceTraceEvent> events;
  ServiceTraceEvent config = ev(0.0, TraceKind::kRunConfig);
  config.value = kTraceConfigWaitBlame;
  events.push_back(config);
  events.insert(events.end(), tail.begin(), tail.end());
  return events;
}

TEST(TraceValidator, AcceptsExactBlamePartition) {
  EXPECT_TRUE(
      validate_trace(with_blame_config(
                         {ev(0.0, TraceKind::kArrival, 0),
                          blame_ev(5.0, 0, 5.0, BlameCategory::kResourceBusy),
                          ev(5.0, TraceKind::kDispatch, 0),
                          ev(6.0, TraceKind::kCompletion, 0)}))
          .empty());
}

TEST(TraceValidator, CatchesBlamePartitionDeficit) {
  // Job 0 waited 5 s but only 2 s were blamed: the partition is short.
  const auto violations = validate_trace(with_blame_config(
      {ev(0.0, TraceKind::kArrival, 0),
       blame_ev(5.0, 0, 2.0, BlameCategory::kResourceBusy),
       ev(5.0, TraceKind::kDispatch, 0),
       ev(6.0, TraceKind::kCompletion, 0)}));
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("blame"), std::string::npos);
}

TEST(TraceValidator, CatchesInvalidBlameCategoryAndNegativeInterval) {
  ServiceTraceEvent bogus = blame_ev(5.0, 0, 5.0, BlameCategory::kResourceBusy);
  bogus.value2 = 99.0;  // no such category
  EXPECT_FALSE(validate_trace(with_blame_config(
                                  {ev(0.0, TraceKind::kArrival, 0), bogus,
                                   ev(5.0, TraceKind::kDispatch, 0),
                                   ev(6.0, TraceKind::kCompletion, 0)}))
                   .empty());
  EXPECT_FALSE(
      validate_trace(
          with_blame_config(
              {ev(0.0, TraceKind::kArrival, 0),
               blame_ev(5.0, 0, -1.0, BlameCategory::kResourceBusy),
               blame_ev(5.0, 0, 6.0, BlameCategory::kResourceBusy),
               ev(5.0, TraceKind::kDispatch, 0),
               ev(6.0, TraceKind::kCompletion, 0)}))
          .empty());
}

TEST(TraceValidator, CatchesBlameOnRunningJob) {
  // Blaming a job that is already running is a state violation.
  const auto violations = validate_trace(with_blame_config(
      {ev(0.0, TraceKind::kArrival, 0), ev(1.0, TraceKind::kDispatch, 0),
       blame_ev(2.0, 0, 1.0, BlameCategory::kResourceBusy),
       ev(3.0, TraceKind::kCompletion, 0)}));
  EXPECT_FALSE(violations.empty());
}

TEST(TraceValidator, IgnoresBlameArithmeticWhenBitIsOff) {
  // Without the config bit the partition check must not fire: a
  // blame-off stream never carries the events, and a foreign stream
  // with stray blame events is judged only on state, not arithmetic.
  std::vector<ServiceTraceEvent> events;
  ServiceTraceEvent config = ev(0.0, TraceKind::kRunConfig);
  config.value = 0;
  events.push_back(config);
  events.push_back(ev(0.0, TraceKind::kArrival, 0));
  events.push_back(ev(5.0, TraceKind::kDispatch, 0));
  events.push_back(ev(6.0, TraceKind::kCompletion, 0));
  EXPECT_TRUE(validate_trace(events).empty());
}

// ------------------------------------------------------- self-profiler

TEST(Profiler, PhasesAccumulateWithoutPerturbingTheService) {
  const simgrid::GridTopology topo = small_grid();
  const std::vector<Job> jobs = churn_workload(20, 9);
  ServiceOptions options = churn_options(topo, Policy::kEasyBackfill);

  GridJobService bare(topo, model::paper_calibration(), options);
  const ServiceReport bare_report = bare.run(jobs);

  PhaseProfiler profiler;
  options.profiler = &profiler;
  GridJobService profiled(topo, model::paper_calibration(), options);
  const ServiceReport profiled_report = profiled.run(jobs);

  EXPECT_EQ(summary_row(bare_report), summary_row(profiled_report));
  // The loop phases fire every iteration; the shadow phase fires only
  // when EASY actually blocks, but on a churn run it must have fired.
  EXPECT_GT(profiler.calls(ProfilePhase::kDispatchScan), 0);
  EXPECT_GT(profiler.calls(ProfilePhase::kCompletionExtract), 0);
  EXPECT_GT(profiler.calls(ProfilePhase::kWanAdvance), 0);
  for (int p = 0; p < kProfilePhaseCount; ++p) {
    EXPECT_GE(profiler.total_s(static_cast<ProfilePhase>(p)), 0.0);
  }
}

TEST(Profiler, NullScopeIsInertAndClearResets) {
  {
    PhaseScope scope(nullptr, ProfilePhase::kDispatchScan);  // must not crash
  }
  PhaseProfiler profiler;
  {
    PhaseScope scope(&profiler, ProfilePhase::kShadow);
  }
  EXPECT_EQ(profiler.calls(ProfilePhase::kShadow), 1);
  profiler.clear();
  EXPECT_EQ(profiler.calls(ProfilePhase::kShadow), 0);
  EXPECT_EQ(profiler.total_s(ProfilePhase::kShadow), 0.0);
}

// -------------------------------------------------- zero-job artifacts

TEST(ZeroJobRun, EmitsSeriesSkeletonAndProfilerGauges) {
  // An empty workload must still produce structurally complete
  // artifacts: the vtime series exist (with their t=0 seed point) and
  // the profiler gauges are written, so downstream tooling never
  // branches on presence.
  const simgrid::GridTopology topo = small_grid();
  MetricsRegistry metrics;
  PhaseProfiler profiler;
  ServiceOptions options;
  options.policy = Policy::kEasyBackfill;
  options.wan_contention = true;
  options.metrics = &metrics;
  options.profiler = &profiler;
  options.wait_blame = true;
  GridJobService service(topo, model::paper_calibration(), options);
  const ServiceReport report = service.run({});
  EXPECT_EQ(report.makespan_s, 0.0);
  for (const char* series : {"queue_depth", "running_jobs",
                             "wan.backbone_load", "wan.live_flows"}) {
    ASSERT_NE(metrics.series(series), nullptr) << series;
    EXPECT_FALSE(metrics.series(series)->empty()) << series;
  }
  std::ostringstream json;
  metrics.write_json(json);
  for (const char* key :
       {"profiler.dispatch-scan.calls", "profiler.dispatch-scan.wall_s",
        "profiler.completion-extract.calls", "blame.total.resource-busy_s"}) {
    EXPECT_NE(json.str().find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace qrgrid::sched
