// Fault model of the grid job service: whole-cluster outages kill exactly
// the jobs holding affected nodes, killed jobs are requeued (bounded
// retries, optional restart credit) and eventually complete, user
// walltimes are enforced, and the report's conservation invariants hold
// under churn. Also pins the event precedence contract: at one virtual
// instant, completions beat outages beat arrivals.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "sched/outage.hpp"
#include "sched/service.hpp"
#include "sched/workload.hpp"

namespace qrgrid::sched {
namespace {

simgrid::GridTopology small_grid() {
  // 2 sites x 2 nodes x 2 procs = 8 processes, 4 nodes.
  return simgrid::GridTopology::grid5000(2, 2, 2);
}

simgrid::GridTopology one_site() {
  // 1 site x 2 nodes x 2 procs = 4 processes: outages here stop the world.
  return simgrid::GridTopology::grid5000(1, 2, 2);
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

int grid_nodes(const simgrid::GridTopology& topo) {
  int nodes = 0;
  for (int c = 0; c < topo.num_clusters(); ++c) nodes += topo.cluster(c).nodes;
  return nodes;
}

/// The ServiceReport conservation contract, asserted after every faulty run.
void expect_conserved(const ServiceReport& report, int submitted,
                      const simgrid::GridTopology& topo) {
  EXPECT_EQ(report.completed_jobs + report.failed_jobs, submitted);
  EXPECT_EQ(report.killed_jobs, report.walltime_kills + report.outage_kills);
  ASSERT_EQ(report.outcomes.size(), static_cast<std::size_t>(submitted));
  for (int i = 0; i < submitted; ++i) {
    EXPECT_EQ(report.outcomes[static_cast<std::size_t>(i)].job.id, i);
  }
  // Every held node-second is either useful or wasted, and the grid can
  // not have supplied more than capacity x makespan of either.
  EXPECT_LE(report.useful_node_seconds + report.wasted_node_seconds,
            static_cast<double>(grid_nodes(topo)) * report.makespan_s *
                (1.0 + 1e-12));
  EXPECT_GE(report.wasted_node_seconds, 0.0);
}

TEST(OutageTrace, ExplicitListYieldsOrderedBoundaries) {
  OutageTrace trace(std::vector<Outage>{
      {1, 5.0, 7.0}, {0, 2.0, 4.0}, {0, 7.0, 9.0}});
  std::vector<OutageEvent> events;
  while (trace.peek_s() < 1e30) events.push_back(trace.pop());
  ASSERT_EQ(events.size(), 6u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].time_s, events[i].time_s);
  }
  // At t=7 cluster 1 recovers BEFORE cluster 0 fails (up before down).
  EXPECT_FALSE(events[3].down);
  EXPECT_EQ(events[3].cluster, 1);
  EXPECT_TRUE(events[4].down);
  EXPECT_EQ(events[4].cluster, 0);
}

TEST(OutageTrace, GeneratorIsDeterministicAndAlternating) {
  OutageSpec spec;
  spec.mtbf_s = 10.0;
  spec.mean_outage_s = 2.0;
  spec.seed = 5;
  OutageTrace a(spec, 3);
  OutageTrace b(spec, 3);
  std::vector<bool> down(3, false);
  double prev = 0.0;
  for (int i = 0; i < 200; ++i) {
    const OutageEvent ea = a.pop();
    const OutageEvent eb = b.pop();
    EXPECT_EQ(ea.time_s, eb.time_s);
    EXPECT_EQ(ea.cluster, eb.cluster);
    EXPECT_EQ(ea.down, eb.down);
    EXPECT_GE(ea.time_s, prev);
    prev = ea.time_s;
    // Per-cluster boundaries strictly alternate down/up.
    EXPECT_NE(down[static_cast<std::size_t>(ea.cluster)], ea.down);
    down[static_cast<std::size_t>(ea.cluster)] = ea.down;
  }
}

TEST(OutageTrace, RejectsMalformedIntervals) {
  EXPECT_THROW(OutageTrace(std::vector<Outage>{{0, 5.0, 5.0}}), Error);
  EXPECT_THROW(OutageTrace(std::vector<Outage>{{-1, 1.0, 2.0}}), Error);
}

TEST(FaultService, OutageKillsExactlyTheJobsHoldingAffectedNodes) {
  // Two single-cluster jobs running side by side; fail the first job's
  // cluster mid-flight. Only that job dies — and it completes on retry.
  std::vector<Job> jobs = {make_job(0, 0.0, 1 << 20, 64, 4),
                           make_job(1, 0.0, 1 << 20, 64, 4)};
  const model::Roofline roof = model::paper_calibration();

  const ServiceReport clean = GridJobService(small_grid(), roof).run(jobs);
  ASSERT_EQ(clean.completed_jobs, 2);
  ASSERT_EQ(clean.outcomes[0].clusters.size(), 1u);
  ASSERT_EQ(clean.outcomes[1].clusters.size(), 1u);
  const int hit = clean.outcomes[0].clusters[0];
  ASSERT_NE(hit, clean.outcomes[1].clusters[0]);  // side by side, not stacked
  const double mid =
      0.5 * (clean.outcomes[0].start_s + clean.outcomes[0].finish_s);
  ASSERT_LT(mid, clean.outcomes[1].finish_s);  // job 1 still running at mid

  ServiceOptions options;
  options.outages = OutageTrace(std::vector<Outage>{{hit, mid, mid + 1.0}});
  const ServiceReport faulty =
      GridJobService(small_grid(), roof, options).run(jobs);
  expect_conserved(faulty, 2, small_grid());
  EXPECT_EQ(faulty.outage_kills, 1);
  EXPECT_EQ(faulty.requeued_jobs, 1);
  EXPECT_EQ(faulty.completed_jobs, 2);  // the victim eventually completes
  EXPECT_EQ(faulty.outcomes[0].attempts, 2);
  EXPECT_TRUE(faulty.outcomes[0].completed());
  EXPECT_GT(faulty.outcomes[0].wasted_node_s, 0.0);
  // The bystander on the other cluster is untouched.
  EXPECT_EQ(faulty.outcomes[1].attempts, 1);
  EXPECT_EQ(faulty.outcomes[1].finish_s, clean.outcomes[1].finish_s);
  EXPECT_EQ(faulty.outcomes[1].wasted_node_s, 0.0);
  EXPECT_GT(faulty.outcomes[0].finish_s, clean.outcomes[0].finish_s);
}

TEST(FaultService, FinishBeatsSimultaneousOutage) {
  // Event precedence: an outage landing exactly on a job's completion
  // instant must not kill it — finishes are processed first.
  std::vector<Job> jobs = {make_job(0, 0.0, 1 << 20, 64, 4)};
  const model::Roofline roof = model::paper_calibration();
  const ServiceReport clean = GridJobService(small_grid(), roof).run(jobs);
  const double finish = clean.outcomes[0].finish_s;
  const int cluster = clean.outcomes[0].clusters[0];

  ServiceOptions at_finish;
  at_finish.outages =
      OutageTrace(std::vector<Outage>{{cluster, finish, finish + 5.0}});
  const ServiceReport spared =
      GridJobService(small_grid(), roof, at_finish).run(jobs);
  EXPECT_EQ(spared.outage_kills, 0);
  EXPECT_EQ(spared.outcomes[0].attempts, 1);
  EXPECT_EQ(spared.outcomes[0].finish_s, finish);

  // A hair earlier and the same outage kills it.
  ServiceOptions just_before;
  just_before.outages = OutageTrace(
      std::vector<Outage>{{cluster, finish * (1.0 - 1e-9), finish + 5.0}});
  const ServiceReport killed =
      GridJobService(small_grid(), roof, just_before).run(jobs);
  EXPECT_EQ(killed.outage_kills, 1);
  EXPECT_EQ(killed.outcomes[0].attempts, 2);
  EXPECT_TRUE(killed.outcomes[0].completed());
  expect_conserved(killed, 1, small_grid());
}

TEST(FaultService, WalltimeExceededJobsAreKilledAndCounted) {
  std::vector<Job> jobs = {make_job(0, 0.0, 1 << 20, 64, 4),
                           make_job(1, 0.0, 1 << 20, 64, 4)};
  const model::Roofline roof = model::paper_calibration();
  const ServiceReport clean = GridJobService(small_grid(), roof).run(jobs);
  const double service_s = clean.outcomes[0].service_s;

  jobs[0].walltime_s = 0.5 * service_s;  // under-asked: will be killed
  jobs[1].walltime_s = 2.0 * service_s;  // honest over-ask: completes
  const ServiceReport report = GridJobService(small_grid(), roof).run(jobs);
  expect_conserved(report, 2, small_grid());
  EXPECT_EQ(report.walltime_kills, 1);
  EXPECT_EQ(report.outage_kills, 0);
  EXPECT_EQ(report.requeued_jobs, 0);  // walltime kills are final
  EXPECT_EQ(report.failed_jobs, 1);
  EXPECT_EQ(report.outcomes[0].fate, JobFate::kWalltimeKilled);
  EXPECT_DOUBLE_EQ(report.outcomes[0].finish_s,
                   report.outcomes[0].start_s + jobs[0].walltime_s);
  EXPECT_GT(report.wasted_node_seconds, 0.0);
  EXPECT_TRUE(report.outcomes[1].completed());
  EXPECT_DOUBLE_EQ(report.outcomes[1].service_s, service_s);
}

TEST(FaultService, EasyPlansWithEstimatesNotExactReplays) {
  // The EasyBackfillsWithoutDelayingTheHead scenario — but the short
  // backfill candidate OVER-ASKS far past the hole. With honest exact
  // times it fits; planning with the estimate, EASY must refuse it.
  std::vector<Job> jobs;
  jobs.push_back(make_job(0, 0.0, 1 << 21, 64, 4));   // fills cluster 0
  jobs.push_back(make_job(1, 1.0, 1 << 21, 64, 8));   // head, needs all
  jobs.push_back(make_job(2, 2.0, 1 << 17, 64, 2));   // backfill candidate
  const model::Roofline roof = model::paper_calibration();
  ServiceOptions easy;
  easy.policy = Policy::kEasyBackfill;

  const ServiceReport honest =
      GridJobService(small_grid(), roof, easy).run(jobs);
  ASSERT_EQ(honest.backfilled_jobs, 1);  // exact times: slides into the hole

  jobs[2].walltime_s = 10.0 * honest.makespan_s;  // wild over-ask
  const ServiceReport cautious =
      GridJobService(small_grid(), roof, easy).run(jobs);
  EXPECT_EQ(cautious.backfilled_jobs, 0);
  EXPECT_FALSE(cautious.outcomes[2].backfilled);
  // The head is still never delayed past its reservation.
  EXPECT_LE(cautious.outcomes[1].start_s,
            cautious.outcomes[1].reserved_start_s + 1e-9);
  expect_conserved(cautious, 3, small_grid());
}

TEST(FaultService, RestartCreditResumesFromLastCompletedPanel) {
  // One job alone on a one-site grid, killed at ~70% of its replay. With
  // restart credit (10 panels) the second attempt only re-runs the tail.
  std::vector<Job> jobs = {make_job(0, 0.0, 1 << 21, 64, 4)};
  const model::Roofline roof = model::paper_calibration();
  const ServiceReport clean = GridJobService(one_site(), roof).run(jobs);
  const double full_s = clean.outcomes[0].service_s;
  const std::vector<Outage> outage = {{0, 0.7 * full_s, 0.7 * full_s + 1.0}};

  ServiceOptions scratch;
  scratch.outages = OutageTrace(outage);
  const ServiceReport restarted =
      GridJobService(one_site(), roof, scratch).run(jobs);
  EXPECT_NEAR(restarted.outcomes[0].service_s, full_s, 1e-9 * full_s);
  EXPECT_EQ(restarted.outcomes[0].credited_s, 0.0);

  ServiceOptions credit = scratch;
  credit.restart_credit = true;
  credit.checkpoint_panels = 10;
  const ServiceReport resumed =
      GridJobService(one_site(), roof, credit).run(jobs);
  expect_conserved(resumed, 1, one_site());
  // 7 of 10 panels bank: the final attempt re-runs only 30% of the replay.
  EXPECT_NEAR(resumed.outcomes[0].credited_s, 0.7 * full_s, 1e-9 * full_s);
  EXPECT_NEAR(resumed.outcomes[0].service_s, 0.3 * full_s, 1e-9 * full_s);
  EXPECT_LT(resumed.makespan_s, restarted.makespan_s);
  EXPECT_LT(resumed.outcomes[0].wasted_node_s,
            restarted.outcomes[0].wasted_node_s);
  EXPECT_EQ(resumed.outcomes[0].attempts, 2);
}

TEST(FaultService, RestartCreditDoesNotDoubleChargeWan) {
  // A two-site job killed mid-replay and resumed with credit must charge
  // WAN bytes for roughly ONE traversal of its reduction tree: the
  // pre-kill fraction plus the uncredited remainder (at most one extra
  // panel of slack), never the banked prefix twice.
  std::vector<Job> jobs = {make_job(0, 0.0, 1 << 21, 64, 8)};
  const model::Roofline roof = model::paper_calibration();
  const ServiceReport clean = GridJobService(small_grid(), roof).run(jobs);
  ASSERT_EQ(clean.outcomes[0].clusters.size(), 2u);  // spans the WAN
  const double clean_wan = static_cast<double>(total_wan_bytes(clean));
  ASSERT_GT(clean_wan, 0.0);
  const double full_s = clean.outcomes[0].service_s;

  ServiceOptions credit;
  credit.outages = OutageTrace(
      std::vector<Outage>{{0, 0.6 * full_s, 0.6 * full_s + 1.0}});
  credit.restart_credit = true;
  credit.checkpoint_panels = 10;
  const ServiceReport resumed =
      GridJobService(small_grid(), roof, credit).run(jobs);
  expect_conserved(resumed, 1, small_grid());
  ASSERT_EQ(resumed.outcomes[0].attempts, 2);
  ASSERT_TRUE(resumed.outcomes[0].completed());
  const double faulty_wan = static_cast<double>(total_wan_bytes(resumed));
  // charged = elapsed/full + (1 - banked) in [1, 1 + 1/panels] of clean.
  EXPECT_GE(faulty_wan, 0.99 * clean_wan);
  EXPECT_LE(faulty_wan, 1.11 * clean_wan);
}

TEST(FaultService, CheckpointCostFlipsTheCreditTradeOff) {
  // Restart credit stops being free: every interior panel boundary an
  // attempt crosses writes checkpoint I/O over the intra-cluster link
  // (checkpoint_cost_s seconds). At zero cost, resuming from the last
  // panel beats restarting from scratch; at an absurd cost, the I/O tax
  // on every attempt swamps the credit and NOT checkpointing wins.
  std::vector<Job> jobs = {make_job(0, 0.0, 1 << 21, 64, 4)};
  const model::Roofline roof = model::paper_calibration();
  const ServiceReport clean = GridJobService(one_site(), roof).run(jobs);
  const double full_s = clean.outcomes[0].service_s;
  const std::vector<Outage> outage = {{0, 0.6 * full_s, 0.6 * full_s + 1.0}};

  ServiceOptions scratch;  // no checkpointing at all
  scratch.outages = OutageTrace(outage);
  const double no_credit_finish =
      GridJobService(one_site(), roof, scratch).run(jobs).makespan_s;

  ServiceOptions free_credit = scratch;
  free_credit.restart_credit = true;
  free_credit.checkpoint_panels = 8;
  const double free_finish =
      GridJobService(one_site(), roof, free_credit).run(jobs).makespan_s;

  ServiceOptions costly = free_credit;
  costly.checkpoint_cost_s = full_s;  // each checkpoint costs a whole run
  const ServiceReport costly_report =
      GridJobService(one_site(), roof, costly).run(jobs);
  expect_conserved(costly_report, 1, one_site());

  // The trade-off flips: free credit < no credit < prohibitively costly.
  EXPECT_LT(free_finish, no_credit_finish);
  EXPECT_GT(costly_report.makespan_s, no_credit_finish);

  // At a realistic cost the overhead is visible but the credit still
  // pays: monotone between the two extremes.
  ServiceOptions mild = free_credit;
  mild.checkpoint_cost_s = 0.01 * full_s;
  const double mild_finish =
      GridJobService(one_site(), roof, mild).run(jobs).makespan_s;
  EXPECT_GT(mild_finish, free_finish);
  EXPECT_LT(mild_finish, no_credit_finish);
}

TEST(FaultService, RetriesAreBoundedThenTheJobFails) {
  // Kill every attempt halfway; with max_retries = 2 the third kill is
  // final and the job leaves as kOutageFailed.
  std::vector<Job> jobs = {make_job(0, 0.0, 1 << 21, 64, 4)};
  const model::Roofline roof = model::paper_calibration();
  const ServiceReport clean = GridJobService(one_site(), roof).run(jobs);
  const double full_s = clean.outcomes[0].service_s;

  std::vector<Outage> outages;
  double start = 0.0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    const double kill = start + 0.5 * full_s;
    outages.push_back({0, kill, kill + 0.25});
    start = kill + 0.25;  // next attempt begins at the recovery
  }
  ServiceOptions options;
  options.outages = OutageTrace(outages);
  options.max_retries = 2;
  const ServiceReport report =
      GridJobService(one_site(), roof, options).run(jobs);
  expect_conserved(report, 1, one_site());
  EXPECT_EQ(report.outage_kills, 3);
  EXPECT_EQ(report.requeued_jobs, 2);
  EXPECT_EQ(report.failed_jobs, 1);
  EXPECT_EQ(report.completed_jobs, 0);
  EXPECT_EQ(report.outcomes[0].fate, JobFate::kOutageFailed);
  EXPECT_EQ(report.outcomes[0].attempts, 3);
  // All three half-attempts were pure waste.
  EXPECT_NEAR(report.outcomes[0].wasted_node_s,
              report.outcomes[0].nodes * 1.5 * full_s, 1e-6 * full_s);
}

TEST(FaultService, RequeuedJobsEventuallyCompleteUnderChurn) {
  // Seeded workload + seeded outages + over-asked walltimes under every
  // policy: conservation invariants hold and churn is actually exercised.
  WorkloadSpec spec;
  spec.jobs = 40;
  spec.mean_interarrival_s = 0.1;
  spec.procs_choices = {2, 4, 8};
  spec.seed = 41;
  std::vector<Job> jobs = generate_workload(spec);
  const model::Roofline roof = model::paper_calibration();
  {
    GridJobService predictor(small_grid(), roof);
    assign_walltimes(jobs, 4.0, spec.seed, [&](const Job& j) {
      return predictor.predicted_seconds(j);
    });
  }
  OutageSpec outage_spec;
  outage_spec.mtbf_s = 10.0;
  outage_spec.mean_outage_s = 1.5;
  outage_spec.seed = 43;

  for (const Policy policy :
       {Policy::kFcfs, Policy::kSpjf, Policy::kEasyBackfill}) {
    ServiceOptions options;
    options.policy = policy;
    options.outages = OutageTrace(outage_spec, small_grid().num_clusters());
    options.max_retries = 3;
    options.restart_credit = true;
    GridJobService service(small_grid(), roof, options);
    const ServiceReport report = service.run(jobs);
    expect_conserved(report, spec.jobs, small_grid());
    EXPECT_GT(report.killed_jobs, 0) << policy_name(policy);
    EXPECT_GT(report.requeued_jobs, 0) << policy_name(policy);
    // Someone died AND someone survived a kill: requeues that completed.
    bool requeued_completed = false;
    for (const JobOutcome& o : report.outcomes) {
      if (o.completed() && o.attempts > 1) requeued_completed = true;
      if (!o.completed()) {
        EXPECT_TRUE(o.fate == JobFate::kWalltimeKilled ||
                    o.fate == JobFate::kOutageFailed);
      }
      EXPECT_GE(o.attempts, 1);
      EXPECT_LE(o.attempts, options.max_retries + 1);
    }
    EXPECT_TRUE(requeued_completed) << policy_name(policy);
  }
}

TEST(FaultService, CoveredSpanFractionNeverProducesNanOrInf) {
  // The guarded form of the kill paths' former raw elapsed / span.
  EXPECT_DOUBLE_EQ(covered_span_fraction(2.5, 10.0), 0.25);
  EXPECT_DOUBLE_EQ(covered_span_fraction(20.0, 10.0), 1.0);  // clamped
  EXPECT_DOUBLE_EQ(covered_span_fraction(0.0, 10.0), 0.0);
  // The degenerate spans that used to divide by zero: floating-point
  // absorption can collapse start + tiny attempt back onto start, so a
  // zero-length span with positive elapsed is FULLY covered — and with
  // nothing elapsed, nothing is.
  EXPECT_DOUBLE_EQ(covered_span_fraction(1e-300, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(covered_span_fraction(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(covered_span_fraction(-1.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(covered_span_fraction(1.0, -5.0), 1.0);
  EXPECT_TRUE(std::isfinite(
      covered_span_fraction(std::numeric_limits<double>::min(), 0.0)));
}

TEST(FaultService, KillLandingAHairAfterStartKeepsCreditFinite) {
  // An outage landing almost exactly ON the start instant: the covered
  // span is denormal-scale relative to the attempt. No panel banks, the
  // credit fractions stay finite and non-negative, and the retry
  // completes from scratch.
  std::vector<Job> jobs = {make_job(0, 0.0, 1 << 21, 64, 4)};
  const model::Roofline roof = model::paper_calibration();
  ServiceOptions options;
  options.outages = OutageTrace(std::vector<Outage>{{0, 1e-12, 0.5}});
  options.restart_credit = true;
  options.checkpoint_panels = 10;
  const ServiceReport report =
      GridJobService(one_site(), roof, options).run(jobs);
  expect_conserved(report, 1, one_site());
  ASSERT_EQ(report.outcomes[0].attempts, 2);
  EXPECT_TRUE(report.outcomes[0].completed());
  EXPECT_DOUBLE_EQ(report.outcomes[0].credited_s, 0.0);
  EXPECT_TRUE(std::isfinite(report.outcomes[0].wasted_node_s));
  EXPECT_GE(report.outcomes[0].wasted_node_s, 0.0);
  EXPECT_TRUE(std::isfinite(report.wasted_node_seconds));
}

TEST(FaultService, ZeroCostCheckpointStillBanksCredit) {
  // Crediting is gated on restart_credit + checkpoint_panels alone: an
  // explicitly zero checkpoint_cost_s adds no I/O time but must NOT
  // disable banking — the cost knob is a tax, not a feature switch.
  std::vector<Job> jobs = {make_job(0, 0.0, 1 << 21, 64, 4)};
  const model::Roofline roof = model::paper_calibration();
  const ServiceReport clean = GridJobService(one_site(), roof).run(jobs);
  const double full_s = clean.outcomes[0].service_s;

  ServiceOptions credit;
  credit.outages = OutageTrace(
      std::vector<Outage>{{0, 0.7 * full_s, 0.7 * full_s + 1.0}});
  credit.restart_credit = true;
  credit.checkpoint_panels = 10;
  credit.checkpoint_cost_s = 0.0;  // explicit: free checkpoints
  const ServiceReport resumed =
      GridJobService(one_site(), roof, credit).run(jobs);
  expect_conserved(resumed, 1, one_site());
  ASSERT_EQ(resumed.outcomes[0].attempts, 2);
  EXPECT_NEAR(resumed.outcomes[0].credited_s, 0.7 * full_s, 1e-9 * full_s);
  EXPECT_NEAR(resumed.outcomes[0].service_s, 0.3 * full_s, 1e-9 * full_s);
}

TEST(FaultService, KillKindsChargeAlike) {
  // One job spanning both sites, ended at the same elapsed instant once
  // by its walltime and once by an outage it may not retry. Both kills
  // charge the same waste and the same WAN bytes, to the bit, whether
  // the bytes come from the replay pro rata or from the shared WAN
  // model's flow. Restart credit is the one difference: only the outage
  // kill banks panels.
  const std::vector<Job> jobs = {make_job(0, 0.0, 1 << 21, 64, 8)};
  const model::Roofline roof = model::paper_calibration();
  for (const bool contention : {false, true}) {
    ServiceOptions base;
    base.wan_contention = contention;
    base.max_retries = 0;
    const ServiceReport clean =
        GridJobService(small_grid(), roof, base).run(jobs);
    ASSERT_EQ(clean.outcomes[0].clusters.size(), 2u);  // spans the WAN
    ASSERT_EQ(clean.outcomes[0].start_s, 0.0);
    // Late enough that the shared model's flow has moved bytes: the
    // reduction crosses the WAN at the end of the timeline.
    const double kill_s = 0.95 * clean.outcomes[0].service_s;
    std::vector<Job> timed = jobs;
    timed[0].walltime_s = kill_s;

    for (const bool credit : {false, true}) {
      SCOPED_TRACE(std::string(contention ? "shared WAN" : "replay bytes") +
                   (credit ? ", restart credit" : ""));
      ServiceOptions options = base;
      options.restart_credit = credit;
      options.checkpoint_panels = 4;
      const ServiceReport walltime =
          GridJobService(small_grid(), roof, options).run(timed);
      options.outages =
          OutageTrace(std::vector<Outage>{{0, kill_s, kill_s + 1.0}});
      const ServiceReport outage =
          GridJobService(small_grid(), roof, options).run(jobs);
      expect_conserved(walltime, 1, small_grid());
      expect_conserved(outage, 1, small_grid());
      const JobOutcome& w = walltime.outcomes[0];
      const JobOutcome& o = outage.outcomes[0];
      ASSERT_EQ(w.fate, JobFate::kWalltimeKilled);
      ASSERT_EQ(o.fate, JobFate::kOutageFailed);
      EXPECT_EQ(w.finish_s, kill_s);
      EXPECT_EQ(o.finish_s, kill_s);

      EXPECT_GT(total_wan_bytes(walltime), 0);
      EXPECT_EQ(walltime.wan_egress_bytes, outage.wan_egress_bytes);
      EXPECT_EQ(walltime.wan_ingress_bytes, outage.wan_ingress_bytes);
      EXPECT_EQ(w.credited_s, 0.0);
      if (!credit) {
        EXPECT_GT(w.wasted_node_s, 0.0);
        EXPECT_EQ(o.wasted_node_s, w.wasted_node_s);
        EXPECT_EQ(outage.wasted_node_seconds, walltime.wasted_node_seconds);
        EXPECT_EQ(o.credited_s, 0.0);
      } else {
        // The outage kill banks the whole panels it reached and wastes
        // that much less; the walltime kill banks none.
        EXPECT_GT(o.credited_s, 0.0);
        EXPECT_LT(o.wasted_node_s, w.wasted_node_s);
        EXPECT_GT(outage.useful_node_seconds, walltime.useful_node_seconds);
      }
    }
  }
}

}  // namespace
}  // namespace qrgrid::sched
