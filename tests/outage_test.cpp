// OutageTrace edge cases: the boundaries the fault suite's scenario
// tests never reach — degenerate intervals, outages already in force at
// t = 0, and back-to-back / overlapping failures on one cluster (the
// depth-nesting path of the service's down counter).
#include "sched/outage.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "sched/service.hpp"
#include "sched/workload.hpp"

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

TEST(OutageTrace, RejectsZeroLengthAndBackwardIntervals) {
  // A cluster cannot be down for a zero-length instant: the down/up pair
  // would collapse onto one boundary and the up-before-down precedence
  // would flip the cluster's state for every later event.
  EXPECT_THROW(OutageTrace({Outage{0, 5.0, 5.0}}), Error);
  EXPECT_THROW(OutageTrace({Outage{0, 5.0, 4.0}}), Error);
  EXPECT_THROW(OutageTrace({Outage{-1, 1.0, 2.0}}), Error);
  EXPECT_THROW(OutageTrace({Outage{0, -1.0, 2.0}}), Error);
  // A vanishingly short repair window is legal — down and up remain two
  // ordered boundaries.
  OutageTrace tiny({Outage{0, 5.0, 5.0 + 1e-12}});
  EXPECT_EQ(tiny.pop().down, true);
  EXPECT_EQ(tiny.pop().down, false);
}

TEST(OutageTrace, OutageStartingAtTimeZero) {
  // The failure boundary at t = 0 must be consumable before any arrival:
  // the service processes outage events before arrivals at one instant.
  OutageTrace trace({Outage{1, 0.0, 3.0}});
  EXPECT_TRUE(trace.enabled());
  EXPECT_EQ(trace.peek_s(), 0.0);
  const OutageEvent down = trace.pop();
  EXPECT_EQ(down.time_s, 0.0);
  EXPECT_EQ(down.cluster, 1);
  EXPECT_TRUE(down.down);
  const OutageEvent up = trace.pop();
  EXPECT_EQ(up.time_s, 3.0);
  EXPECT_FALSE(up.down);
  EXPECT_EQ(trace.peek_s(), std::numeric_limits<double>::infinity());
}

TEST(OutageTrace, BackToBackFailuresOrderUpBeforeDown) {
  // [2, 4) immediately followed by [4, 6): at t = 4 the recovery must
  // sort before the new failure, so a consumer tracking a depth count
  // ends t = 4 with the cluster DOWN (depth 1), never at depth 2 with a
  // phantom recovery pending.
  OutageTrace trace({Outage{0, 4.0, 6.0}, Outage{0, 2.0, 4.0}});
  EXPECT_EQ(trace.pop().down, true);   // t=2 down
  const OutageEvent at4a = trace.pop();
  const OutageEvent at4b = trace.pop();
  EXPECT_EQ(at4a.time_s, 4.0);
  EXPECT_EQ(at4b.time_s, 4.0);
  EXPECT_FALSE(at4a.down);  // recovery first...
  EXPECT_TRUE(at4b.down);   // ...then the new failure
  const OutageEvent last = trace.pop();
  EXPECT_EQ(last.time_s, 6.0);
  EXPECT_FALSE(last.down);
}

TEST(OutageTrace, ServiceNestsOverlappingOutagesOnOneCluster) {
  // Overlapping intervals on cluster 0 — an outer outage spanning an
  // inner one: the inner recovery must NOT resurrect the cluster; a job
  // needing it waits for the OUTER recovery.
  std::vector<Job> jobs = {make_job(0, 0.0, 1 << 19, 64, 8)};
  const ServiceReport probe =
      GridJobService(small_grid(), model::paper_calibration()).run(jobs);
  const double span = probe.outcomes[0].service_s;
  ASSERT_GT(span, 0.0);
  const double outer_up = 10.0 * span;
  ServiceOptions options;
  options.outages = OutageTrace({Outage{0, 0.3 * span, outer_up},
                                 Outage{0, 0.4 * span, 0.5 * span}});
  options.max_retries = 3;
  GridJobService service(small_grid(), model::paper_calibration(), options);
  const ServiceReport report = service.run(jobs);
  ASSERT_EQ(report.outcomes.size(), 1u);
  // The whole-grid job was killed by the outer failure and could only
  // restart once cluster 0 FULLY recovered (depth back to zero).
  EXPECT_EQ(report.outcomes[0].fate, JobFate::kCompleted);
  EXPECT_EQ(report.outcomes[0].attempts, 2);
  EXPECT_GE(report.outcomes[0].start_s, outer_up);
}

TEST(OutageTrace, ServiceSurvivesOutageAtTimeZero) {
  // Cluster 0 is down from the very first instant; a whole-grid job
  // arriving at t = 0 must simply wait (no kill — it never started).
  std::vector<Job> jobs = {make_job(0, 0.0, 1 << 17, 64, 8)};
  ServiceOptions options;
  options.outages = OutageTrace({Outage{0, 0.0, 5.0}});
  GridJobService service(small_grid(), model::paper_calibration(), options);
  const ServiceReport report = service.run(jobs);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.outcomes[0].fate, JobFate::kCompleted);
  EXPECT_EQ(report.outcomes[0].attempts, 1);
  EXPECT_EQ(report.killed_jobs, 0);
  EXPECT_GE(report.outcomes[0].start_s, 5.0);
}

TEST(OutageTrace, ServiceHandlesBackToBackKillsOnOneCluster) {
  // The same job is killed twice by back-to-back failures and still
  // completes on its third attempt — bounded-retry bookkeeping across
  // consecutive outages of ONE cluster.
  std::vector<Job> jobs = {make_job(0, 0.0, 1 << 19, 64, 8)};
  // Probe: how long does one attempt take?
  const ServiceReport probe =
      GridJobService(small_grid(), model::paper_calibration()).run(jobs);
  const double span = probe.outcomes[0].service_s;
  ASSERT_GT(span, 0.0);
  ServiceOptions options;
  options.max_retries = 3;
  options.outages = OutageTrace({
      Outage{0, 0.3 * span, 0.3 * span + 1e-9},  // near-zero repair
      Outage{0, 0.3 * span + 0.4 * span, 0.3 * span + 0.4 * span + 1e-9},
  });
  GridJobService service(small_grid(), model::paper_calibration(), options);
  const ServiceReport report = service.run(jobs);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.outcomes[0].fate, JobFate::kCompleted);
  EXPECT_EQ(report.outcomes[0].attempts, 3);
  EXPECT_EQ(report.outage_kills, 2);
  EXPECT_EQ(report.requeued_jobs, 2);
  EXPECT_GT(report.wasted_node_seconds, 0.0);
}

TEST(OutageTrace, GeneratorRefusesNegativeOrNanMtbf) {
  // A negative MTBF once generated an empty trace, so the run went
  // fault-free without a word; zero stays the documented "no faults".
  for (const double mtbf : {-5.0, std::numeric_limits<double>::quiet_NaN()}) {
    try {
      OutageTrace(OutageSpec{mtbf, 1.0, 1}, 2);
      ADD_FAILURE() << "mtbf " << mtbf << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("mtbf_s must be >= 0"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_FALSE(OutageTrace(OutageSpec{0.0, 1.0, 1}, 2).enabled());
}

TEST(OutageTrace, GeneratorEventsAlternateAndAdvancePerCluster) {
  OutageSpec spec;
  spec.mtbf_s = 10.0;
  spec.mean_outage_s = 2.0;
  spec.seed = 123;
  OutageTrace trace(spec, 3);
  ASSERT_TRUE(trace.enabled());
  std::vector<bool> down(3, false);
  std::vector<double> last(3, -1.0);
  double prev = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double peek = trace.peek_s();
    const OutageEvent ev = trace.pop();
    EXPECT_EQ(ev.time_s, peek);
    EXPECT_GE(ev.time_s, prev);  // globally ordered
    prev = ev.time_s;
    ASSERT_GE(ev.cluster, 0);
    ASSERT_LT(ev.cluster, 3);
    const auto c = static_cast<std::size_t>(ev.cluster);
    // Per cluster: strictly increasing times, strictly alternating
    // down/up starting with a failure.
    EXPECT_GT(ev.time_s, last[c]);
    last[c] = ev.time_s;
    EXPECT_NE(ev.down, down[c]) << "event " << i;
    down[c] = ev.down;
  }
}

TEST(OutageTrace, CopyPreservesCursorAndGeneratorState) {
  // Value semantics: the service replays a COPY of the options' trace per
  // run, so consuming the copy must leave the original untouched.
  OutageSpec spec;
  spec.mtbf_s = 5.0;
  spec.mean_outage_s = 1.0;
  spec.seed = 7;
  OutageTrace original(spec, 2);
  OutageTrace copy = original;
  std::vector<OutageEvent> from_copy, from_original;
  for (int i = 0; i < 50; ++i) from_copy.push_back(copy.pop());
  for (int i = 0; i < 50; ++i) from_original.push_back(original.pop());
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(from_copy[static_cast<std::size_t>(i)].time_s,
              from_original[static_cast<std::size_t>(i)].time_s);
    EXPECT_EQ(from_copy[static_cast<std::size_t>(i)].cluster,
              from_original[static_cast<std::size_t>(i)].cluster);
    EXPECT_EQ(from_copy[static_cast<std::size_t>(i)].down,
              from_original[static_cast<std::size_t>(i)].down);
  }
}

}  // namespace
}  // namespace qrgrid::sched
