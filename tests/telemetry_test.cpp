// The observability layer: MetricsRegistry semantics (counters, gauges,
// fixed-bucket histograms, step-function series), the structured event
// stream end to end on real service runs (validator-clean across the
// policy x allocator x backend matrix), byte-determinism of the exported
// trace and metrics JSON under a fixed seed, the zero-perturbation
// contract (a traced run reports exactly what an untraced run reports),
// and the TraceValidator's teeth — each pinned invariant is broken by a
// synthetic stream and must be caught.
#include "sched/telemetry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/des_algos.hpp"
#include "model/roofline.hpp"
#include "sched/backend.hpp"
#include "sched/policy.hpp"
#include "sched/service.hpp"
#include "sched/workload.hpp"
#include "simgrid/topology.hpp"

namespace qrgrid::sched {
namespace {

simgrid::GridTopology small_grid() {
  // 2 sites x 2 nodes x 2 procs = 8 processes, 4 nodes.
  return simgrid::GridTopology::grid5000(2, 2, 2);
}

/// Seeded workload small enough that even the msg backend (REAL threaded
/// factorizations per attempt) keeps the matrix fast.
std::vector<Job> small_workload(int jobs, std::uint64_t seed) {
  WorkloadSpec spec;
  spec.jobs = jobs;
  spec.mean_interarrival_s = 0.05;
  spec.seed = seed;
  spec.users = 2;
  spec.priority_levels = 2;
  spec.procs_choices = {2, 4, 8};
  spec.m_choices = {4096, 8192};
  spec.n_choices = {8, 16};
  return generate_workload(spec);
}

struct TelemetryRun {
  ServiceReport report;
  std::string trace_json;
  std::string metrics_json;
  std::vector<ServiceTraceEvent> events;
};

TelemetryRun run_with_telemetry(const simgrid::GridTopology& topo,
                                const std::vector<Job>& jobs,
                                ServiceOptions options) {
  ServiceTracer tracer;
  MetricsRegistry metrics;
  options.tracer = &tracer;
  options.metrics = &metrics;
  GridJobService service(topo, model::paper_calibration(), options);
  TelemetryRun run;
  run.report = service.run(jobs);
  std::ostringstream trace_out;
  write_chrome_trace(tracer.events(), trace_out);
  run.trace_json = trace_out.str();
  std::ostringstream metrics_out;
  metrics.write_json(metrics_out);
  run.metrics_json = metrics_out.str();
  run.events = tracer.events();
  return run;
}

// ------------------------------------------------------------- registry

TEST(MetricsRegistry, CountersGaugesAndAccessors) {
  MetricsRegistry reg;
  reg.add("hits");
  reg.add("hits", 4);
  reg.set("level", 2.5);
  reg.set("level", 3.5);  // gauges overwrite
  EXPECT_EQ(reg.counter("hits"), 5);
  EXPECT_EQ(reg.counter("never-touched"), 0);
  EXPECT_DOUBLE_EQ(reg.gauge("level"), 3.5);
  EXPECT_DOUBLE_EQ(reg.gauge("never-touched"), 0.0);
}

TEST(MetricsRegistry, HistogramBucketsSumAndOverflow) {
  MetricsRegistry reg;
  const std::vector<double> bounds = {1.0, 10.0};
  reg.observe("h", 0.5, bounds);   // bucket 0
  reg.observe("h", 1.0, bounds);   // bucket 0 (<= bound)
  reg.observe("h", 5.0, bounds);   // bucket 1
  reg.observe("h", 99.0, bounds);  // overflow bucket
  const HistogramSnapshot* snap = reg.histogram("h");
  ASSERT_NE(snap, nullptr);
  ASSERT_EQ(snap->counts.size(), bounds.size() + 1);
  EXPECT_EQ(snap->counts[0], 2);
  EXPECT_EQ(snap->counts[1], 1);
  EXPECT_EQ(snap->counts[2], 1);
  EXPECT_EQ(snap->count, 4);
  EXPECT_DOUBLE_EQ(snap->sum, 105.5);
  EXPECT_EQ(reg.histogram("missing"), nullptr);
  // Bounds are fixed at creation; a conflicting re-declaration throws.
  EXPECT_THROW(reg.observe("h", 1.0, {2.0, 20.0}), Error);
  // The one-argument overload uses the default log-spaced scale.
  reg.observe("d", 0.5);
  ASSERT_NE(reg.histogram("d"), nullptr);
  EXPECT_EQ(reg.histogram("d")->bounds, MetricsRegistry::default_bounds());
}

TEST(MetricsRegistry, SeriesDropsUnchangedAndOverwritesSameInstant) {
  MetricsRegistry reg;
  reg.sample("q", 0.0, 1.0);
  reg.sample("q", 1.0, 1.0);  // unchanged value: dropped (step curve)
  reg.sample("q", 2.0, 3.0);
  reg.sample("q", 2.0, 4.0);  // same instant: latest wins
  const auto* series = reg.series("q");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->size(), 2u);
  EXPECT_DOUBLE_EQ((*series)[0].second, 1.0);
  EXPECT_DOUBLE_EQ((*series)[1].first, 2.0);
  EXPECT_DOUBLE_EQ((*series)[1].second, 4.0);
}

TEST(MetricsRegistry, WriteJsonIsStableAndStructured) {
  MetricsRegistry reg;
  reg.add("z.counter", 2);
  reg.add("a.counter");
  reg.set("gauge", 1.25);
  reg.observe("h", 2.0, {1.0, 10.0});
  reg.sample("s", 0.5, 2.0);
  std::ostringstream first, second;
  reg.write_json(first);
  reg.write_json(second);
  EXPECT_EQ(first.str(), second.str());
  const std::string json = first.str();
  // Ordered maps: keys appear sorted, all four sections present.
  EXPECT_LT(json.find("\"a.counter\""), json.find("\"z.counter\""));
  for (const char* section : {"counters", "gauges", "histograms", "series"}) {
    EXPECT_NE(json.find('"' + std::string(section) + '"'), std::string::npos)
        << section;
  }
}

// ------------------------------------------------- traced service runs

TEST(ServiceTrace, LifecycleEventsAndValidatorOnHealthyRun) {
  const simgrid::GridTopology topo = small_grid();
  const std::vector<Job> jobs = small_workload(25, 77);
  ServiceOptions options;
  options.policy = Policy::kEasyBackfill;
  const TelemetryRun run = run_with_telemetry(topo, jobs, options);
  EXPECT_TRUE(validate_trace(run.events).empty());
  ASSERT_FALSE(run.events.empty());
  // First event declares the run configuration: policy name + flags.
  EXPECT_EQ(run.events.front().kind, TraceKind::kRunConfig);
  EXPECT_EQ(run.events.front().note, "easy");
  EXPECT_EQ(static_cast<int>(run.events.front().value) &
                kTraceConfigBackfills,
            kTraceConfigBackfills);
  // Every job arrives exactly once and completes exactly once (healthy
  // scenario: no faults, no walltimes).
  int arrivals = 0, completions = 0, dispatches = 0;
  for (const ServiceTraceEvent& ev : run.events) {
    if (ev.kind == TraceKind::kArrival) ++arrivals;
    if (ev.kind == TraceKind::kCompletion) ++completions;
    if (ev.kind == TraceKind::kDispatch ||
        ev.kind == TraceKind::kBackfillStart) {
      ++dispatches;
      // Dispatch events carry the granted placement.
      EXPECT_FALSE(ev.clusters.empty());
      EXPECT_EQ(ev.clusters.size(), ev.nodes.size());
    }
  }
  EXPECT_EQ(arrivals, static_cast<int>(jobs.size()));
  EXPECT_EQ(completions, static_cast<int>(jobs.size()));
  EXPECT_EQ(dispatches, static_cast<int>(jobs.size()));
  // Attempt spans reconstruct one span per dispatch, all completed.
  const std::vector<AttemptSpan> spans = attempt_spans(run.events);
  ASSERT_EQ(spans.size(), jobs.size());
  for (const AttemptSpan& span : spans) {
    EXPECT_EQ(span.end_kind, TraceKind::kCompletion);
    EXPECT_GT(span.end_s, span.start_s);
  }
}

TEST(ServiceTrace, ValidatorPassesUnderChurnAndContention) {
  // Outages + over-asked walltimes + shared WAN: the hardest stream the
  // service emits. The validator must accept every one of them.
  // Figure-scale job shapes (the workload defaults), NOT the msg-sized
  // ones: attempts must be long enough for outages to land on them.
  const simgrid::GridTopology topo = small_grid();
  WorkloadSpec spec;
  spec.jobs = 30;
  spec.mean_interarrival_s = 0.1;
  spec.procs_choices = {2, 4, 8};
  spec.seed = 41;
  std::vector<Job> jobs = generate_workload(spec);
  {
    const GridJobService predictor(topo, model::paper_calibration());
    assign_walltimes(jobs, 3.0, 41, [&](const Job& j) {
      return predictor.predicted_seconds(j);
    });
  }
  OutageSpec outage_spec;
  outage_spec.mtbf_s = 10.0;
  outage_spec.mean_outage_s = 1.5;
  outage_spec.seed = 43;
  for (const Policy policy :
       {Policy::kEasyBackfill, Policy::kPriorityEasy, Policy::kFairShare}) {
    ServiceOptions options;
    options.policy = policy;
    options.outages = OutageTrace(outage_spec, topo.num_clusters());
    options.wan_contention = true;
    options.wan_aware = true;
    const TelemetryRun run = run_with_telemetry(topo, jobs, options);
    const std::vector<std::string> violations = validate_trace(run.events);
    EXPECT_TRUE(violations.empty())
        << policy_name(policy) << ": "
        << (violations.empty() ? "" : violations.front());
    // Churn actually happened — the stream must show it.
    int kills = 0, requeues = 0;
    for (const ServiceTraceEvent& ev : run.events) {
      if (ev.kind == TraceKind::kOutageKill) ++kills;
      if (ev.kind == TraceKind::kRequeue) ++requeues;
    }
    EXPECT_GT(kills, 0) << policy_name(policy);
    EXPECT_GT(requeues, 0) << policy_name(policy);
  }
}

TEST(ServiceTrace, TelemetryDoesNotPerturbTheService) {
  // The zero-cost contract's behavioral half: a fully instrumented run
  // reports exactly what the bare run reports, column for column.
  const simgrid::GridTopology topo = small_grid();
  const std::vector<Job> jobs = small_workload(20, 9);
  for (const Policy policy : {Policy::kEasyBackfill, Policy::kFairShare}) {
    ServiceOptions options;
    options.policy = policy;
    options.wan_contention = true;
    GridJobService bare(topo, model::paper_calibration(), options);
    const ServiceReport untraced = bare.run(jobs);
    const TelemetryRun traced = run_with_telemetry(topo, jobs, options);
    EXPECT_EQ(summary_row(untraced), summary_row(traced.report))
        << policy_name(policy);
  }
}

TEST(ServiceTrace, ByteDeterministicAcrossPolicyAllocatorBackendMatrix) {
  // Same seed, same configuration => byte-identical trace AND metrics
  // JSON. Sampled matrix: every policy on the des backend, both WAN
  // allocators, and the msg backend (real threaded executions) on two
  // policies — the combinations that exercise distinct emit paths.
  struct Config {
    Policy policy;
    WanFairness fairness;
    BackendKind backend;
  };
  const std::vector<Config> matrix = {
      {Policy::kFcfs, WanFairness::kEqualSplit, BackendKind::kDesReplay},
      {Policy::kSpjf, WanFairness::kEqualSplit, BackendKind::kDesReplay},
      {Policy::kEasyBackfill, WanFairness::kEqualSplit,
       BackendKind::kDesReplay},
      {Policy::kPriorityEasy, WanFairness::kMaxMin, BackendKind::kDesReplay},
      {Policy::kFairShare, WanFairness::kMaxMin, BackendKind::kDesReplay},
      {Policy::kEasyBackfill, WanFairness::kEqualSplit,
       BackendKind::kMsgRuntime},
      {Policy::kFairShare, WanFairness::kMaxMin, BackendKind::kMsgRuntime},
  };
  const simgrid::GridTopology topo = small_grid();
  const std::vector<Job> jobs = small_workload(12, 23);
  for (const Config& config : matrix) {
    ServiceOptions options;
    options.policy = config.policy;
    options.wan_contention = true;
    options.wan_fairness = config.fairness;
    options.backend = config.backend;
    if (config.backend == BackendKind::kMsgRuntime) {
      options.domains_per_cluster = core::kOneDomainPerProcess;
    }
    const TelemetryRun first = run_with_telemetry(topo, jobs, options);
    const TelemetryRun second = run_with_telemetry(topo, jobs, options);
    const std::string label = std::string(policy_name(config.policy)) + "/" +
                              wan_fairness_name(config.fairness) + "/" +
                              backend_name(config.backend);
    EXPECT_EQ(first.trace_json, second.trace_json) << label;
    EXPECT_EQ(first.metrics_json, second.metrics_json) << label;
    EXPECT_TRUE(validate_trace(first.events).empty()) << label;
  }
}

TEST(ServiceTrace, PolicyCostCountersAreRecorded) {
  const simgrid::GridTopology topo = small_grid();
  const std::vector<Job> jobs = small_workload(20, 13);
  ServiceTracer tracer;
  MetricsRegistry metrics;
  ServiceOptions options;
  options.policy = Policy::kFairShare;
  options.tracer = &tracer;
  options.metrics = &metrics;
  GridJobService service(topo, model::paper_calibration(), options);
  service.run(jobs);
  // Fair-share is a dynamic-order policy: every attempt accrues service
  // (the policy hook) and the queue resorts between dispatches.
  EXPECT_EQ(metrics.counter("policy.attempt_starts"),
            static_cast<long long>(jobs.size()));
  EXPECT_GT(metrics.counter("policy.resorts"), 0);
  EXPECT_GT(metrics.counter("dispatch.head_place_scans"), 0);
  EXPECT_GT(metrics.counter("backend.profile_misses"), 0);
  // End-of-run gauges and per-iteration series landed.
  EXPECT_GT(metrics.gauge("service.makespan_s"), 0.0);
  ASSERT_NE(metrics.series("queue_depth"), nullptr);
  EXPECT_FALSE(metrics.series("queue_depth")->empty());
  ASSERT_NE(metrics.histogram("wait_s.user.0"), nullptr);
}

// ----------------------------------------------------------- exporters

TEST(ChromeTrace, WellFormedWithLifecycleSpans) {
  // Figure-scale shapes so jobs actually queue — wait spans need a
  // non-zero wait to show up.
  const simgrid::GridTopology topo = small_grid();
  WorkloadSpec spec;
  spec.jobs = 10;
  spec.mean_interarrival_s = 0.1;
  spec.procs_choices = {2, 4, 8};
  spec.seed = 5;
  const std::vector<Job> jobs = generate_workload(spec);
  ServiceOptions options;
  options.policy = Policy::kEasyBackfill;
  const TelemetryRun run = run_with_telemetry(topo, jobs, options);
  const std::string& json = run.trace_json;
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\"", 0), 0u);
  EXPECT_EQ(json.back(), '\n');
  // Process metadata for the three tracks, complete spans, counters.
  for (const char* needle :
       {"\"traceEvents\"", "\"jobs\"", "\"clusters\"", "\"ph\": \"X\"",
        "\"ph\": \"M\"", "\"ph\": \"C\"", "\"name\": \"run\"",
        "\"name\": \"wait\"", "pending_jobs", "running_jobs"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

TEST(ClusterGantt, RendersBusiestClustersWithLabels) {
  const simgrid::GridTopology topo = small_grid();
  const std::vector<Job> jobs = small_workload(15, 29);
  ServiceOptions options;
  options.policy = Policy::kFcfs;
  const TelemetryRun run = run_with_telemetry(topo, jobs, options);
  const std::string both = render_cluster_gantt(run.events, topo, 8);
  EXPECT_NE(both.find("(c0)"), std::string::npos);
  EXPECT_NE(both.find("completed-attempt occupancy"), std::string::npos);
  // The cluster budget truncates to the busiest sites.
  const std::string one = render_cluster_gantt(run.events, topo, 1);
  EXPECT_EQ(one.find("(c") != std::string::npos, true);
  EXPECT_LT(one.size(), both.size());
  // No attempts => nothing to draw.
  EXPECT_TRUE(render_cluster_gantt({}, topo, 8).empty());
  // A cluster tag off the grid (negative included) is labeled by id,
  // never looked up in the topology.
  ServiceTraceEvent start;
  start.kind = TraceKind::kDispatch;
  start.job = 0;
  start.clusters = {-1};
  start.nodes = {1};
  ServiceTraceEvent done = start;
  done.kind = TraceKind::kCompletion;
  done.t_s = 1.0;
  EXPECT_NE(render_cluster_gantt({start, done}, topo, 8).find("(c-1)"),
            std::string::npos);
}

// ----------------------------------------------------------- validator

/// Shorthand for synthetic streams: every stream opens with a
/// kRunConfig carrying `config_bits`.
ServiceTraceEvent ev(double t_s, TraceKind kind, int job = -1) {
  ServiceTraceEvent event;
  event.t_s = t_s;
  event.kind = kind;
  event.job = job;
  return event;
}

std::vector<ServiceTraceEvent> with_config(
    int config_bits, std::vector<ServiceTraceEvent> tail) {
  std::vector<ServiceTraceEvent> events;
  ServiceTraceEvent config = ev(0.0, TraceKind::kRunConfig);
  config.value = config_bits;
  events.push_back(config);
  events.insert(events.end(), tail.begin(), tail.end());
  return events;
}

TEST(TraceValidator, FlagsPayloadsNoIntCanHold) {
  // Streams can come from restored snapshot bytes: run-config flags and
  // blame categories far outside int range (or NaN) are violations, not
  // undefined double-to-int casts.
  const double huge = 1e300;
  EXPECT_TRUE(validate_trace(with_config(0, {})).empty());
  std::vector<ServiceTraceEvent> bad_flags = with_config(0, {});
  bad_flags[0].value = huge;
  EXPECT_FALSE(validate_trace(bad_flags).empty());
  for (const double category : {huge, -huge, std::nan(""), 2.5}) {
    ServiceTraceEvent blame = ev(1.0, TraceKind::kWaitBlame, 0);
    blame.value = 1.0;
    blame.value2 = category;
    const auto violations = validate_trace(with_config(
        kTraceConfigWaitBlame, {ev(0.0, TraceKind::kArrival, 0), blame}));
    ASSERT_FALSE(violations.empty()) << category;
    EXPECT_NE(violations.front().find("invalid blame category"),
              std::string::npos)
        << category;
  }
}

TEST(TraceValidator, CatchesDecreasingTimestamps) {
  const auto violations = validate_trace(with_config(
      0, {ev(5.0, TraceKind::kArrival, 0), ev(3.0, TraceKind::kArrival, 1)}));
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("backwards"), std::string::npos);
}

TEST(TraceValidator, CatchesPrecedenceInversionAtOneInstant) {
  // Job 0 runs; at t=5 an arrival is recorded BEFORE job 0's completion
  // at the same instant — finishes must precede arrivals.
  const auto violations = validate_trace(with_config(
      0, {ev(1.0, TraceKind::kArrival, 0), ev(2.0, TraceKind::kDispatch, 0),
          ev(5.0, TraceKind::kArrival, 1),
          ev(5.0, TraceKind::kCompletion, 0)}));
  EXPECT_FALSE(violations.empty());
}

TEST(TraceValidator, CatchesDispatchWithoutArrival) {
  const auto violations =
      validate_trace(with_config(0, {ev(1.0, TraceKind::kDispatch, 7)}));
  EXPECT_FALSE(violations.empty());
}

TEST(TraceValidator, CatchesDoubleTerminal) {
  const auto violations = validate_trace(with_config(
      0, {ev(1.0, TraceKind::kArrival, 0), ev(2.0, TraceKind::kDispatch, 0),
          ev(3.0, TraceKind::kCompletion, 0),
          ev(4.0, TraceKind::kCompletion, 0)}));
  EXPECT_FALSE(violations.empty());
}

TEST(TraceValidator, CatchesJobLeftRunningAtEndOfStream) {
  const auto violations = validate_trace(with_config(
      0, {ev(1.0, TraceKind::kArrival, 0), ev(2.0, TraceKind::kDispatch, 0)}));
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("running"), std::string::npos);
}

TEST(TraceValidator, CatchesWanByteDeficit) {
  // A flow that claims full drain (value2 == 1) but moved a tenth of
  // what it admitted breaks byte conservation.
  ServiceTraceEvent open = ev(1.0, TraceKind::kWanFlowOpen);
  open.flow = 0;
  open.value = 1000.0;
  ServiceTraceEvent retire = ev(2.0, TraceKind::kWanFlowRetire);
  retire.flow = 0;
  retire.value = 100.0;
  retire.value2 = 1.0;
  const auto violations =
      validate_trace(with_config(kTraceConfigWanContention, {open, retire}));
  EXPECT_FALSE(violations.empty());
}

TEST(TraceValidator, CatchesBrokenNoDelayPromise) {
  // Contention-free, outage-free run (the configuration under which the
  // promise is provable): a claim at t=5 bounds job 0's start, and the
  // actual dispatch at t=7 breaks it.
  ServiceTraceEvent claim = ev(1.0, TraceKind::kReservationClaim, 0);
  claim.value = 5.0;
  const auto violations = validate_trace(with_config(
      kTraceConfigBackfills,
      {ev(0.5, TraceKind::kArrival, 0), claim,
       ev(7.0, TraceKind::kDispatch, 0), ev(8.0, TraceKind::kCompletion, 0)}));
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("promise"), std::string::npos);
  // A withdrawn claim binds nothing: the same stream with the withdrawal
  // recorded is clean.
  ServiceTraceEvent withdraw = ev(4.0, TraceKind::kReservationWithdraw, 0);
  EXPECT_TRUE(validate_trace(with_config(
                  kTraceConfigBackfills,
                  {ev(0.5, TraceKind::kArrival, 0), claim, withdraw,
                   ev(7.0, TraceKind::kDispatch, 0),
                   ev(8.0, TraceKind::kCompletion, 0)}))
                  .empty());
}

TEST(TraceValidator, AcceptsRequeueOnlyAfterOutageKill) {
  // Requeue without a preceding outage kill is illegal...
  const auto bad = validate_trace(with_config(
      kTraceConfigHasOutages,
      {ev(1.0, TraceKind::kArrival, 0), ev(2.0, TraceKind::kRequeue, 0)}));
  EXPECT_FALSE(bad.empty());
  // ...while the real kill -> requeue -> redispatch cycle is clean.
  ServiceTraceEvent kill = ev(3.0, TraceKind::kOutageKill, 0);
  kill.cluster = 0;
  EXPECT_TRUE(
      validate_trace(
          with_config(kTraceConfigHasOutages,
                      {ev(1.0, TraceKind::kArrival, 0),
                       ev(2.0, TraceKind::kDispatch, 0), kill,
                       ev(3.0, TraceKind::kRequeue, 0),
                       ev(4.0, TraceKind::kDispatch, 0),
                       ev(5.0, TraceKind::kCompletion, 0)}))
          .empty());
}

}  // namespace
}  // namespace qrgrid::sched
