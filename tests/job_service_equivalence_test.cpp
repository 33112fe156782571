// Service-layer engine equivalence: the same queued workload driven
// through the cached-DES-replay backend and the threaded msg::Runtime
// backend must (1) produce IDENTICAL scheduling decisions — placement,
// start order, backfill choices — because both backends schedule with
// the same DES profile by construction, (2) agree on finish times within
// a stated tolerance when the replay layout matches the real execution
// (one domain per process), (3) pass real numerics gates on every
// msg-executed factorization, and (4) yield matching kill/requeue
// accounting under injected outages, with the msg backend's kills landing
// as REAL mid-factorization aborts through the communicator (the
// failure_test propagation machinery), not synthetic replay truncations.
//
// This is the test that turns the simulator into a validated predictor:
// the paper's DES replay claims are checked against actual multi-site
// TSQR executions at the service layer.
#include "sched/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "core/des_algos.hpp"
#include "sched/outage.hpp"
#include "sched/telemetry.hpp"
#include "sched/workload.hpp"

namespace qrgrid::sched {
namespace {

/// Finish-time agreement gate between the measured msg-runtime makespan
/// and the DES replay of the same attempt, for one-domain-per-process
/// layouts with n <= 128 (where the two schedules are structurally
/// identical and even the combine-kernel roofline rates coincide). The
/// only modeled difference left is the replay's aggregate-WAN horizon
/// booking, which is microscopic at these byte counts.
constexpr double kFinishTimeTolerance = 0.02;
/// Real numerics gate per executed job (same bound as `qrgrid_cli
/// factor`): ||A - QR||/||A|| and ||Q^T Q - I||.
constexpr double kNumericsTolerance = 1e-10;

simgrid::GridTopology small_grid() {
  // 2 sites x 2 nodes x 2 procs = 8 processes, 4 nodes.
  return simgrid::GridTopology::grid5000(2, 2, 2);
}

/// Workload small enough to execute for real: the msg backend factors
/// every matrix on live threads, so shapes stay in the
/// hundreds-of-thousands-of-entries range, with arrivals tight enough
/// that queues (and EASY backfill holes) actually form.
std::vector<Job> small_workload(int jobs, std::uint64_t seed) {
  WorkloadSpec spec;
  spec.jobs = jobs;
  spec.mean_interarrival_s = 0.004;
  spec.m_choices = {512, 1024, 2048};
  spec.n_choices = {16, 32};
  spec.procs_choices = {2, 4, 8};
  spec.seed = seed;
  return generate_workload(spec);
}

ServiceOptions backend_options(BackendKind kind, Policy policy) {
  ServiceOptions options;
  options.policy = policy;
  options.backend = kind;
  // One single-rank domain per process: the layout under which the DES
  // replay is structurally identical to the threaded tsqr_factor run.
  options.domains_per_cluster = core::kOneDomainPerProcess;
  return options;
}

ServiceReport run_backend(BackendKind kind, const std::vector<Job>& jobs,
                          ServiceOptions options) {
  options.backend = kind;
  GridJobService service(small_grid(), model::paper_calibration(), options);
  return service.run(jobs);
}

/// Every field a scheduling decision shows up in. Finish times are
/// included on purpose: virtual time is driven by the shared profile, so
/// even THEY must match to the bit across backends.
void expect_identical_decisions(const ServiceReport& a,
                                const ServiceReport& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const JobOutcome& x = a.outcomes[i];
    const JobOutcome& y = b.outcomes[i];
    EXPECT_EQ(x.job.id, y.job.id);
    EXPECT_EQ(x.start_s, y.start_s) << "job " << x.job.id;
    EXPECT_EQ(x.finish_s, y.finish_s) << "job " << x.job.id;
    EXPECT_EQ(x.clusters, y.clusters) << "job " << x.job.id;
    EXPECT_EQ(x.nodes_per_cluster, y.nodes_per_cluster)
        << "job " << x.job.id;
    EXPECT_EQ(x.backfilled, y.backfilled) << "job " << x.job.id;
    EXPECT_EQ(x.fate, y.fate) << "job " << x.job.id;
    EXPECT_EQ(x.attempts, y.attempts) << "job " << x.job.id;
    EXPECT_EQ(x.wasted_node_s, y.wasted_node_s) << "job " << x.job.id;
    EXPECT_EQ(x.credited_s, y.credited_s) << "job " << x.job.id;
  }
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.backfilled_jobs, b.backfilled_jobs);
  EXPECT_EQ(a.killed_jobs, b.killed_jobs);
  EXPECT_EQ(a.requeued_jobs, b.requeued_jobs);
  EXPECT_EQ(a.walltime_kills, b.walltime_kills);
  EXPECT_EQ(a.outage_kills, b.outage_kills);
  EXPECT_EQ(a.completed_jobs, b.completed_jobs);
  EXPECT_EQ(a.failed_jobs, b.failed_jobs);
  EXPECT_EQ(a.wasted_node_seconds, b.wasted_node_seconds);
  EXPECT_EQ(a.wan_egress_bytes, b.wan_egress_bytes);
}

TEST(BackendEquivalence, IdenticalSchedulingDecisionsOn24Jobs) {
  const std::vector<Job> jobs = small_workload(24, 41);
  for (const Policy policy :
       {Policy::kFcfs, Policy::kSpjf, Policy::kEasyBackfill}) {
    const ServiceOptions options = backend_options(BackendKind::kDesReplay,
                                                   policy);
    const ServiceReport des =
        run_backend(BackendKind::kDesReplay, jobs, options);
    const ServiceReport msg =
        run_backend(BackendKind::kMsgRuntime, jobs, options);
    expect_identical_decisions(des, msg);
    // The workload genuinely exercises the scheduler, not just the
    // backends: queues form, and EASY finds backfill holes.
    if (policy == Policy::kEasyBackfill) {
      EXPECT_GT(msg.backfilled_jobs, 0);
    }
    // Replay backend executes nothing; msg backend executes everything.
    EXPECT_EQ(des.executed_attempts, 0);
    EXPECT_EQ(msg.executed_attempts, msg.completed_jobs);
    for (const JobOutcome& o : des.outcomes) EXPECT_FALSE(o.executed);
    for (const JobOutcome& o : msg.outcomes) {
      EXPECT_TRUE(o.executed) << "job " << o.job.id;
      EXPECT_FALSE(o.exec_aborted) << "job " << o.job.id;
    }
  }
}

TEST(BackendEquivalence, MeasuredFinishTimesMatchReplayWithinTolerance) {
  const std::vector<Job> jobs = small_workload(24, 43);
  const ServiceOptions options =
      backend_options(BackendKind::kMsgRuntime, Policy::kEasyBackfill);
  const ServiceReport report = run_backend(
      BackendKind::kMsgRuntime, jobs, options);
  ASSERT_EQ(report.completed_jobs,
            static_cast<long long>(report.outcomes.size()));
  for (const JobOutcome& o : report.outcomes) {
    ASSERT_TRUE(o.executed);
    ASSERT_GT(o.measured_s, 0.0);
    // service_s of a fault-free, contention-free attempt IS the replay
    // makespan; the measured threaded run must land within tolerance.
    const double rel = std::abs(o.measured_s - o.service_s) / o.service_s;
    EXPECT_LE(rel, kFinishTimeTolerance)
        << "job " << o.job.id << ": measured " << o.measured_s
        << " s vs replay " << o.service_s << " s";
  }
}

TEST(BackendEquivalence, MsgExecutedJobsMeetNumericsGates) {
  const std::vector<Job> jobs = small_workload(20, 47);
  const ServiceOptions options =
      backend_options(BackendKind::kMsgRuntime, Policy::kFcfs);
  const ServiceReport report =
      run_backend(BackendKind::kMsgRuntime, jobs, options);
  for (const JobOutcome& o : report.outcomes) {
    ASSERT_TRUE(o.completed());
    EXPECT_TRUE(std::isfinite(o.residual)) << "job " << o.job.id;
    EXPECT_LT(o.residual, kNumericsTolerance) << "job " << o.job.id;
    EXPECT_LT(o.orthogonality, kNumericsTolerance) << "job " << o.job.id;
  }
  EXPECT_GT(report.max_residual, 0.0);  // a real factorization happened
  EXPECT_LT(report.max_residual, kNumericsTolerance);
  EXPECT_LT(report.max_orthogonality, kNumericsTolerance);
  // Distinct jobs factor distinct matrices: at least two different
  // residuals across the workload.
  bool distinct = false;
  for (const JobOutcome& o : report.outcomes) {
    distinct |= o.residual != report.outcomes[0].residual;
  }
  EXPECT_TRUE(distinct);
}

TEST(BackendEquivalence, InjectedOutageMatchesAcrossBackends) {
  const std::vector<Job> jobs = small_workload(20, 53);
  ServiceOptions options =
      backend_options(BackendKind::kDesReplay, Policy::kFcfs);

  // Probe run (replay backend, no faults): find a mid-run window of a
  // job holding nodes on cluster 0 and drop the cluster inside it.
  const ServiceReport probe =
      run_backend(BackendKind::kDesReplay, jobs, options);
  double down_s = -1.0, up_s = -1.0;
  for (const JobOutcome& o : probe.outcomes) {
    const bool on_cluster0 =
        std::find(o.clusters.begin(), o.clusters.end(), 0) !=
        o.clusters.end();
    if (on_cluster0 && o.service_s > 0.0) {
      down_s = o.start_s + 0.5 * o.service_s;
      up_s = down_s + 2.0 * o.service_s;
      break;
    }
  }
  ASSERT_GT(down_s, 0.0) << "probe found no cluster-0 job to kill";

  options.outages = OutageTrace({Outage{0, down_s, up_s}});
  options.max_retries = 3;
  const ServiceReport des =
      run_backend(BackendKind::kDesReplay, jobs, options);
  const ServiceReport msg =
      run_backend(BackendKind::kMsgRuntime, jobs, options);

  // The outage really killed (and requeued) at least one job, and the
  // fate/attempt/waste accounting agrees column for column.
  EXPECT_GT(des.outage_kills, 0);
  EXPECT_GT(des.requeued_jobs, 0);
  expect_identical_decisions(des, msg);

  // The msg backend's kills were REAL: the in-flight factorizations
  // aborted mid-run through the communicator (the kill interrupts the
  // operation in progress, so the furthest clock reads exactly the kill
  // point), proving the real runs genuinely had work in flight at the
  // injected truncation instants. A replay that overestimated the real
  // runtime would complete before its limit and fail the lower bound.
  EXPECT_EQ(msg.aborted_attempts, msg.killed_jobs);
  ASSERT_GT(msg.injected_abort_vtime_s, 0.0);
  EXPECT_GE(msg.measured_abort_vtime_s,
            msg.injected_abort_vtime_s * (1.0 - kFinishTimeTolerance));
  EXPECT_LE(msg.measured_abort_vtime_s,
            msg.injected_abort_vtime_s + 1e-9);
  EXPECT_EQ(des.aborted_attempts, 0);
  EXPECT_EQ(des.injected_abort_vtime_s, 0.0);
}

TEST(BackendEquivalence, WalltimeKillAbortsTheRealRunMidFactorization) {
  // One job, walltime pinned to 60% of its replay: both backends kill it
  // finally; on the msg backend the communicator aborts at 0.6 of the
  // virtual timeline for real.
  std::vector<Job> jobs = small_workload(1, 59);
  jobs[0].procs = 8;
  ServiceOptions options =
      backend_options(BackendKind::kDesReplay, Policy::kFcfs);
  const ServiceReport probe =
      run_backend(BackendKind::kDesReplay, jobs, options);
  ASSERT_EQ(probe.completed_jobs, 1);
  jobs[0].walltime_s = 0.6 * probe.outcomes[0].service_s;

  const ServiceReport des =
      run_backend(BackendKind::kDesReplay, jobs, options);
  const ServiceReport msg =
      run_backend(BackendKind::kMsgRuntime, jobs, options);
  expect_identical_decisions(des, msg);
  ASSERT_EQ(msg.walltime_kills, 1);
  EXPECT_EQ(msg.aborted_attempts, 1);
  EXPECT_TRUE(msg.outcomes[0].exec_aborted);
  // The aborted run reached exactly the injected kill point (the kill
  // interrupts the operation in progress) — and crucially not less: the
  // real factorization still had work in flight at 60% of the replay.
  EXPECT_DOUBLE_EQ(msg.outcomes[0].measured_s,
                   msg.injected_abort_vtime_s);
  // Killed before the factorization finished: no numerics to report.
  EXPECT_TRUE(std::isnan(msg.outcomes[0].residual));
}

TEST(BackendEquivalence, MsgExecuteIsTracedInsideEachAttemptEnd) {
  // Where the real run sits among an attempt's end events: an outage
  // kill is traced before the aborted run it causes, a completion or a
  // walltime kill after the run it ends. Per job the end events thus
  // pair up as (kOutageKill, kExecute), (kExecute, kCompletion) or
  // (kExecute, kWalltimeKill), one pair per executed attempt.
  std::vector<Job> jobs = small_workload(12, 73);
  const GridJobService predictor(small_grid(), model::paper_calibration());
  assign_walltimes(jobs, 1.3, 73, [&](const Job& job) {
    return predictor.predicted_seconds(job);
  });
  ServiceOptions options =
      backend_options(BackendKind::kMsgRuntime, Policy::kEasyBackfill);
  OutageSpec outages;
  outages.mtbf_s = 0.005;
  outages.mean_outage_s = 0.0005;
  outages.seed = 5;
  options.outages = OutageTrace(outages, small_grid().num_clusters());
  options.max_retries = 1;
  ServiceTracer tracer;
  options.tracer = &tracer;
  const ServiceReport report = run_backend(
      BackendKind::kMsgRuntime, jobs, options);
  ASSERT_GT(report.completed_jobs, 0);
  ASSERT_GT(report.walltime_kills, 0);
  ASSERT_GT(report.outage_kills, 0);

  std::map<int, std::vector<TraceKind>> ends;
  for (const ServiceTraceEvent& ev : tracer.events()) {
    if (ev.kind == TraceKind::kOutageKill || ev.kind == TraceKind::kExecute ||
        ev.kind == TraceKind::kCompletion ||
        ev.kind == TraceKind::kWalltimeKill) {
      ends[ev.job].push_back(ev.kind);
    }
  }
  long long pairs = 0;
  for (const auto& [job, kinds] : ends) {
    ASSERT_EQ(kinds.size() % 2, 0u) << "job " << job;
    for (std::size_t i = 0; i < kinds.size(); i += 2, ++pairs) {
      if (kinds[i] == TraceKind::kOutageKill) {
        EXPECT_EQ(kinds[i + 1], TraceKind::kExecute) << "job " << job;
      } else {
        EXPECT_EQ(kinds[i], TraceKind::kExecute) << "job " << job;
        EXPECT_TRUE(kinds[i + 1] == TraceKind::kCompletion ||
                    kinds[i + 1] == TraceKind::kWalltimeKill)
            << "job " << job;
      }
    }
  }
  EXPECT_EQ(pairs, report.executed_attempts);
}

TEST(BackendEquivalence, MsgBackendIsDeterministicAcrossRuns) {
  // Threaded execution must not leak scheduling nondeterminism into the
  // report: virtual clocks are data-flow determined, so two runs agree
  // on every measured number, residuals included.
  const std::vector<Job> jobs = small_workload(10, 67);
  const ServiceOptions options =
      backend_options(BackendKind::kMsgRuntime, Policy::kEasyBackfill);
  const ServiceReport a = run_backend(BackendKind::kMsgRuntime, jobs, options);
  const ServiceReport b = run_backend(BackendKind::kMsgRuntime, jobs, options);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].measured_s, b.outcomes[i].measured_s);
    EXPECT_EQ(a.outcomes[i].residual, b.outcomes[i].residual);
    EXPECT_EQ(a.outcomes[i].orthogonality, b.outcomes[i].orthogonality);
  }
  EXPECT_EQ(summary_row(a), summary_row(b));
}

TEST(BackendEquivalence, MsgBackendRefusesFigureScaleJobs) {
  // The msg backend is for small workloads; a figure-scale matrix must
  // be rejected loudly, not silently executed for minutes.
  std::vector<Job> jobs = small_workload(1, 71);
  jobs[0].m = 1 << 22;
  jobs[0].n = 64;
  ServiceOptions options =
      backend_options(BackendKind::kMsgRuntime, Policy::kFcfs);
  GridJobService service(small_grid(), model::paper_calibration(), options);
  EXPECT_THROW(service.run(jobs), Error);
}

}  // namespace
}  // namespace qrgrid::sched
