// Snapshot/restore and the exhaustive interleaving explorer: a mid-run
// checkpoint restored into a fresh identically-configured service must
// reproduce the uninterrupted run's trace, metrics, and report byte for
// byte (across the policy x allocator x backend matrix); the explorer
// must enumerate EVERY legal same-instant tie ordering of a bounded
// instance exactly once, validating the full TraceValidator invariant
// set plus report-level conservation on every leaf; and the pinned
// event-precedence contract (kills before recoveries before failures
// before arrivals) must survive a same-instant pileup of all four
// classes under every policy.
#include "sched/explore.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/des_algos.hpp"
#include "model/roofline.hpp"
#include "sched/backend.hpp"
#include "sched/outage.hpp"
#include "sched/service.hpp"
#include "sched/snapshot.hpp"
#include "sched/telemetry.hpp"
#include "sched/workload.hpp"
#include "simgrid/topology.hpp"

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

/// Seeded workload small enough for exhaustive enumeration.
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

/// Floors arrivals onto a q-second grid: distinct Poisson arrivals
/// collapse onto shared instants, manufacturing the same-instant ties
/// the explorer branches on.
std::vector<Job> quantized_workload(int jobs, std::uint64_t seed, double q) {
  std::vector<Job> out = small_workload(jobs, seed);
  for (Job& job : out) job.arrival_s = std::floor(job.arrival_s / q) * q;
  return out;
}

/// Explorer factory over a fixed topology/options pair: one fresh,
/// identically-configured service per leaf, tracer and metrics bound.
ServiceFactory factory_for(const simgrid::GridTopology& topo,
                           const ServiceOptions& options) {
  return [topo, options](ServiceTracer* tracer, MetricsRegistry* metrics) {
    ServiceOptions opts = options;
    opts.tracer = tracer;
    opts.metrics = metrics;
    return std::make_unique<GridJobService>(topo, model::paper_calibration(),
                                            opts);
  };
}

std::string trace_json(const ServiceTracer& tracer) {
  std::ostringstream out;
  write_chrome_trace(tracer.events(), out);
  return out.str();
}

std::string metrics_json(const MetricsRegistry& metrics) {
  std::ostringstream out;
  metrics.write_json(out);
  return out.str();
}

/// Failure-message rendering of every violation with its reproduction
/// prescription — paste the choice list into a PrescribedOracle to
/// replay the offending interleaving.
std::string violation_digest(const ExploreResult& result) {
  std::ostringstream out;
  for (const ExploreViolation& v : result.violations) {
    out << v.what << " via choices [";
    for (std::size_t i = 0; i < v.prescription.size(); ++i) {
      out << (i > 0 ? " " : "") << v.prescription[i];
    }
    out << "]\n";
  }
  return out.str();
}

// --------------------------------------------------- snapshot/restore

TEST(SnapshotRestore, RoundTripByteIdentityAcrossMatrix) {
  // For every matrix configuration: run uninterrupted; run again but
  // checkpoint after a few steps and finish the run in a FRESH service
  // restored from the checkpoint. Trace JSON, metrics JSON, and the
  // summary row must be byte-identical — and re-snapshotting the
  // restored state must reproduce the checkpoint bit for bit.
  struct Config {
    Policy policy;
    WanFairness fairness;
    BackendKind backend;
    /// Outages, walltimes and restart credit, checkpointed mid-attempt.
    bool faults = false;
    int checkpoint_step = 6;
    /// WAN-aware placement over an unconstrained trunk (the wan-contended
    /// benchmark's configuration): placement reads the load counters
    /// restore derives.
    bool wan_aware = false;
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
      {Policy::kFairShare, WanFairness::kMaxMin, BackendKind::kDesReplay,
       true, 35},
      {Policy::kEasyBackfill, WanFairness::kMaxMin, BackendKind::kDesReplay,
       false, 6, true},
  };
  const simgrid::GridTopology topo = small_grid();
  const model::Roofline roof = model::paper_calibration();
  for (const Config& config : matrix) {
    std::vector<Job> jobs = small_workload(12, 23);
    ServiceOptions base;
    base.policy = config.policy;
    base.wan_contention = true;
    base.wan_fairness = config.fairness;
    base.backend = config.backend;
    if (config.backend == BackendKind::kMsgRuntime) {
      base.domains_per_cluster = core::kOneDomainPerProcess;
    }
    if (config.wan_aware) {
      base.wan_aware = true;
      base.wan_backbone_Bps = std::numeric_limits<double>::infinity();
    }
    if (config.faults) {
      base.outages = OutageTrace(OutageSpec{0.05, 0.01, 7},
                                 topo.num_clusters());
      base.max_retries = 5;
      base.restart_credit = true;
      base.checkpoint_panels = 4;
      const GridJobService probe(topo, roof, base);
      assign_walltimes(jobs, 1.5, 9, [&probe](const Job& job) {
        return 4.0 * probe.predicted_seconds(job);
      });
    }
    const std::string label = std::string(policy_name(config.policy)) + "/" +
                              wan_fairness_name(config.fairness) + "/" +
                              backend_name(config.backend) +
                              (config.faults ? "/faults" : "") +
                              (config.wan_aware ? "/wan-aware" : "");

    ServiceTracer t0;
    MetricsRegistry m0;
    ServiceOptions o0 = base;
    o0.tracer = &t0;
    o0.metrics = &m0;
    GridJobService uninterrupted(topo, roof, o0);
    const ServiceReport r0 = uninterrupted.run(jobs);

    ServiceTracer t1;
    MetricsRegistry m1;
    ServiceOptions o1 = base;
    o1.tracer = &t1;
    o1.metrics = &m1;
    GridJobService first(topo, roof, o1);
    first.start(jobs);
    for (int i = 0; i < config.checkpoint_step && first.active(); ++i) {
      first.step();
    }
    const std::string checkpoint = first.snapshot();

    ServiceTracer t2;
    MetricsRegistry m2;
    ServiceOptions o2 = base;
    o2.tracer = &t2;
    o2.metrics = &m2;
    GridJobService second(topo, roof, o2);
    second.restore(checkpoint);
    EXPECT_EQ(second.snapshot(), checkpoint) << label;
    while (second.active()) second.step();
    const ServiceReport r2 = second.finish();

    EXPECT_EQ(summary_row(r0), summary_row(r2)) << label;
    EXPECT_EQ(trace_json(t0), trace_json(t2)) << label;
    EXPECT_EQ(metrics_json(m0), metrics_json(m2)) << label;
    if (!config.faults) continue;
    // The row's premise: the checkpoint holds an attempt that started on
    // banked restart credit (under a walltime, as every job here has
    // one), and walltime kills come after it.
    std::map<int, double> banked_s;
    std::set<int> credited_in_flight;
    for (const ServiceTraceEvent& ev : t1.events()) {
      if (ev.kind == TraceKind::kDispatch ||
          ev.kind == TraceKind::kBackfillStart) {
        if (banked_s[ev.job] > 0.0) credited_in_flight.insert(ev.job);
      } else if (ev.kind == TraceKind::kCompletion ||
                 ev.kind == TraceKind::kWalltimeKill ||
                 ev.kind == TraceKind::kOutageKill) {
        if (ev.kind == TraceKind::kOutageKill) banked_s[ev.job] += ev.value2;
        credited_in_flight.erase(ev.job);
      }
    }
    EXPECT_FALSE(credited_in_flight.empty()) << label;
    int later_walltime_kills = 0;
    for (const ServiceTraceEvent& ev : t0.events()) {
      if (ev.kind == TraceKind::kWalltimeKill && ev.t_s > first.now_s()) {
        ++later_walltime_kills;
      }
    }
    EXPECT_GT(later_walltime_kills, 0) << label;
  }
}

TEST(SnapshotRestore, DownClusterStaysMaskedOnResume) {
  // The checkpoint carries free nodes and outage depths, not what the
  // scheduler may hand out: restore masks a down cluster's free nodes
  // itself. Here cluster 1 is down and cluster 0 busy when job 1 queues;
  // job 2's arrival is the resumed run's first dispatch, which must
  // still see no room for job 1.
  const simgrid::GridTopology topo = small_grid();
  const model::Roofline roof = model::paper_calibration();
  const std::vector<Job> jobs = {make_job(0, 0.0, 1 << 22, 64, 4),
                                 make_job(1, 0.2, 4096, 8, 2),
                                 make_job(2, 0.3, 4096, 8, 2)};
  ServiceOptions base;
  base.policy = Policy::kFcfs;
  base.outages = OutageTrace({Outage{1, 0.1, 1000.0}});
  ServiceTracer t0;
  ServiceOptions o0 = base;
  o0.tracer = &t0;
  GridJobService uninterrupted(topo, roof, o0);
  const ServiceReport r0 = uninterrupted.run(jobs);
  ASSERT_EQ(r0.outcomes.size(), 3u);
  EXPECT_GT(r0.outcomes[1].start_s, 0.3);  // job 1 waited out the outage

  ServiceTracer t1;
  ServiceOptions o1 = base;
  o1.tracer = &t1;
  GridJobService first(topo, roof, o1);
  first.start(jobs);
  while (first.now_s() < 0.2) first.step();  // job 1 has just queued
  const std::string checkpoint = first.snapshot();
  ServiceTracer t2;
  ServiceOptions o2 = base;
  o2.tracer = &t2;
  GridJobService second(topo, roof, o2);
  second.restore(checkpoint);
  while (second.active()) second.step();
  EXPECT_EQ(summary_row(second.finish()), summary_row(r0));
  EXPECT_EQ(trace_json(t2), trace_json(t0));
}

/// The parts a GridTopology is built from, so a test can change one.
struct TopologyParts {
  std::vector<simgrid::ClusterSpec> clusters;
  simgrid::LinkParams intra_node;
  simgrid::LinkParams intra_cluster;
  std::vector<std::vector<simgrid::LinkParams>> inter;
};

/// `topo` rebuilt after `edit` changed its parts.
simgrid::GridTopology edited(const simgrid::GridTopology& topo,
                             const std::function<void(TopologyParts&)>& edit) {
  TopologyParts parts{{}, topo.intra_node_link(), topo.intra_cluster_link(),
                      {}};
  for (int a = 0; a < topo.num_clusters(); ++a) {
    parts.clusters.push_back(topo.cluster(a));
    parts.inter.emplace_back();
    for (int b = 0; b < topo.num_clusters(); ++b) {
      parts.inter.back().push_back(topo.inter_cluster_link(a, b));
    }
  }
  edit(parts);
  return simgrid::GridTopology(std::move(parts.clusters), parts.intra_node,
                               parts.intra_cluster, std::move(parts.inter));
}

TEST(SnapshotRestore, RefusesMismatchedConfigurationAndGarbage) {
  // The embedded configuration tags pin everything a resumed run's
  // decisions depend on: a checkpoint restores only into a service on
  // the same grid and roofline with the same options. One case per
  // tag, each a single change; the refusal must name that tag.
  const simgrid::GridTopology topo = small_grid();
  const model::Roofline roof = model::paper_calibration();
  const std::vector<Job> jobs = small_workload(6, 3);
  ServiceOptions base;
  base.policy = Policy::kFcfs;
  base.wan_contention = true;  // so wan_aware can flip on its own
  GridJobService source(topo, roof, base);
  source.start(jobs);
  source.step();
  const std::string checkpoint = source.snapshot();
  GridJobService(topo, roof, base).restore(checkpoint);  // same: accepted

  const auto expect_refusal = [&](const std::string& tag,
                                  GridJobService& target) {
    try {
      target.restore(checkpoint);
      ADD_FAILURE() << tag << ": a mismatched checkpoint was restored";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("snapshot " + tag + " mismatches"),
                std::string::npos)
          << tag << ": " << e.what();
    }
  };

  ServiceTracer tracer;
  MetricsRegistry metrics;
  const std::vector<
      std::pair<std::string, std::function<void(ServiceOptions&)>>>
      option_cases = {
          {"policy", [](ServiceOptions& o) { o.policy = Policy::kSpjf; }},
          {"domains_per_cluster",
           [](ServiceOptions& o) { o.domains_per_cluster = 1; }},
          {"backfill_depth", [](ServiceOptions& o) { o.backfill_depth = 2; }},
          {"outages",
           [](ServiceOptions& o) {
             o.outages = OutageTrace(OutageSpec{4.0, 0.5, 17}, 2);
           }},
          {"max_retries", [](ServiceOptions& o) { o.max_retries = 5; }},
          {"restart_credit",
           [](ServiceOptions& o) { o.restart_credit = true; }},
          {"checkpoint_panels",
           [](ServiceOptions& o) { o.checkpoint_panels = 4; }},
          {"checkpoint_cost_s",
           [](ServiceOptions& o) { o.checkpoint_cost_s = 0.5; }},
          {"wan_contention",
           [](ServiceOptions& o) { o.wan_contention = false; }},
          {"wan_aware", [](ServiceOptions& o) { o.wan_aware = true; }},
          {"wan_link_Bps", [](ServiceOptions& o) { o.wan_link_Bps = 1e8; }},
          {"wan_backbone_Bps",
           [](ServiceOptions& o) { o.wan_backbone_Bps = 1e9; }},
          {"wan_fairness",
           [](ServiceOptions& o) { o.wan_fairness = WanFairness::kMaxMin; }},
          {"backend",
           [](ServiceOptions& o) { o.backend = BackendKind::kMsgRuntime; }},
          {"tracer", [&](ServiceOptions& o) { o.tracer = &tracer; }},
          {"metrics", [&](ServiceOptions& o) { o.metrics = &metrics; }},
          {"wait_blame", [](ServiceOptions& o) { o.wait_blame = true; }},
      };
  for (const auto& [tag, change] : option_cases) {
    ServiceOptions options = base;
    change(options);
    GridJobService target(topo, roof, options);
    expect_refusal(tag, target);
  }

  // The grid and the roofline the replays run on are configuration too.
  model::Roofline faster = roof;
  faster.dgemm_gflops *= 2.0;
  struct GridCase {
    std::string tag;
    simgrid::GridTopology topo;
    model::Roofline roof;
  };
  const std::vector<GridCase> grid_cases = {
      {"roofline", topo, faster},
      {"cluster count", simgrid::GridTopology::grid5000(3, 2, 2), roof},
      {"cluster",
       edited(topo,
              [](TopologyParts& p) { p.clusters[1].proc_peak_gflops *= 2.0; }),
       roof},
      {"intra_node_link",
       edited(topo,
              [](TopologyParts& p) { p.intra_node.bandwidth_Bps *= 2.0; }),
       roof},
      {"intra_cluster_link",
       edited(topo,
              [](TopologyParts& p) { p.intra_cluster.latency_s *= 2.0; }),
       roof},
      {"inter_cluster_link",
       edited(topo, [](TopologyParts& p) { p.inter[0][1].latency_s *= 10.0; }),
       roof},
  };
  for (const GridCase& c : grid_cases) {
    GridJobService target(c.topo, c.roof, base);
    expect_refusal(c.tag, target);
  }

  GridJobService garbage_target(topo, roof, base);
  EXPECT_THROW(garbage_target.restore("not a snapshot"), Error);
  // Truncated checkpoints are refused, not misread.
  EXPECT_THROW(
      garbage_target.restore(checkpoint.substr(0, checkpoint.size() / 2)),
      Error);
}

// --------------------------------------------------------- explorer

TEST(ExploreService, AllTiedArrivalBatchEnumeratesTheFullFactorial) {
  // Four jobs at one instant with pairwise-distinct sizes: the ONLY tie
  // in the run is the 4-way arrival batch, resolved as a 4-then-3-then-2
  // way pick. First-deviation enumeration must visit exactly 4! = 24
  // admission orders — no duplicates, no misses.
  const std::vector<Job> jobs = {make_job(0, 0.0, 1 << 18, 64, 2),
                                 make_job(1, 0.0, 1 << 19, 64, 2),
                                 make_job(2, 0.0, 1 << 20, 64, 2),
                                 make_job(3, 0.0, 1 << 21, 64, 2)};
  ServiceOptions options;
  options.policy = Policy::kFcfs;
  const ExploreResult result =
      explore_interleavings(factory_for(small_grid(), options), jobs);
  EXPECT_TRUE(result.ok()) << violation_digest(result);
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.leaves, 24);
  EXPECT_EQ(result.max_fanout, 4);
}

TEST(ExploreService, QuantizedArrivalsEnumerateCleanAcrossPolicies) {
  // A seeded workload with arrivals floored onto a coarse grid: every
  // legal admission interleaving of every tied batch, under static,
  // backfilling, and dynamic-order policies. Zero violations — and the
  // canonical (all-zeros) leaf must be byte-identical to an oracle-free
  // plain run of the same factory.
  const simgrid::GridTopology topo = small_grid();
  const std::vector<Job> jobs = quantized_workload(5, 7, 0.25);
  for (const Policy policy :
       {Policy::kFcfs, Policy::kEasyBackfill, Policy::kFairShare}) {
    ServiceOptions options;
    options.policy = policy;
    options.wan_contention = true;
    const ServiceFactory factory = factory_for(topo, options);
    const ExploreResult result = explore_interleavings(factory, jobs);
    EXPECT_TRUE(result.ok())
        << policy_name(policy) << "\n" << violation_digest(result);
    EXPECT_FALSE(result.truncated) << policy_name(policy);
    EXPECT_GT(result.leaves, 1) << policy_name(policy);
    EXPECT_GT(result.decision_points, 0) << policy_name(policy);

    ServiceTracer tracer;
    MetricsRegistry metrics;
    std::unique_ptr<GridJobService> plain = factory(&tracer, &metrics);
    const ServiceReport report = plain->run(jobs);
    SnapshotWriter w;
    w(tracer);
    EXPECT_EQ(result.canonical_trace_bytes, w.bytes()) << policy_name(policy);
    EXPECT_EQ(summary_row(result.canonical_report), summary_row(report))
        << policy_name(policy);
  }
}

TEST(ExploreService, TripleTieSameInstantPileupAcrossAllPolicies) {
  // Engineer a walltime kill, an outage recovery, an outage failure, and
  // two arrivals onto ONE virtual instant, then assert the precedence
  // contract (kills, then recoveries, then failures, then arrivals) in
  // the recorded trace under every policy — and that every alternative
  // ordering of the tied arrivals is violation-free.
  const simgrid::GridTopology topo = small_grid();
  const model::Roofline roof = model::paper_calibration();
  std::vector<Job> probe = {make_job(0, 0.0, 1 << 20, 64, 4)};
  const ServiceReport clean = GridJobService(topo, roof).run(probe);
  ASSERT_EQ(clean.outcomes[0].clusters.size(), 1u);
  const int mine = clean.outcomes[0].clusters[0];
  const int other = 1 - mine;
  const double T = 0.5 * clean.outcomes[0].service_s;

  std::vector<Job> jobs = {make_job(0, 0.0, 1 << 20, 64, 4),
                           make_job(1, T, 1 << 18, 64, 2),
                           make_job(2, T, 1 << 18, 64, 2)};
  jobs[0].walltime_s = T;  // starts at 0 on an empty grid: killed at T
  // The bystander cluster recovers from one outage and fails into the
  // next at exactly the kill instant.
  const std::vector<Outage> outages = {{other, 0.5 * T, T},
                                       {other, T, 1.25 * T}};

  for (const Policy policy :
       {Policy::kFcfs, Policy::kSpjf, Policy::kEasyBackfill,
        Policy::kPriorityEasy, Policy::kFairShare}) {
    ServiceOptions options;
    options.policy = policy;
    options.outages = OutageTrace(outages);
    ServiceTracer tracer;
    MetricsRegistry metrics;
    ServiceOptions traced = options;
    traced.tracer = &tracer;
    traced.metrics = &metrics;
    GridJobService service(topo, roof, traced);
    const ServiceReport report = service.run(jobs);
    EXPECT_TRUE(validate_trace(tracer.events()).empty())
        << policy_name(policy);
    EXPECT_EQ(report.walltime_kills, 1) << policy_name(policy);
    EXPECT_EQ(report.completed_jobs, 2) << policy_name(policy);

    std::vector<TraceKind> at_t;
    for (const ServiceTraceEvent& ev : tracer.events()) {
      if (ev.t_s != T) continue;
      if (ev.kind == TraceKind::kWalltimeKill ||
          ev.kind == TraceKind::kOutageUp ||
          ev.kind == TraceKind::kOutageDown ||
          ev.kind == TraceKind::kArrival) {
        at_t.push_back(ev.kind);
      }
    }
    const std::vector<TraceKind> expected = {
        TraceKind::kWalltimeKill, TraceKind::kOutageUp,
        TraceKind::kOutageDown, TraceKind::kArrival, TraceKind::kArrival};
    EXPECT_EQ(at_t, expected) << policy_name(policy);

    const ExploreResult result =
        explore_interleavings(factory_for(topo, options), jobs);
    EXPECT_TRUE(result.ok())
        << policy_name(policy) << "\n" << violation_digest(result);
    EXPECT_GE(result.leaves, 2) << policy_name(policy);  // arrival tie
    EXPECT_GE(result.max_fanout, 2) << policy_name(policy);
  }
}

TEST(ExploreService, OutageKillTimingSweepHoldsInvariants) {
  // Aim short outages exactly AT the canonical run's attempt start and
  // completion instants — the collision-richest timings, where a kill
  // boundary ties with dispatches and finishes — and exhaustively
  // explore each faulty instance with restart credit on.
  const simgrid::GridTopology topo = small_grid();
  const std::vector<Job> jobs = quantized_workload(4, 11, 0.25);
  ServiceOptions base;
  base.policy = Policy::kEasyBackfill;
  const std::vector<double> instants =
      harvest_attempt_instants(factory_for(topo, base), jobs);
  ASSERT_FALSE(instants.empty());

  int sweeps = 0;
  const std::size_t stride =
      instants.size() < 3 ? 1 : instants.size() / 3;
  for (std::size_t i = 0; i < instants.size() && sweeps < 3; i += stride) {
    if (instants[i] <= 0.0) continue;
    ++sweeps;
    ServiceOptions options = base;
    options.outages =
        OutageTrace(std::vector<Outage>{{0, instants[i], instants[i] + 0.3}});
    options.restart_credit = true;
    options.checkpoint_panels = 4;
    const ExploreResult result =
        explore_interleavings(factory_for(topo, options), jobs);
    EXPECT_TRUE(result.ok())
        << "outage at t=" << instants[i] << "\n" << violation_digest(result);
    EXPECT_FALSE(result.truncated) << "outage at t=" << instants[i];
    EXPECT_GT(result.leaves, 0) << "outage at t=" << instants[i];
  }
  EXPECT_GT(sweeps, 0);
}

// ------------------------------------------------------ tie oracle seam

/// Two identical 1-node jobs tied at t = 0 that land on one cluster,
/// then both clusters failing and recovering together mid-run: the
/// instance ties at every TieOracle::Kind — arrivals, the two outage
/// boundaries, the failure's two victims, and the requeued pair's
/// simultaneous completions.
struct AllKindsInstance {
  simgrid::GridTopology topo = small_grid();
  std::vector<Job> jobs = {make_job(0, 0.0, 1 << 18, 64, 2),
                           make_job(1, 0.0, 1 << 18, 64, 2)};
  ServiceOptions options;

  AllKindsInstance() {
    const ServiceReport probe =
        GridJobService(topo, model::paper_calibration()).run(jobs);
    const double down_s = 0.5 * probe.outcomes[0].service_s;
    options.outages = OutageTrace(std::vector<Outage>{
        {0, down_s, down_s + 1.0}, {1, down_s, down_s + 1.0}});
  }
};

/// Answers every tie canonically except at `bad_kind`, where it returns
/// `bad` (out of range when bad is negative or >= k).
class RogueOracle : public TieOracle {
 public:
  RogueOracle(Kind bad_kind, int bad) : bad_kind_(bad_kind), bad_(bad) {}
  int choose(Kind kind, double, int k) override {
    return kind == bad_kind_ ? (bad_ < 0 ? bad_ : k + bad_) : 0;
  }

 private:
  Kind bad_kind_;
  int bad_;
};

TEST(TieOracleSeam, CanonicalPickAtEveryKindReproducesTheOracleFreeRun) {
  // One code path per event class: an oracle that answers 0 at every tie
  // must execute exactly what the oracle-free run executes, at every
  // kind of tie — trace, metrics, and report byte for byte.
  const AllKindsInstance inst;
  ServiceTracer t0;
  MetricsRegistry m0;
  ServiceOptions o0 = inst.options;
  o0.tracer = &t0;
  o0.metrics = &m0;
  const ServiceReport plain =
      GridJobService(inst.topo, model::paper_calibration(), o0).run(inst.jobs);

  ServiceTracer t1;
  MetricsRegistry m1;
  ServiceOptions o1 = inst.options;
  o1.tracer = &t1;
  o1.metrics = &m1;
  GridJobService oracled(inst.topo, model::paper_calibration(), o1);
  PrescribedOracle canonical;
  oracled.set_tie_oracle(&canonical);
  const ServiceReport picked = oracled.run(inst.jobs);

  std::set<TieOracle::Kind> kinds;
  for (const PrescribedOracle::Decision& d : canonical.log()) {
    EXPECT_GE(d.k, 2);
    EXPECT_EQ(d.chosen, 0);
    kinds.insert(d.kind);
  }
  EXPECT_EQ(kinds.size(), 5u) << "the instance must tie at every kind";
  EXPECT_EQ(picked.outage_kills, 2);
  EXPECT_EQ(summary_row(plain), summary_row(picked));
  EXPECT_EQ(trace_json(t0), trace_json(t1));
  EXPECT_EQ(metrics_json(m0), metrics_json(m1));
}

TEST(TieOracleSeam, OutOfRangeChoiceAtAnyKindIsAnError) {
  // tie_pick validates every oracle answer in one place: whichever kind
  // the rogue choice lands on, the run ends in qrgrid::Error.
  const AllKindsInstance inst;
  for (const TieOracle::Kind kind :
       {TieOracle::Kind::kCompletion, TieOracle::Kind::kOutageUp,
        TieOracle::Kind::kOutageDown, TieOracle::Kind::kArrival,
        TieOracle::Kind::kOutageVictim}) {
    for (const int bad : {-1, 0}) {
      GridJobService service(inst.topo, model::paper_calibration(),
                             inst.options);
      RogueOracle rogue(kind, bad);
      service.set_tie_oracle(&rogue);
      EXPECT_THROW(service.run(inst.jobs), Error)
          << "kind " << static_cast<int>(kind) << ", bad " << bad;
    }
  }
}

}  // namespace
}  // namespace qrgrid::sched
