// Job-service policy shoot-out: queued TSQR factorizations on the
// paper's 4-site Grid'5000 slice (256 processes, 128 nodes), identical
// seeded Poisson workload under FCFS, shortest-predicted-job-first, and
// EASY backfilling — first on a healthy grid, then under CHURN: seeded
// whole-cluster outages (per-site MTBF adapted to the healthy FCFS
// makespan) plus user walltimes over-asked by the classic U[1, 5)
// multiplier. The DES replay cache is what keeps this in seconds of wall
// time: the jobs share a few hundred (shape x placement) combinations.
//
// Expected shape of the result: on the healthy grid EASY strictly beats
// FCFS on makespan and mean wait; under churn every policy loses jobs to
// walltime kills and requeues outage victims, and the table answers
// whether EASY's win survives failures and over-ask. A third, WAN-heavy
// scenario (wide flat-tree jobs on a thin 20 Mb/s-per-site WAN, shared
// through the sched::GridWanModel contention engine) pits naive
// placement against --wan-aware placement: steering wide jobs onto
// currently-idle uplinks must win on makespan, and every completed job's
// contended runtime must be >= its isolated replay (the monotonicity
// gate). A fourth scenario drives one small workload through BOTH
// execution backends — cached DES replay vs real threaded msg::Runtime —
// and gates identical scheduling, <= 2% finish-time drift, and per-job
// numerics. A fifth, mixed-priority two-user scenario pits the pluggable
// policy objects against each other: priority-aware EASY must beat plain
// (priority-blind) EASY on the high-priority class's mean wait, and
// weighted fair-share (2:1) must hold the light user's personal makespan
// between the heavy user's and the configured weight ratio.
//
// Every default-mode run carries the full observability stack (tracer,
// wait-blame, phase profiler): the per-row "crit.run%" column is the
// critical chain's running fraction of the makespan (the rest is wait /
// outage / pre-arrival), each run gates that the chain tiles the
// makespan exactly, and the aggregated per-phase wall times land in the
// BENCH JSON's "profile" object for tools/check_bench.py to diff
// against bench/BENCH_baseline.json. Usage: bench_job_service [jobs]
// (default 1000; CI smoke-runs 60).
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "core/des_algos.hpp"
#include "sched/critpath.hpp"
#include "sched/profiler.hpp"
#include "sched/service.hpp"
#include "sched/telemetry.hpp"
#include "sched/workload.hpp"

using namespace qrgrid;

namespace {

constexpr sched::Policy kPolicies[] = {sched::Policy::kFcfs,
                                       sched::Policy::kSpjf,
                                       sched::Policy::kEasyBackfill};

/// One row of the perf-trajectory artifact: a (scenario, configuration)
/// cell with its virtual-time outcome and the wall time it cost.
struct BenchRow {
  std::string scenario;
  std::string config;
  double makespan_s = 0.0;
  double mean_wait_s = 0.0;
  double wall_s = 0.0;
  /// Fraction of the makespan the critical chain spent actually running
  /// (vs waiting / outage / pre-arrival); -1 in --scale mode (untraced).
  double crit_run_frac = -1.0;
};

/// One benchmark cell with the full observability stack armed: tracer
/// (for the critical-path column), wait-blame, and the shared phase
/// profiler. The zero-cost contract (tested in telemetry_test) makes the
/// traced outcome identical to the untraced one, so the scenario gates
/// below stay meaningful; the wall-time column now prices tracing in,
/// which is exactly what the regression gate should watch.
struct TracedRun {
  sched::ServiceReport report;
  double wall_s = 0.0;
  double crit_run_frac = 0.0;
  bool crit_ok = false;
};

TracedRun run_traced(const simgrid::GridTopology& topo,
                     const model::Roofline& roof,
                     sched::ServiceOptions options,
                     const std::vector<sched::Job>& jobs,
                     sched::PhaseProfiler& profiler) {
  sched::ServiceTracer tracer;
  options.tracer = &tracer;
  options.wait_blame = true;
  options.profiler = &profiler;
  sched::GridJobService service(topo, roof, options);
  TracedRun out;
  Stopwatch watch;
  out.report = service.run(jobs);
  out.wall_s = watch.seconds();
  const sched::CriticalPathReport cp =
      sched::analyze_critical_path(tracer.events());
  // The analyzer's self-check: the chain tiles [0, makespan] exactly.
  out.crit_ok = cp.tiles(out.report.makespan_s);
  out.crit_run_frac =
      cp.makespan_s > 0.0 ? cp.run_s / cp.makespan_s : 0.0;
  return out;
}

std::vector<std::string> bench_header() {
  std::vector<std::string> header = sched::summary_header();
  header.push_back("crit.run%");
  return header;
}

std::vector<std::string> bench_row(const TracedRun& traced) {
  std::vector<std::string> row = sched::summary_row(traced.report);
  row.push_back(format_number(100.0 * traced.crit_run_frac, 4));
  return row;
}

long long peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
    return usage.ru_maxrss / 1024;  // bytes on macOS
#else
    return usage.ru_maxrss;  // kilobytes on Linux
#endif
  }
#endif
  return -1;
}

/// BENCH_job_service.json: the machine-readable perf trajectory CI
/// archives per commit. Written BEFORE the regression gates run, so a
/// failing gate still leaves the artifact to diagnose with.
void write_bench_json(const std::string& path, int jobs,
                      const std::vector<BenchRow>& rows,
                      long long executions, double wall_total,
                      const sched::PhaseProfiler* profiler) {
  std::ofstream out(path);
  if (!out.is_open()) {
    std::cerr << "warning: cannot write " << path << '\n';
    return;
  }
  out.precision(17);
  out << "{\n  \"bench\": \"job_service\",\n  \"jobs\": " << jobs
      << ",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& row = rows[i];
    out << "    {\"scenario\": \"" << row.scenario << "\", \"config\": \""
        << row.config << "\", \"makespan_s\": " << row.makespan_s
        << ", \"mean_wait_s\": " << row.mean_wait_s
        << ", \"wall_s\": " << row.wall_s
        << ", \"crit_run_frac\": " << row.crit_run_frac << '}'
        << (i + 1 < rows.size() ? "," : "") << '\n';
  }
  out << "  ],\n";
  if (profiler != nullptr) {
    // Where the wall time went, by service phase (self-profiled across
    // every run above). check_bench.py gates the per-phase SHARE of the
    // summed phase wall, so a phase that silently grows relative to its
    // siblings trips the gate even when total wall still fits.
    out << "  \"profile\": {";
    for (int p = 0; p < sched::kProfilePhaseCount; ++p) {
      const auto phase = static_cast<sched::ProfilePhase>(p);
      out << (p > 0 ? ", " : "") << '"'
          << sched::profile_phase_name(phase)
          << "\": {\"wall_s\": " << profiler->total_s(phase)
          << ", \"calls\": " << profiler->calls(phase) << '}';
    }
    out << "},\n";
  }
  out << "  \"totals\": {\"executions\": " << executions
      << ", \"wall_s\": " << wall_total << ", \"jobs_per_sec\": "
      << (wall_total > 0.0 ? static_cast<double>(executions) / wall_total
                           : 0.0)
      << ", \"peak_rss_kb\": " << peak_rss_kb() << "}\n}\n";
  std::cout << "perf trajectory written to " << path << '\n';
}

/// Million-job steady state: the indexed-dispatch acceptance gate. One
/// long Poisson stream (default 1e6 jobs from 1e5 users) on the paper
/// grid under the three policy classes the dispatch rewrite must keep
/// cheap: static-key FCFS (zero resorts), dynamic fair-share
/// (incremental per-user resync across a 100k-user service map), and
/// EASY with a bounded backfill scan (SLURM's bf_max_job_test analogue —
/// unbounded EASY over a million-deep backlog is O(n) per dispatch BY
/// DESIGN and would drown any data-structure win). Gates: job
/// conservation per config, total wall time, and peak RSS. Budgets hold
/// on a cold CI runner at full scale; on one 4-core Xeon host three runs
/// took 19.5-20.6 s at 592 MB peak RSS, so the 600 s / 8 GB gates carry
/// ~30x wall and ~13x memory headroom — they catch a complexity-class
/// regression (the quadratic they guard against costs hours), not
/// runner jitter.
///
/// --wan-contention turns the same steady-state arrival process into
/// the CONTENDED acceptance gate: 256 processes spread over 8 sites,
/// wide flat-tree jobs straddling the 32-proc site boundaries, every
/// multi-site attempt a flow on thin shared uplinks under max-min
/// fairness — the incremental rate engine absorbs millions of
/// structural events while flows overlap persistently. Extra gates,
/// metrics-read per config: contention actually present, events > 0,
/// and full_refills << events (a component recompute that spans every
/// busy link should be the exception — that is the whole point of the
/// incremental engine), under the SAME wall/RSS budgets as the
/// uncontended lane.
/// Synthetic many-site extension of the measured Grid'5000 subset:
/// site s is a twin of measured site s mod 4 (same nodes, same
/// processor peaks), and every inter-site link borrows the measured
/// Fig. 3(a) parameters of its endpoint site classes (a same-class pair
/// reuses its class's link to the next class over). Only the contended
/// scale lane uses this — it needs wide jobs straddling MANY site
/// boundaries so the rate graph holds several independent bottleneck
/// components at once; everywhere the paper's numbers are quoted the
/// measured 4-site grid stays in force.
simgrid::GridTopology tiled_grid(int sites, int nodes_per_cluster,
                                 int procs_per_node) {
  const simgrid::GridTopology measured =
      simgrid::GridTopology::grid5000(4, nodes_per_cluster, procs_per_node);
  std::vector<simgrid::ClusterSpec> clusters;
  for (int s = 0; s < sites; ++s) {
    simgrid::ClusterSpec spec = measured.cluster(s % 4);
    if (s >= 4) spec.name += "-" + std::to_string(s / 4);
    clusters.push_back(std::move(spec));
  }
  std::vector<std::vector<simgrid::LinkParams>> inter(
      static_cast<std::size_t>(sites),
      std::vector<simgrid::LinkParams>(static_cast<std::size_t>(sites)));
  for (int a = 0; a < sites; ++a) {
    for (int b = 0; b < sites; ++b) {
      const int ca = a % 4, cb = b % 4;
      if (a == b) {
        inter[a][b] = measured.inter_cluster_link(ca, ca);
      } else if (ca == cb) {  // same-class pair: the neighbor-class link
        inter[a][b] = measured.inter_cluster_link(ca, (ca + 1) % 4);
      } else {
        inter[a][b] = measured.inter_cluster_link(ca, cb);
      }
    }
  }
  return simgrid::GridTopology(std::move(clusters),
                               measured.intra_node_link(),
                               measured.intra_cluster_link(),
                               std::move(inter));
}

int run_scale(int jobs, int users, bool wan_contention) {
  // The contended lane spreads the same 256 processes over 16 sites
  // with an overprovisioned core: each wide job straddles ONE site
  // boundary (a 2-link flow), a dozen such flows co-run on a 32-link
  // access graph, and the bottleneck components they chain stay local —
  // the state the component-local rebalance exists for. On 4 fat sites
  // every co-running flow transitively couples (measured: comp_busy ==
  // busy_links on ~45% of recomputes), and with a finite trunk every
  // uplink demand crosses the one shared backbone link, so the whole
  // graph would be one component and each repair a full refill no
  // matter how the rates are maintained.
  const simgrid::GridTopology topo =
      wan_contention ? tiled_grid(16, 8, 2)
                     : simgrid::GridTopology::grid5000(4, 32, 2);
  const model::Roofline roof = model::paper_calibration();

  sched::WorkloadSpec spec;
  spec.jobs = jobs;
  spec.users = users;
  // Arrival rate a shade under drain capacity: the backlog stays bounded
  // (steady state) instead of growing linearly, so the run exercises the
  // dispatch hot path at a persistent queue depth rather than degenerating
  // into one giant terminal drain.
  spec.mean_interarrival_s = 0.33;
  spec.procs_choices = {16, 32, 64, 128, 256};
  spec.seed = 2026;
  if (wan_contention) {
    // Shapes that can actually contend. The uncontended stream's wide
    // jobs (128/256 procs) own whole clusters, so co-running jobs sit on
    // DISJOINT uplinks and never share a link; 20-proc jobs straddle one
    // 16-proc site boundary each (a two-link flow: remote uplink, master
    // downlink), so concurrent wide jobs overlap pairwise on shared
    // links while 6/12-proc fillers fragment the node pool. Flat trees
    // make every remote domain ship its R factor, so the shared links
    // carry transfers that last seconds instead of flashes.
    spec.m_choices = {1 << 17, 1 << 18};
    spec.n_choices = {256, 512};
    spec.procs_choices = {6, 12, 20};
    spec.tree_choices = {core::TreeKind::kFlat};
    // WAN stretch eats into drain capacity, so the contended lane needs
    // its own shade-under-saturation arrival rate: at 0.33 s the backlog
    // grows without bound (mean wait ~1600 s at 100k jobs) and the
    // dispatch scan pays for the ever-deeper queue.
    spec.mean_interarrival_s = 0.35;
  }
  const std::vector<sched::Job> stream = sched::generate_workload(spec);

  std::cout << "Scale steady state"
            << (wan_contention ? " (max-min WAN contention, flat trees)"
                               : "")
            << ": "
            << jobs << " jobs / " << users << " users on "
            << topo.num_clusters() << " sites / " << topo.total_procs()
            << " processes (mean inter-arrival "
            << format_number(spec.mean_interarrival_s, 3) << " s)\n\n";

  struct ScaleConfig {
    const char* name;
    sched::Policy policy;
    int backfill_depth;
  };
  // The contended lane runs two configs, not three: the rate engine
  // sees the same flow stream whichever policy orders the queue
  // (measured at 1M jobs, the per-config wan.rebalance counters agree
  // within 0.1%), so fair-share would re-pay the whole contended wall
  // for zero added WAN coverage. FCFS covers the ordered-queue path;
  // EASY — at depth 4, because at 96% utilization on the fragmented
  // 16-site node pool the depth-64 scan almost never finds a hole (42
  // backfills in 30k jobs) yet costs 8x the FCFS wall — is the one
  // backfilling config: it drives the shadow computation and the
  // backfill admission test over the contended grid. Plain EASY never
  // prices WAN drains into its shadow (wan_priced_shadow() is false).
  std::vector<ScaleConfig> configs;
  configs.push_back({"fcfs", sched::Policy::kFcfs, 0});
  if (!wan_contention) {
    configs.push_back({"fair", sched::Policy::kFairShare, 0});
  }
  configs.push_back({wan_contention ? "easy+depth4" : "easy+depth64",
                     sched::Policy::kEasyBackfill, wan_contention ? 4 : 64});
  const std::string scenario = wan_contention ? "scale-wan-contended" : "scale";

  TextTable table;
  table.set_header(sched::summary_header());
  std::vector<BenchRow> rows;
  bool ok = true;
  double wall_total = 0.0;
  long long executions = 0;
  sched::PhaseProfiler profiler;  // aggregated across the configs
  for (const ScaleConfig& config : configs) {
    sched::ServiceOptions options;
    options.policy = config.policy;
    options.backfill_depth = config.backfill_depth;
    options.profiler = &profiler;
    sched::MetricsRegistry metrics;
    if (wan_contention) {
      options.wan_contention = true;
      options.wan_aware = true;  // spread flows across idle uplinks
      options.wan_fairness = sched::WanFairness::kMaxMin;
      options.wan_link_Bps = 0.05e9 / 8.0;  // thin: transfers last seconds
      // Overprovisioned core: the site access links bind, the trunk
      // imposes no constraint and so does not chain every co-running
      // flow into one graph-wide component (which would make each
      // repair a full refill by construction, regardless of topology).
      options.wan_backbone_Bps = std::numeric_limits<double>::infinity();
      options.metrics = &metrics;        // the wan.rebalance.* gauges
    }
    sched::GridJobService service(topo, roof, options);
    Stopwatch watch;
    const sched::ServiceReport report = service.run(stream);
    const double wall_s = watch.seconds();
    wall_total += wall_s;
    executions += jobs + report.requeued_jobs;
    rows.push_back({scenario, config.name, report.makespan_s,
                    report.mean_wait_s, wall_s});
    std::vector<std::string> row = sched::summary_row(report);
    row[0] = config.name;
    table.add_row(row);
    std::cout << "  " << config.name << ": " << format_number(wall_s, 3)
              << " s wall, "
              << format_number(static_cast<double>(jobs) / wall_s, 0)
              << " jobs/s\n";
    if (report.completed_jobs + report.failed_jobs != jobs) {
      std::cerr << "REGRESSION: " << config.name << " lost jobs at scale ("
                << report.completed_jobs << " + " << report.failed_jobs
                << " != " << jobs << ")\n";
      ok = false;
    }
    if (wan_contention) {
      const double events = metrics.gauge("wan.rebalance.events");
      const double recomputes = metrics.gauge("wan.rebalance.recomputes");
      const double full = metrics.gauge("wan.rebalance.full_refills");
      std::cout << "    wan.rebalance: events "
                << format_number(events, 0) << ", recomputes "
                << format_number(recomputes, 0) << ", links_touched "
                << format_number(metrics.gauge("wan.rebalance.links_touched"),
                                 0)
                << ", full_refills " << format_number(full, 0) << '\n';
      // Gates bind above smoke size; tiny tuning sweeps may not overlap.
      if (jobs >= 1000 && report.max_wan_slowdown <= 1.0) {
        std::cerr << "REGRESSION: " << config.name
                  << " saw no WAN contention at scale (max slowdown "
                  << report.max_wan_slowdown << ")\n";
        ok = false;
      }
      if (jobs >= 1000 && events <= 0.0) {
        std::cerr << "REGRESSION: " << config.name
                  << " recorded no wan.rebalance.events under contention\n";
        ok = false;
      }
      // The incremental-engine claim, counter-gated: recomputes that fall
      // back to refilling every busy link must be rare next to the
      // structural events absorbed (8x is a floor; measured runs sit far
      // above it).
      if (jobs >= 1000 && 8.0 * full > events) {
        std::cerr << "REGRESSION: " << config.name
                  << " full_refills not << events (" << full << " vs "
                  << events << ")\n";
        ok = false;
      }
    }
  }
  table.print(std::cout);
  const long long rss_kb = peak_rss_kb();
  std::cout << "total " << format_number(wall_total, 3)
            << " s wall, peak RSS " << rss_kb / 1024 << " MB\n";
  write_bench_json("BENCH_job_service.json", jobs, rows, executions,
                   wall_total, &profiler);

  // Budgets bind only at full scale — smaller sweeps are for tuning.
  if (jobs >= 1000000) {
    constexpr double kWallBudgetS = 600.0;
    constexpr long long kRssBudgetKb = 8LL * 1024 * 1024;
    if (wall_total > kWallBudgetS) {
      std::cerr << "REGRESSION: scale scenario took "
                << format_number(wall_total, 3) << " s wall (budget "
                << kWallBudgetS << " s)\n";
      ok = false;
    }
    if (rss_kb > kRssBudgetKb) {
      std::cerr << "REGRESSION: scale scenario peaked at " << rss_kb
                << " kB RSS (budget " << kRssBudgetKb << " kB)\n";
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--scale") {
    bool wan_contention = false;
    std::vector<std::string> positional;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--wan-contention") {
        wan_contention = true;
      } else {
        positional.push_back(arg);
      }
    }
    const int jobs = positional.size() > 0 ? std::atoi(positional[0].c_str())
                                           : 1000000;
    const int users = positional.size() > 1 ? std::atoi(positional[1].c_str())
                                            : 100000;
    if (jobs <= 0 || users <= 0) {
      std::cerr << "usage: bench_job_service --scale [jobs > 0] [users > 0] "
                   "[--wan-contention]\n";
      return 1;
    }
    return run_scale(jobs, users, wan_contention);
  }
  simgrid::GridTopology topo = simgrid::GridTopology::grid5000(4, 32, 2);
  const model::Roofline roof = model::paper_calibration();

  sched::WorkloadSpec spec;
  spec.jobs = argc > 1 ? std::atoi(argv[1]) : 1000;
  if (spec.jobs <= 0) {
    std::cerr << "usage: bench_job_service [jobs > 0]\n";
    return 1;
  }
  spec.mean_interarrival_s = 0.25;
  spec.procs_choices = {16, 32, 64, 128, 256};  // up to whole-grid jobs
  spec.seed = 2026;
  const std::vector<sched::Job> jobs = sched::generate_workload(spec);

  std::cout << "Grid job service: " << spec.jobs
            << " queued TSQR jobs on " << topo.num_clusters() << " sites / "
            << topo.total_procs() << " processes (seed " << spec.seed
            << ", mean inter-arrival "
            << format_number(spec.mean_interarrival_s, 3) << " s)\n\n"
            << "Healthy grid:\n";

  TextTable healthy;
  healthy.set_header(bench_header());
  double fcfs_makespan = 0.0, easy_makespan = 0.0;
  double wall_total = 0.0;
  long long executions = 0;  // attempts, including requeued restarts
  std::vector<BenchRow> bench_rows;
  sched::PhaseProfiler profiler;  // aggregated across every traced run
  bool crit_ok = true;
  const auto gate_critpath = [&crit_ok](const TracedRun& traced,
                                        const std::string& where) {
    if (!traced.crit_ok) {
      std::cerr << "REGRESSION: critical path does not tile the makespan ("
                << where << ")\n";
      crit_ok = false;
    }
  };
  for (sched::Policy policy : kPolicies) {
    sched::ServiceOptions options;
    options.policy = policy;
    const TracedRun traced = run_traced(topo, roof, options, jobs, profiler);
    const sched::ServiceReport& report = traced.report;
    const double wall_s = traced.wall_s;
    gate_critpath(traced, "healthy " + std::string(policy_name(policy)));
    wall_total += wall_s;
    executions += spec.jobs + report.requeued_jobs;
    bench_rows.push_back({"healthy", std::string(policy_name(policy)),
                          report.makespan_s, report.mean_wait_s, wall_s,
                          traced.crit_run_frac});
    healthy.add_row(bench_row(traced));
    if (policy == sched::Policy::kFcfs) fcfs_makespan = report.makespan_s;
    if (policy == sched::Policy::kEasyBackfill) {
      easy_makespan = report.makespan_s;
    }
  }
  healthy.print(std::cout);

  // Churn: MTBF scaled to the healthy makespan so roughly 8 outages hit
  // each site during the run regardless of the job count, and walltimes
  // over-asked so EASY must plan with estimates (and honest users whose
  // WAN placements outrun Equation (1) get walltime-killed).
  sched::OutageSpec outage_spec;
  outage_spec.mtbf_s = fcfs_makespan / 8.0;
  outage_spec.mean_outage_s = outage_spec.mtbf_s / 8.0;
  outage_spec.seed = spec.seed + 1;

  std::vector<sched::Job> churn_jobs = jobs;
  {
    const sched::GridJobService predictor(topo, roof);
    sched::assign_walltimes(churn_jobs, 5.0, spec.seed, [&](const sched::Job& j) {
      return predictor.predicted_seconds(j);
    });
  }

  std::cout << "\nChurn (per-site MTBF "
            << format_number(outage_spec.mtbf_s, 4) << " s, mean repair "
            << format_number(outage_spec.mean_outage_s, 4)
            << " s, walltime over-ask U[1, 5), 3 retries, restart "
               "credit):\n";
  TextTable churn;
  churn.set_header(bench_header());
  bool churn_ok = true;
  double churn_fcfs = 0.0, churn_easy = 0.0;
  for (sched::Policy policy : kPolicies) {
    sched::ServiceOptions options;
    options.policy = policy;
    options.outages = sched::OutageTrace(outage_spec, topo.num_clusters());
    options.max_retries = 3;
    options.restart_credit = true;
    const TracedRun traced =
        run_traced(topo, roof, options, churn_jobs, profiler);
    const sched::ServiceReport& report = traced.report;
    const double wall_s = traced.wall_s;
    gate_critpath(traced, "churn " + std::string(policy_name(policy)));
    wall_total += wall_s;
    executions += spec.jobs + report.requeued_jobs;
    bench_rows.push_back({"churn", std::string(policy_name(policy)),
                          report.makespan_s, report.mean_wait_s, wall_s,
                          traced.crit_run_frac});
    churn.add_row(bench_row(traced));
    if (policy == sched::Policy::kFcfs) churn_fcfs = report.makespan_s;
    if (policy == sched::Policy::kEasyBackfill) {
      churn_easy = report.makespan_s;
    }
    // The acceptance gate: real churn (kills AND requeues) under every
    // policy, with no job lost or double-counted by the event loop.
    if (report.killed_jobs <= 0 || report.requeued_jobs <= 0) {
      std::cerr << "REGRESSION: " << policy_name(policy)
                << " saw no churn (killed " << report.killed_jobs
                << ", requeued " << report.requeued_jobs << ")\n";
      churn_ok = false;
    }
    if (report.completed_jobs + report.failed_jobs != spec.jobs ||
        report.outcomes.size() != static_cast<std::size_t>(spec.jobs)) {
      std::cerr << "REGRESSION: " << policy_name(policy)
                << " lost jobs (completed " << report.completed_jobs
                << " + failed " << report.failed_jobs << " != "
                << spec.jobs << ")\n";
      churn_ok = false;
    }
  }
  churn.print(std::cout);
  // WAN-heavy shoot-out: make the paper's scarce resource scarce again.
  // Wide flat-tree jobs (the original TSQR: every domain's R factor
  // crosses to one root) on a 20 Mb/s-per-site WAN, mixed with
  // single-cluster fillers that fragment the grid so the meta-scheduler
  // actually has placement choices. Naive dispatch first-fits from site
  // 0 regardless of in-flight flows; network-aware dispatch orders
  // candidate sites idlest-uplink-first.
  sched::WorkloadSpec wan_spec;
  wan_spec.jobs = std::max(spec.jobs / 2, 12);
  wan_spec.mean_interarrival_s = 0.4;
  wan_spec.m_choices = {1 << 17, 1 << 18};
  wan_spec.n_choices = {256, 512};
  // 24/48 procs: 12/24-node single-cluster fillers (no WAN bytes).
  // 68 procs: 2 x 17 nodes; 132 procs: 3 x 22 nodes — the WAN jobs.
  wan_spec.procs_choices = {24, 48, 68, 132};
  wan_spec.tree_choices = {core::TreeKind::kFlat};
  wan_spec.seed = spec.seed + 2;
  const std::vector<sched::Job> wan_jobs = sched::generate_workload(wan_spec);

  std::cout << "\nWAN-heavy (" << wan_spec.jobs
            << " flat-tree jobs, 0.02 Gb/s per site uplink, shared-WAN "
               "contention, EASY):\n";
  TextTable wan_table;
  wan_table.set_header(bench_header());
  double naive_makespan = 0.0, aware_makespan = 0.0;
  bool wan_ok = true;
  for (const bool aware : {false, true}) {
    sched::ServiceOptions options;
    options.policy = sched::Policy::kEasyBackfill;
    options.wan_contention = true;
    options.wan_aware = aware;
    options.wan_link_Bps = 0.02e9 / 8.0;
    const TracedRun traced =
        run_traced(topo, roof, options, wan_jobs, profiler);
    const sched::ServiceReport& report = traced.report;
    const double wall_s = traced.wall_s;
    gate_critpath(traced,
                  aware ? "wan-heavy easy+aware" : "wan-heavy easy+naive");
    wall_total += wall_s;
    executions += wan_spec.jobs + report.requeued_jobs;
    bench_rows.push_back({"wan-heavy",
                          aware ? "easy+aware" : "easy+naive",
                          report.makespan_s, report.mean_wait_s, wall_s,
                          traced.crit_run_frac});
    std::vector<std::string> row = bench_row(traced);
    row[0] = aware ? "easy+aware" : "easy+naive";
    wan_table.add_row(row);
    (aware ? aware_makespan : naive_makespan) = report.makespan_s;
    // Monotonicity gate: a shared WAN can only ever stretch a job.
    for (const sched::JobOutcome& o : report.outcomes) {
      if (o.completed() && o.wan_slowdown < 1.0 - 1e-9) {
        std::cerr << "REGRESSION: job " << o.job.id << " ran FASTER under "
                  << "contention (slowdown " << o.wan_slowdown << ")\n";
        wan_ok = false;
      }
    }
    if (sched::max_wan_busy_fraction(report) <= 0.0 ||
        report.max_wan_slowdown <= 1.0) {
      std::cerr << "REGRESSION: WAN-heavy scenario saw no contention "
                << "(busy " << sched::max_wan_busy_fraction(report)
                << ", max slowdown " << report.max_wan_slowdown << ")\n";
      wan_ok = false;
    }
  }
  wan_table.print(std::cout);
  std::cout << "network-aware placement moves makespan "
            << format_number(
                   100.0 * (1.0 - aware_makespan / naive_makespan), 3)
            << " % vs naive under shared-WAN contention\n";

  // WAN-contended, max-min fairness: the same thin-uplink workload through
  // the incremental rate engine. Beyond the physics gates (monotonicity,
  // contention present) this scenario reads the wan.rebalance.* gauges and
  // asserts counter coherence: structural events were absorbed, and
  // whole-graph refills stayed a subset of component recomputes which
  // stayed a subset of events (coalescing can only merge, never invent).
  std::cout << "\nWAN-contended (" << wan_spec.jobs
            << " flat-tree jobs, 0.02 Gb/s per site uplink, max-min "
               "fairness, EASY+aware):\n";
  TextTable contended_table;
  contended_table.set_header(bench_header());
  {
    sched::ServiceOptions options;
    options.policy = sched::Policy::kEasyBackfill;
    options.wan_contention = true;
    options.wan_aware = true;
    options.wan_fairness = sched::WanFairness::kMaxMin;
    options.wan_link_Bps = 0.02e9 / 8.0;
    sched::MetricsRegistry metrics;
    options.metrics = &metrics;
    const TracedRun traced =
        run_traced(topo, roof, options, wan_jobs, profiler);
    const sched::ServiceReport& report = traced.report;
    gate_critpath(traced, "wan-contended easy+maxmin");
    wall_total += traced.wall_s;
    executions += wan_spec.jobs + report.requeued_jobs;
    bench_rows.push_back({"wan-contended", "easy+maxmin", report.makespan_s,
                          report.mean_wait_s, traced.wall_s,
                          traced.crit_run_frac});
    std::vector<std::string> row = bench_row(traced);
    row[0] = "easy+maxmin";
    contended_table.add_row(row);
    for (const sched::JobOutcome& o : report.outcomes) {
      if (o.completed() && o.wan_slowdown < 1.0 - 1e-9) {
        std::cerr << "REGRESSION: job " << o.job.id << " ran FASTER under "
                  << "max-min contention (slowdown " << o.wan_slowdown
                  << ")\n";
        wan_ok = false;
      }
    }
    if (sched::max_wan_busy_fraction(report) <= 0.0 ||
        report.max_wan_slowdown <= 1.0) {
      std::cerr << "REGRESSION: WAN-contended scenario saw no contention "
                << "(busy " << sched::max_wan_busy_fraction(report)
                << ", max slowdown " << report.max_wan_slowdown << ")\n";
      wan_ok = false;
    }
    const double events = metrics.gauge("wan.rebalance.events");
    const double recomputes = metrics.gauge("wan.rebalance.recomputes");
    const double full = metrics.gauge("wan.rebalance.full_refills");
    if (events <= 0.0) {
      std::cerr << "REGRESSION: WAN-contended scenario recorded no "
                << "wan.rebalance.events\n";
      wan_ok = false;
    }
    if (full > recomputes || recomputes > events) {
      std::cerr << "REGRESSION: wan.rebalance counters incoherent "
                << "(full_refills " << full << ", recomputes " << recomputes
                << ", events " << events << ")\n";
      wan_ok = false;
    }
    contended_table.print(std::cout);
    std::cout << "wan.rebalance: " << format_number(events, 0)
              << " events coalesced into " << format_number(recomputes, 0)
              << " recomputes ("
              << format_number(metrics.gauge("wan.rebalance.links_touched"),
                               0)
              << " links touched, " << format_number(full, 0)
              << " whole-graph refills)\n";
  }

  // Backend equivalence: a small EASY workload through the cached-DES
  // replay and through REAL threaded execution (msg::Runtime, one domain
  // per process). The replay is a validated predictor only if the two
  // agree — identical scheduling decisions, measured finish times within
  // tolerance, and every executed factorization numerically correct.
  sched::WorkloadSpec eq_spec;
  eq_spec.jobs = 24;
  eq_spec.mean_interarrival_s = 0.004;
  eq_spec.m_choices = {512, 1024, 2048};
  eq_spec.n_choices = {16, 32};
  eq_spec.procs_choices = {2, 4, 8};
  eq_spec.seed = spec.seed + 3;
  const std::vector<sched::Job> eq_jobs = sched::generate_workload(eq_spec);
  const simgrid::GridTopology eq_topo =
      simgrid::GridTopology::grid5000(2, 2, 2);

  std::cout << "\nBackend equivalence (" << eq_spec.jobs
            << " small jobs, 2 sites x 4 procs, EASY, one domain per "
               "process):\n";
  TextTable eq_table;
  eq_table.set_header(bench_header());
  bool eq_ok = true;
  sched::ServiceReport eq_reports[2];
  for (const bool real : {false, true}) {
    sched::ServiceOptions options;
    options.policy = sched::Policy::kEasyBackfill;
    options.domains_per_cluster = core::kOneDomainPerProcess;
    options.backend = real ? sched::BackendKind::kMsgRuntime
                           : sched::BackendKind::kDesReplay;
    const TracedRun traced =
        run_traced(eq_topo, roof, options, eq_jobs, profiler);
    const double wall_s = traced.wall_s;
    gate_critpath(traced, real ? "backend-equivalence easy+msg"
                               : "backend-equivalence easy+des");
    wall_total += wall_s;
    executions += eq_spec.jobs;
    bench_rows.push_back({"backend-equivalence",
                          real ? "easy+msg" : "easy+des",
                          traced.report.makespan_s,
                          traced.report.mean_wait_s, wall_s,
                          traced.crit_run_frac});
    std::vector<std::string> row = bench_row(traced);
    row[0] = real ? "easy+msg" : "easy+des";
    eq_table.add_row(row);
    eq_reports[real ? 1 : 0] = traced.report;
  }
  eq_table.print(std::cout);
  const sched::ServiceReport& des_run = eq_reports[0];
  const sched::ServiceReport& msg_run = eq_reports[1];
  double worst_rel = 0.0;
  for (std::size_t i = 0; i < msg_run.outcomes.size(); ++i) {
    const sched::JobOutcome& d = des_run.outcomes[i];
    const sched::JobOutcome& m = msg_run.outcomes[i];
    if (d.start_s != m.start_s || d.finish_s != m.finish_s ||
        d.clusters != m.clusters || d.backfilled != m.backfilled) {
      std::cerr << "REGRESSION: backends disagree on the scheduling of "
                << "job " << m.job.id << '\n';
      eq_ok = false;
    }
    if (m.completed() && m.service_s > 0.0) {
      worst_rel = std::max(
          worst_rel, std::abs(m.measured_s - m.service_s) / m.service_s);
    }
  }
  if (worst_rel > 0.02) {
    std::cerr << "REGRESSION: measured msg-runtime finish times drifted "
              << worst_rel << " relative from the DES replay (> 2%)\n";
    eq_ok = false;
  }
  if (msg_run.executed_attempts != msg_run.completed_jobs ||
      msg_run.max_residual <= 0.0 || msg_run.max_residual > 1e-10 ||
      msg_run.max_orthogonality > 1e-10) {
    std::cerr << "REGRESSION: msg-backend numerics gate failed (executed "
              << msg_run.executed_attempts << ", max resid "
              << msg_run.max_residual << ", max ortho "
              << msg_run.max_orthogonality << ")\n";
    eq_ok = false;
  }
  std::cout << "msg-runtime vs DES-replay: identical scheduling, worst "
               "finish-time drift "
            << format_number(100.0 * worst_rel, 3) << " %, max residual "
            << msg_run.max_residual << '\n';

  // Mixed-priority, two-user shoot-out for the policy objects: a heavy
  // flood (queues build) where half the jobs are priority-1 and users 0/1
  // submit alternately with fair-share weights 2:1. Priority-aware EASY
  // must serve the top class faster than priority-blind classic EASY;
  // weighted fair-share must serve the heavy user ahead without starving
  // the light one past the configured ratio.
  sched::WorkloadSpec mix_spec;
  mix_spec.jobs = std::max(spec.jobs / 2, 24);
  mix_spec.mean_interarrival_s = 0.05;
  mix_spec.procs_choices = {16, 32, 64, 128};
  mix_spec.priority_levels = 2;
  mix_spec.seed = spec.seed + 4;
  std::vector<sched::Job> mix_jobs = sched::generate_workload(mix_spec);
  // Alternating user assignment (not a random draw): both users carry
  // statistically equal demand, which is what makes the makespan-ratio
  // gate below meaningful — with ideal 2:1 deficit-round-robin on equal
  // backlogs, the heavy user drains at 2/3 capacity until exhausted and
  // the light user finishes last at about 4/3 of the heavy makespan.
  for (sched::Job& job : mix_jobs) {
    job.user = job.id % 2;
    job.weight = job.user == 0 ? 2.0 : 1.0;
  }

  std::cout << "\nMixed-priority, two-user (" << mix_spec.jobs
            << " jobs, 2 priority classes, users weighted 2:1):\n";
  TextTable mix_table;
  mix_table.set_header(bench_header());
  bool mix_ok = true;
  double top_wait_easy = 0.0, top_wait_prio = 0.0;
  double user_makespan[2] = {0.0, 0.0};
  for (const sched::Policy policy :
       {sched::Policy::kEasyBackfill, sched::Policy::kPriorityEasy,
        sched::Policy::kFairShare}) {
    sched::ServiceOptions options;
    options.policy = policy;
    const TracedRun traced =
        run_traced(topo, roof, options, mix_jobs, profiler);
    const sched::ServiceReport& report = traced.report;
    const double wall_s = traced.wall_s;
    gate_critpath(traced,
                  "mixed-priority " + std::string(policy_name(policy)));
    wall_total += wall_s;
    executions += mix_spec.jobs + report.requeued_jobs;
    bench_rows.push_back({"mixed-priority",
                          std::string(policy_name(policy)),
                          report.makespan_s, report.mean_wait_s, wall_s,
                          traced.crit_run_frac});
    mix_table.add_row(bench_row(traced));
    double top_wait = 0.0;
    int top_count = 0;
    for (const sched::JobOutcome& o : report.outcomes) {
      if (o.job.priority == 1) {
        top_wait += o.wait_s();
        ++top_count;
      }
      if (policy == sched::Policy::kFairShare) {
        user_makespan[static_cast<std::size_t>(o.job.user)] = std::max(
            user_makespan[static_cast<std::size_t>(o.job.user)],
            o.finish_s);
      }
    }
    top_wait /= std::max(top_count, 1);
    if (policy == sched::Policy::kEasyBackfill) top_wait_easy = top_wait;
    if (policy == sched::Policy::kPriorityEasy) top_wait_prio = top_wait;
    if (report.completed_jobs + report.failed_jobs != mix_spec.jobs) {
      std::cerr << "REGRESSION: " << policy_name(policy)
                << " lost jobs in the mixed scenario\n";
      mix_ok = false;
    }
  }
  mix_table.print(std::cout);
  const double makespan_ratio = user_makespan[1] / user_makespan[0];
  std::cout << "priority-1 mean wait: easy "
            << format_number(top_wait_easy, 4) << " s, prio-easy "
            << format_number(top_wait_prio, 4)
            << " s; fair-share user makespans (weights 2:1): heavy "
            << format_number(user_makespan[0], 5) << " s, light "
            << format_number(user_makespan[1], 5) << " s (ratio "
            << format_number(makespan_ratio, 4) << ")\n";
  // Ordering gates at full scale only, like every scenario above: tiny
  // smoke runs have too little queueing for stable gaps.
  if (spec.jobs >= 500) {
    if (top_wait_prio >= top_wait_easy) {
      std::cerr << "REGRESSION: priority-EASY did not beat plain EASY on "
                << "high-priority mean wait (" << top_wait_prio << " vs "
                << top_wait_easy << ")\n";
      mix_ok = false;
    }
    // The weighted-fairness gate: the heavy (weight-2) user finishes
    // first, and the light user's makespan stays within the configured
    // 2:1 ratio (plus slack for discrete job granularity) — fair-share
    // prioritizes without starving.
    if (makespan_ratio <= 1.0 || makespan_ratio > 2.0 * 1.15) {
      std::cerr << "REGRESSION: fair-share user makespan ratio "
                << makespan_ratio << " outside (1, 2.3] for weights 2:1\n";
      mix_ok = false;
    }
  }

  std::cout << "\nsimulated " << executions
            << " job executions (requeued restarts included) in "
            << format_number(wall_total, 3) << " s of wall time\n"
            << "self-profile (all runs):";
  for (int p = 0; p < sched::kProfilePhaseCount; ++p) {
    const auto phase = static_cast<sched::ProfilePhase>(p);
    std::cout << ' ' << sched::profile_phase_name(phase) << ' '
              << format_number(1e3 * profiler.total_s(phase), 4) << " ms/"
              << profiler.calls(phase);
  }
  std::cout << '\n';
  write_bench_json("BENCH_job_service.json", spec.jobs, bench_rows,
                   executions, wall_total, &profiler);
  if (!churn_ok || !wan_ok || !eq_ok || !mix_ok || !crit_ok) return 1;
  // The WAN-placement ordering, like the EASY-vs-FCFS gate below, is
  // only asserted at full scale; tiny smoke runs barely overlap.
  if (spec.jobs >= 500 && aware_makespan >= naive_makespan) {
    std::cerr << "REGRESSION: network-aware placement did not beat naive "
              << "placement on the WAN-heavy makespan (" << aware_makespan
              << " vs " << naive_makespan << ")\n";
    return 1;
  }

  std::cout << "churn stretches FCFS makespan by "
            << format_number(100.0 * (churn_fcfs / fcfs_makespan - 1.0), 3)
            << " %; EASY's healthy-grid edge over FCFS is "
            << format_number(100.0 * (1.0 - easy_makespan / fcfs_makespan),
                             3)
            << " %, under churn "
            << format_number(100.0 * (1.0 - churn_easy / churn_fcfs), 3)
            << " %\n";

  // The headline healthy-grid ordering is only asserted at full scale;
  // tiny smoke runs (CI's 60-job lane) have too little queueing for a
  // stable gap.
  if (spec.jobs >= 500 && easy_makespan >= fcfs_makespan) {
    std::cerr << "REGRESSION: EASY backfilling did not beat FCFS makespan ("
              << easy_makespan << " vs " << fcfs_makespan << ")\n";
    return 1;
  }
  return 0;
}
