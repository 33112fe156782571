// qrgrid_cli — command-line front end to the library.
//
//   qrgrid_cli topology  --sites S [--nodes N] [--procs-per-node P]
//       Print the simulated grid (clusters, ranks, link parameters).
//
//   qrgrid_cli simulate  --algo tsqr|scalapack --m M --n N --sites S
//                        [--domains D] [--tree grid|binary|flat]
//                        [--nb NB] [--form-q]
//       Replay one factorization schedule at grid scale (DES engine) and
//       report time, Gflop/s, and per-link-class message counts.
//
//   qrgrid_cli sweep     --algo tsqr|scalapack --n N --sites S
//                        [--domains D] [--tree ...]
//       Print a Gflop/s-vs-M series (the axes of the paper's Figs. 4/5).
//
//   qrgrid_cli factor    --procs P --rows-per-proc R --n N
//                        [--tree grid|binary|flat] [--seed X]
//       Run the real threaded TSQR on random data, verify the
//       factorization, and report accuracy plus the simulated grid time.
//
//   qrgrid_cli serve     [--jobs J]
//                        [--policy fcfs|spjf|easy|prio-easy|fair|all]
//                        [--backend des|msg] [--domains D]
//                        [--sites S] [--nodes N] [--procs-per-node P]
//                        [--arrival-s T] [--seed X] [--csv path]
//                        [--users U] [--weights W0,W1,...]
//                        [--priorities L]
//                        [--mtbf S] [--repair S] [--outage-seed X]
//                        [--walltime-factor F] [--retries K]
//                        [--backfill-depth D]
//                        [--restart-credit] [--panels K]
//                        [--checkpoint-cost S] [--wan-gbps G]
//                        [--backbone-gbps G] [--wan-contention]
//                        [--wan-aware] [--wan-fair equal|maxmin]
//                        [--tree grid|binary|flat]
//       Run the grid job service on a seeded Poisson workload of queued
//       TSQR factorizations and report per-policy makespan, waits,
//       throughput, utilization, and fault accounting. Policies are the
//       pluggable objects of sched/policy.hpp: fcfs, spjf, easy (classic
//       arrival-ordered backfilling), prio-easy (higher priority claims
//       the shadow reservation; WAN-priced shadows under contention),
//       and fair (weighted fair-share, deficit-round-robin per user).
//       --users draws each job's submitting user uniformly from [0, U);
//       --weights assigns fair-share weights per user (comma list,
//       cycled); --priorities draws priorities from [0, L). --mtbf turns
//       on seeded whole-cluster outages (mean up-time per site; --repair
//       is the mean down-time, default mtbf/10); killed jobs are
//       requeued up to --retries times, optionally restarting from their
//       last completed panel (--restart-credit, --panels;
//       --checkpoint-cost charges that many seconds of I/O per panel
//       checkpoint instead of granting the credit for free).
//       --walltime-factor F gives every job a user walltime = predicted
//       x U[1, F) — the classic over-ask — which EASY plans with and the
//       service enforces. --wan-gbps sets each site's aggregate WAN
//       uplink (wired through to DesEngine::set_wan_aggregate_Bps for
//       every replay); --wan-contention makes concurrent jobs SHARE
//       those uplinks plus a backbone (--backbone-gbps, default sites/2
//       x uplink; inf = an unconstrained core under either rule),
//       stretching finish times under load; --wan-fair picks the rate
//       rule (equal-split per link, the default, or progressive-filling
//       max-min; both run through the one incremental rate engine);
//       --wan-aware steers placements toward currently-idle uplinks and
//       REQUIRES --wan-contention (network-aware placement is
//       meaningless without the shared model — the bare flag is
//       rejected).
//       --backend selects how granted attempts run: des (cached DES
//       replay, the default — figure-scale jobs in milliseconds) or msg
//       (REAL threaded execution of every attempt on msg::Runtime with
//       per-job numerics in the summary's executed / max-resid columns;
//       small workloads only, so the default job shapes shrink).
//       --domains sets domains-per-cluster for every replay (0 = auto,
//       -1 = one single-rank domain per process — the layout the
//       engine-equivalence suite pins the msg backend against).
//       --csv writes one machine-readable row per (policy, job) for
//       bench sweeps (see tools/plot_sweep.py).
//       Observability (sched/telemetry.hpp): --trace-out FILE writes the
//       run's structured event stream as Chrome-trace JSON (load in
//       Perfetto / chrome://tracing — per-job lifecycle spans, cluster
//       occupancy, WAN flows, queue-depth counters); --metrics-out FILE
//       writes the metrics registry (counters, gauges, histograms,
//       virtual-time series — tools/plot_sweep.py --timeline plots it);
//       --gantt[=N] prints a per-cluster occupancy Gantt for the N
//       busiest clusters (default 8). --blame turns on wait-blame
//       attribution (ServiceOptions::wait_blame): every pending job's
//       wait is partitioned into the BlameCategory taxonomy, emitted as
//       kWaitBlame events (validator-enforced partition) and rolled up
//       as blame.* gauges in --metrics-out. --critpath-out FILE
//       reconstructs the run's makespan-critical chain from the trace
//       (sched/critpath.hpp) and writes it as JSON; the CLI self-checks
//       that the chain tiles [0, makespan] exactly. --profile arms the
//       scoped self-profiler (wall seconds per event-loop phase;
//       profile-compute, the replays of profile-cache misses, nests
//       inside dispatch-scan), printed per policy and exported as
//       profiler.* gauges when --metrics-out is armed. Any of --trace-out / --gantt / --blame /
//       --critpath-out arms the tracer, and every traced run is checked
//       by the streaming invariant validator (non-zero exit on
//       violation). When --policy all runs several policies, output
//       filenames get a .<policy> suffix.
//       Checkpoint/restart (sched/snapshot.hpp): --checkpoint-out FILE
//       [--checkpoint-at T] snapshots the FULL mid-run service state the
//       first time the virtual clock reaches T (default 0) and keeps
//       running to completion; --resume FILE restores such a snapshot
//       into an identically-configured service and runs it to
//       completion — the resumed run's trace, metrics, summary, and any
//       --checkpoint-out it writes are byte-identical to the
//       uninterrupted one's. The snapshot embeds its configuration (the
//       grid's clusters and links, the roofline, every option that
//       shapes decisions, and which telemetry sinks are armed), and a
//       resume under any other configuration is refused with an error
//       naming the first differing tag (e.g. "snapshot wan_link_Bps
//       mismatches" after a changed --wan-gbps; a telemetry tag also
//       names the flags that set it). Both require a single --policy.
//
//   qrgrid_cli explore   [--jobs J] [--policy ...|all] [--sites S]
//                        [--nodes N] [--procs-per-node P] [--seed X]
//                        [--arrival-s T] [--users U] [--weights W,...]
//                        [--priorities L] [--tree grid|binary|flat]
//                        [--mtbf S] [--repair S] [--outage-seed X]
//                        [--walltime-factor F] [--retries K]
//                        [--backfill-depth D] [--restart-credit]
//                        [--panels K] [--checkpoint-cost S]
//                        [--wan-gbps G] [--backbone-gbps G]
//                        [--wan-contention] [--wan-aware]
//                        [--wan-fair equal|maxmin] [--backend des|msg]
//                        [--domains D] [--blame]
//                        [--quantize-s Q] [--max-leaves L]
//       Exhaustively enumerate every legal same-instant tie ordering of
//       a BOUNDED workload (sched/explore.hpp): snapshot before every
//       event-loop step, branch each k-way completion / outage / arrival
//       tie through the tie oracle, and validate the full TraceValidator
//       invariant set plus report-level conservation on every leaf. The
//       workload and service flags mean exactly what they mean for
//       serve (one builder serves both; --blame adds the wait-blame
//       partition to every leaf's checks). --quantize-s rounds arrivals
//       onto a Q-second grid to manufacture same-instant ties;
//       --max-leaves (default 20000) bounds the enumeration. The
//       canonical leaf is byte-compared against a plain oracle-free run.
//       Non-zero exit on any violation, with the choice-sequence
//       reproduction recipe printed per finding.
//
// Numeric flags are strict: each value is one whole token and never NaN
// (inf is legal, e.g. --backbone-gbps inf); integer flags must be
// integral and fit an int, seeds integral in [0, 2^64). A malformed
// value exits non-zero with an error that names the flag.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/des_algos.hpp"
#include "core/tsqr.hpp"
#include "linalg/generators.hpp"
#include "linalg/norms.hpp"
#include "model/costs.hpp"
#include "model/roofline.hpp"
#include "sched/critpath.hpp"
#include "sched/explore.hpp"
#include "sched/profiler.hpp"
#include "sched/service.hpp"
#include "sched/snapshot.hpp"
#include "sched/telemetry.hpp"
#include "sched/workload.hpp"
#include "simgrid/cost.hpp"

using namespace qrgrid;

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  bool flag(const std::string& name) const {
    return options.contains(name);
  }
  std::string get(const std::string& name, const std::string& fallback) const {
    auto it = options.find(name);
    return it == options.end() ? fallback : it->second;
  }
  /// A numeric flag: one whole token and never NaN (inf is legal:
  /// --backbone-gbps inf is an unconstrained core).
  double num(const std::string& name, double fallback) const {
    auto it = options.find(name);
    if (it == options.end()) return fallback;
    const std::string& text = it->second;
    std::size_t used = 0;
    double value = std::numeric_limits<double>::quiet_NaN();
    try {
      value = std::stod(text, &used);
    } catch (const std::exception&) {
      // malformed or out of double range: refused below
    }
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
        used != text.size() || std::isnan(value)) {
      throw Error("--" + name + " expects a number, got '" + text + "'");
    }
    return value;
  }
  /// An integer flag: a number that is integral and fits an int.
  int integer(const std::string& name, int fallback) const {
    const double value = num(name, fallback);
    if (value != std::floor(value) ||
        value < std::numeric_limits<int>::min() ||
        value > std::numeric_limits<int>::max()) {
      throw Error("--" + name + " expects an integer that fits an int, got '" +
                  get(name, "") + "'");
    }
    return static_cast<int>(value);
  }
  /// A seed flag: an integer in [0, 2^64).
  std::uint64_t seed(const std::string& name, std::uint64_t fallback) const {
    if (!flag(name)) return fallback;
    const double value = num(name, 0.0);
    if (value != std::floor(value) || value < 0.0 || value >= 0x1p64) {
      throw Error("--" + name + " expects an integer seed in [0, 2^64), got '" +
                  get(name, "") + "'");
    }
    return static_cast<std::uint64_t>(value);
  }
};

Args parse(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw Error("expected an --option, got '" + key + "'");
    }
    key = key.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.options[key] = argv[++i];
    } else {
      args.options[key] = "";  // boolean flag
    }
  }
  return args;
}

core::TreeKind tree_of(const std::string& name) {
  if (name == "grid") return core::TreeKind::kGridHierarchical;
  if (name == "binary") return core::TreeKind::kBinary;
  if (name == "flat") return core::TreeKind::kFlat;
  throw Error("unknown tree '" + name + "' (grid|binary|flat)");
}

simgrid::GridTopology topo_of(const Args& args) {
  return simgrid::GridTopology::grid5000(args.integer("sites", 4),
                                         args.integer("nodes", 32),
                                         args.integer("procs-per-node", 2));
}

int cmd_topology(const Args& args) {
  simgrid::GridTopology topo = topo_of(args);
  std::cout << "Simulated grid: " << topo.num_clusters() << " sites, "
            << topo.total_procs() << " processes, theoretical peak "
            << format_number(topo.theoretical_peak_gflops(), 5)
            << " Gflop/s\n\n";
  TextTable t;
  t.set_header({"site", "nodes", "procs", "proc peak (Gflop/s)",
                "first rank"});
  for (int c = 0; c < topo.num_clusters(); ++c) {
    const auto& spec = topo.cluster(c);
    t.add_row({spec.name, std::to_string(spec.nodes),
               std::to_string(spec.procs()),
               format_number(spec.proc_peak_gflops, 3),
               std::to_string(topo.cluster_rank_base(c))});
  }
  t.print(std::cout);
  std::cout << "\nintra-node: "
            << format_number(topo.intra_node_link().latency_s * 1e6, 3)
            << " us / "
            << format_number(topo.intra_node_link().bandwidth_Bps * 8 / 1e9,
                             3)
            << " Gb/s; intra-cluster: "
            << format_number(topo.intra_cluster_link().latency_s * 1e3, 3)
            << " ms / "
            << format_number(
                   topo.intra_cluster_link().bandwidth_Bps * 8 / 1e6, 3)
            << " Mb/s\n";
  return 0;
}

core::DesRunResult run_sim(const Args& args,
                           const simgrid::GridTopology& topo, double m,
                           double n) {
  const std::string algo = args.get("algo", "tsqr");
  const model::Roofline roof = model::paper_calibration();
  if (algo == "tsqr") {
    return core::run_des_tsqr(topo, roof, args.integer("domains", 64), m, n,
                              tree_of(args.get("tree", "grid")),
                              args.flag("form-q"));
  }
  if (algo == "scalapack") {
    return core::run_des_scalapack(topo, roof, m, n, args.integer("nb", 64),
                                   args.flag("form-q"));
  }
  throw Error("unknown --algo '" + algo + "' (tsqr|scalapack)");
}

int cmd_simulate(const Args& args) {
  simgrid::GridTopology topo = topo_of(args);
  const double m = args.num("m", 1 << 22);
  const double n = args.num("n", 64);
  core::DesRunResult r = run_sim(args, topo, m, n);
  std::cout << args.get("algo", "tsqr") << " on "
            << format_number(m) << " x " << format_number(n) << " over "
            << topo.num_clusters() << " site(s), " << topo.total_procs()
            << " processes:\n"
            << "  simulated time        " << format_number(r.seconds, 5)
            << " s\n"
            << "  useful performance    " << format_number(r.gflops, 5)
            << " Gflop/s\n"
            << "  messages              " << r.total_messages
            << " (inter-site: " << r.inter_cluster_messages << ")\n"
            << "  compute utilization   "
            << format_number(100.0 * r.compute_utilization, 3) << " %\n";

  if (args.flag("timeline")) {
    // Traced replay; render the first ranks (one row per rank).
    const model::Roofline roof = model::paper_calibration();
    simgrid::DesEngine engine(&topo, roof);
    simgrid::TraceLog log;
    engine.set_trace(&log);
    if (args.get("algo", "tsqr") == "tsqr") {
      core::DomainLayout layout =
          core::make_domain_layout(topo, args.integer("domains", 64));
      core::des_tsqr(engine, layout.groups, layout.domain_cluster, m, n,
                     tree_of(args.get("tree", "grid")), args.flag("form-q"));
    } else {
      std::vector<int> ranks(static_cast<std::size_t>(topo.total_procs()));
      for (int i = 0; i < topo.total_procs(); ++i) {
        ranks[static_cast<std::size_t>(i)] = i;
      }
      core::des_pdgeqrf(engine, ranks, m, n, args.integer("nb", 64),
                        args.flag("form-q"));
    }
    const int rows = std::min(topo.total_procs(), args.integer("rows", 16));
    std::cout << "\nTimeline (first " << rows << " ranks):\n"
              << simgrid::render_timeline(log, rows, engine.makespan(), 72);
  }
  return 0;
}

int cmd_sweep(const Args& args) {
  simgrid::GridTopology topo = topo_of(args);
  const double n = args.num("n", 64);
  std::cout << "# M  Gflop/s (" << args.get("algo", "tsqr") << ", N="
            << format_number(n) << ", sites=" << topo.num_clusters()
            << ")\n";
  const double cap = n <= 128 ? (1 << 25) : (1 << 23);
  for (double m = 1 << 17; m <= cap; m *= 2) {
    core::DesRunResult r = run_sim(args, topo, m, n);
    std::cout << format_number(m) << ' ' << format_number(r.gflops, 5)
              << '\n';
  }
  return 0;
}

int cmd_factor(const Args& args) {
  const int procs = args.integer("procs", 8);
  const Index m_loc = args.integer("rows-per-proc", 1024);
  const Index n = args.integer("n", 32);
  const std::uint64_t seed = args.seed("seed", 2026);

  // Build a small grid holding exactly `procs` ranks (2 sites when even).
  const int sites = procs % 2 == 0 && procs >= 4 ? 2 : 1;
  simgrid::GridTopology topo = simgrid::GridTopology::grid5000(
      sites, std::max(1, procs / (sites * 2)), 2);
  QRGRID_CHECK_MSG(topo.total_procs() == procs,
                   "procs must be 1, 2 or a multiple of 4");
  auto cost = std::make_shared<simgrid::TopologyCostModel>(
      topo, model::paper_calibration());

  msg::Runtime rt(procs, cost);
  std::vector<Matrix> q_blocks(static_cast<std::size_t>(procs));
  Matrix r;
  double sim_time = 0.0;
  core::TsqrOptions options;
  options.tree = tree_of(args.get("tree", "grid"));
  for (int rank = 0; rank < procs; ++rank) {
    options.rank_cluster.push_back(topo.location_of(rank).cluster);
  }
  msg::RunStats stats = rt.run([&](msg::Comm& comm) {
    Matrix local(m_loc, n);
    fill_gaussian_rows(local.view(), comm.rank() * m_loc, seed);
    core::TsqrFactors f = tsqr_factor(comm, local.view(), options);
    q_blocks[static_cast<std::size_t>(comm.rank())] =
        tsqr_form_explicit_q(comm, f);
    if (comm.rank() == 0) {
      r = std::move(f.r);
      sim_time = comm.vtime();
    }
  });

  Matrix a(m_loc * procs, n), q(m_loc * procs, n);
  fill_gaussian_rows(a.view(), 0, seed);
  for (int rank = 0; rank < procs; ++rank) {
    copy(q_blocks[static_cast<std::size_t>(rank)].view(),
         q.block(rank * m_loc, 0, m_loc, n));
  }
  const double resid = factorization_residual(a.view(), q.view(), r.view());
  const double ortho = orthogonality_error(q.view());
  std::cout << "TSQR of " << m_loc * procs << " x " << n << " over "
            << procs << " ranks (" << sites << " site(s)):\n"
            << "  ||A - QR||/||A||   " << resid << '\n'
            << "  ||Q^T Q - I||      " << ortho << '\n'
            << "  messages           " << stats.messages << " (inter-site: "
            << stats.messages_by_class[3] << ")\n"
            << "  simulated time     " << format_number(sim_time, 5)
            << " s\n";
  // Non-zero exit when verification fails, so scripts can rely on it.
  return (resid < 1e-10 && ortho < 1e-10) ? 0 : 2;
}

// ---------------------------------------------------------------------
// serve and explore build their services from one set of flags.

/// --policy: one policy name, or `all` (the default) for all five.
std::vector<sched::Policy> policies_of(const Args& args) {
  const std::string which = args.get("policy", "all");
  if (which != "all") return {sched::policy_of(which)};
  return {sched::Policy::kFcfs, sched::Policy::kSpjf,
          sched::Policy::kEasyBackfill, sched::Policy::kPriorityEasy,
          sched::Policy::kFairShare};
}

/// --mtbf / --repair / --outage-seed (default: --seed + 1).
sched::OutageSpec outage_spec_of(const Args& args) {
  sched::OutageSpec spec;
  spec.mtbf_s = args.num("mtbf", 0.0);
  // Callers build the generator only for mtbf > 0, so a negative value
  // would silently run fault-free.
  if (spec.mtbf_s < 0.0) {
    throw Error("--mtbf must be >= 0 (0 = no faults), got " +
                args.get("mtbf", ""));
  }
  spec.mean_outage_s = args.num("repair", spec.mtbf_s / 10.0);
  spec.seed = args.seed("outage-seed", 1 + args.seed("seed", 2026));
  return spec;
}

/// Every ServiceOptions field a flag sets, for every policy alike; the
/// caller adds the policy and its telemetry sinks.
sched::ServiceOptions options_of(const Args& args,
                                 const simgrid::GridTopology& topo) {
  sched::ServiceOptions options;
  options.backend = sched::backend_of(args.get("backend", "des"));
  const sched::OutageSpec outage_spec = outage_spec_of(args);
  if (outage_spec.mtbf_s > 0.0) {
    options.outages = sched::OutageTrace(outage_spec, topo.num_clusters());
  }
  options.max_retries = args.integer("retries", 3);
  options.backfill_depth = args.integer("backfill-depth", 0);
  options.restart_credit = args.flag("restart-credit");
  options.checkpoint_panels = args.integer("panels", 8);
  options.checkpoint_cost_s = args.num("checkpoint-cost", 0.0);
  options.wan_contention = args.flag("wan-contention");
  options.wan_aware = args.flag("wan-aware");
  // Network-aware placement only means anything over a shared WAN.
  // Silently (or footnote-ly) enabling a second model from one flag bit
  // us before: reject the bare flag loudly instead (the CLI-validation
  // tests pin both spellings).
  if (options.wan_aware && !options.wan_contention) {
    throw Error(
        "--wan-aware requires --wan-contention (network-aware placement "
        "steers around the shared-WAN flows that flag models; pass both)");
  }
  options.wan_fairness = sched::wan_fairness_of(args.get("wan-fair", "equal"));
  options.wan_link_Bps = args.num("wan-gbps", 10.0) * 1e9 / 8.0;
  options.wan_backbone_Bps = args.num("backbone-gbps", 0.0) * 1e9 / 8.0;
  options.wait_blame = args.flag("blame");
  // The msg backend defaults to the one-domain-per-process layout the
  // equivalence suite validates the predictor under.
  options.domains_per_cluster = args.integer(
      "domains", options.backend == sched::BackendKind::kMsgRuntime
                     ? core::kOneDomainPerProcess
                     : 0);
  return options;
}

/// The seeded Poisson workload: the caller sets spec.jobs and
/// spec.mean_interarrival_s (their defaults differ per command); the
/// other flags fill in the rest. Process counts scale to the grid, the
/// msg backend keeps shapes small, and --walltime-factor F gives every
/// job a walltime = predicted x U[1, F).
std::vector<sched::Job> workload_of(const Args& args,
                                    const simgrid::GridTopology& topo,
                                    bool msg_backend,
                                    sched::WorkloadSpec& spec) {
  spec.seed = args.seed("seed", 2026);
  spec.users = args.integer("users", 1);
  spec.priority_levels = args.integer("priorities", 1);
  const std::string weights = args.get("weights", "");
  if (!weights.empty()) {
    std::string token;
    for (std::istringstream stream(weights); std::getline(stream, token, ',');) {
      std::size_t parsed = 0;
      double value = 0.0;
      try {
        value = std::stod(token, &parsed);
      } catch (const std::exception&) {
        parsed = 0;
      }
      if (parsed != token.size() || token.empty() || value <= 0.0) {
        throw Error("--weights expects comma-separated positive numbers "
                    "(got '" + weights + "')");
      }
      spec.user_weights.push_back(value);
    }
  }
  // Process counts scaled to the grid: quarter-cluster up to whole-grid
  // (degenerates to {total} on grids too small to halve).
  const int total = topo.total_procs();
  spec.procs_choices.clear();
  for (int p = std::min(total, std::max(2, total / 16)); p <= total;
       p *= 2) {
    spec.procs_choices.push_back(p);
  }
  if (msg_backend) {
    // Every attempt runs for REAL on threads: keep the matrices small
    // (the backend enforces a hard element cap on top of this), but
    // large enough that the WIDEST possible grant still gives every rank
    // at least n local rows — a whole-grid job is granted all `total`
    // processes plus up to one node's worth of round-up per group.
    const int max_n = 32;
    const int ppn = args.integer("procs-per-node", 2);
    const double min_m =
        static_cast<double>(max_n) * (total + 8 * std::max(1, ppn - 1));
    double m = 512;
    while (m < min_m) m *= 2;
    spec.m_choices = {m, 2 * m, 4 * m};
    spec.n_choices = {16, max_n};
  }
  spec.tree_choices = {tree_of(args.get("tree", "grid"))};
  std::vector<sched::Job> jobs = sched::generate_workload(spec);
  const double walltime_factor = args.num("walltime-factor", 0.0);
  if (walltime_factor > 0.0) {
    const sched::GridJobService predictor(topo, model::paper_calibration());
    sched::assign_walltimes(
        jobs, walltime_factor, spec.seed,
        [&](const sched::Job& job) { return predictor.predicted_seconds(job); });
  }
  return jobs;
}

/// Restores a `serve --checkpoint-out` file. Telemetry presence is part
/// of the checkpointed configuration, so a refused telemetry tag also
/// names the serve flags that set it.
void restore_checkpoint(sched::GridJobService& service,
                        const std::string& bytes) {
  try {
    service.restore(bytes);
  } catch (const Error& e) {
    const std::string what = e.what();
    for (const auto& [tag, flags] :
         {std::pair{"snapshot tracer ",
                    "--trace-out, --gantt, --critpath-out or --blame"},
          std::pair{"snapshot metrics ", "--metrics-out"},
          std::pair{"snapshot wait_blame ", "--blame"}}) {
      if (what.find(tag) != std::string::npos) {
        throw Error(what + " (set by " + flags +
                    ": resume with the checkpointing run's flags)");
      }
    }
    throw;
  }
}

int cmd_serve(const Args& args) {
  simgrid::GridTopology topo = topo_of(args);
  const model::Roofline roof = model::paper_calibration();

  // Options before any work: an unknown backend or rate rule, a
  // malformed number, or a bare --wan-aware must fail fast.
  const sched::ServiceOptions base = options_of(args, topo);
  const bool msg_backend = base.backend == sched::BackendKind::kMsgRuntime;
  sched::WorkloadSpec spec;
  spec.jobs = args.integer("jobs", msg_backend ? 20 : 200);
  spec.mean_interarrival_s = args.num("arrival-s", msg_backend ? 0.004 : 0.25);
  const std::vector<sched::Job> jobs =
      workload_of(args, topo, msg_backend, spec);
  const std::vector<sched::Policy> policies = policies_of(args);

  // Observability knobs. Any of --trace-out / --metrics-out / --gantt
  // arms the tracer; --gantt's optional value is the cluster budget (a
  // bare flag parses as "", NOT a number — args.integer would throw).
  const std::string trace_out = args.get("trace-out", "");
  const std::string metrics_out = args.get("metrics-out", "");
  const bool want_gantt = args.flag("gantt");
  const int gantt_clusters =
      args.get("gantt", "").empty() ? 8 : args.integer("gantt", 8);
  const std::string critpath_out = args.get("critpath-out", "");
  const bool want_profile = args.flag("profile");
  // Checkpoint/restart: a snapshot embeds ONE service configuration, so
  // the multi-policy sweep cannot carry either flag.
  const std::string checkpoint_out = args.get("checkpoint-out", "");
  const double checkpoint_at = args.num("checkpoint-at", 0.0);
  const std::string resume_path = args.get("resume", "");
  if ((!checkpoint_out.empty() || !resume_path.empty()) &&
      policies.size() > 1) {
    throw Error(
        "--checkpoint-out/--resume require a single --policy (a snapshot "
        "embeds one service configuration)");
  }
  const bool want_trace = !trace_out.empty() || want_gantt ||
                          !critpath_out.empty() || base.wait_blame;
  const bool want_metrics = !metrics_out.empty();
  // With several policies in one run, suffix output files per policy.
  const auto policy_path = [&](const std::string& path,
                               sched::Policy policy) {
    if (policies.size() < 2) return path;
    const std::size_t slash = path.find_last_of('/');
    const std::size_t dot = path.find_last_of('.');
    const std::string tag = "." + std::string(policy_name(policy));
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash)) {
      return path + tag;
    }
    return path.substr(0, dot) + tag + path.substr(dot);
  };

  std::ofstream csv;
  const std::string csv_path = args.get("csv", "");
  if (!csv_path.empty()) {
    csv.open(csv_path);
    QRGRID_CHECK_MSG(csv.is_open(), "cannot open --csv " << csv_path);
    csv.precision(17);  // round-trip doubles; sweeps join rows on m/times
    csv << "policy,job_id,arrival_s,start_s,finish_s,wait_s,service_s,"
           "m,n,procs,nodes,sites,backfilled,gflops,fate,attempts,"
           "wasted_node_s,wan_slowdown,measured_s,residual,user,weight\n";
  }

  std::cout << "Serving " << spec.jobs << " queued TSQR jobs on "
            << topo.num_clusters() << " site(s), " << topo.total_procs()
            << " processes (seed " << spec.seed << ", mean inter-arrival "
            << format_number(spec.mean_interarrival_s, 3) << " s)\n";
  const sched::OutageSpec outage_spec = outage_spec_of(args);
  if (outage_spec.mtbf_s > 0.0) {
    std::cout << "Outages: per-site MTBF "
              << format_number(outage_spec.mtbf_s, 4) << " s, mean repair "
              << format_number(outage_spec.mean_outage_s, 4) << " s (seed "
              << outage_spec.seed << "), " << base.max_retries << " retries"
              << (base.restart_credit ? ", restart credit" : "") << '\n';
  }
  const double walltime_factor = args.num("walltime-factor", 0.0);
  if (walltime_factor > 0.0) {
    std::cout << "Walltimes: predicted x U[1, "
              << format_number(walltime_factor, 3)
              << ") per job, enforced\n";
  }
  if (base.wan_contention) {
    std::cout << "Shared WAN: " << format_number(args.num("wan-gbps", 10.0), 4)
              << " Gb/s per site uplink, "
              << sched::wan_fairness_name(base.wan_fairness)
              << " contention on"
              << (base.wan_aware ? ", network-aware placement" : "") << '\n';
  }
  if (msg_backend) {
    std::cout << "Backend: " << sched::backend_name(base.backend)
              << " — every attempt executes for real on a threaded "
                 "msg::Runtime (numerics in the executed / max-resid "
                 "columns); workload shapes kept small\n";
  }
  std::cout << '\n';
  TextTable table;
  table.set_header(sched::summary_header());
  std::ostringstream gantts;
  for (sched::Policy policy : policies) {
    sched::ServiceTracer tracer;
    sched::MetricsRegistry metrics;
    sched::PhaseProfiler profiler;
    sched::ServiceOptions options = base;
    options.policy = policy;
    options.tracer = want_trace ? &tracer : nullptr;
    options.metrics = want_metrics ? &metrics : nullptr;
    options.profiler = want_profile ? &profiler : nullptr;
    sched::GridJobService service(topo, roof, options);
    if (!resume_path.empty()) {
      std::ifstream in(resume_path, std::ios::binary);
      QRGRID_CHECK_MSG(in.is_open(), "cannot open --resume " << resume_path);
      std::ostringstream buf;
      buf << in.rdbuf();
      restore_checkpoint(service, buf.str());
      std::cout << "resumed from " << resume_path << " at t="
                << format_number(service.now_s(), 5) << " s\n";
    } else {
      service.start(jobs);
    }
    bool checkpoint_due = !checkpoint_out.empty();
    const auto write_checkpoint = [&] {
      const std::string bytes = service.snapshot();
      std::ofstream out(checkpoint_out, std::ios::binary);
      QRGRID_CHECK_MSG(out.is_open(),
                       "cannot open --checkpoint-out " << checkpoint_out);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      std::cout << "checkpoint written to " << checkpoint_out << " ("
                << bytes.size() << " bytes, t="
                << format_number(service.now_s(), 5) << " s)\n";
      checkpoint_due = false;
    };
    while (service.active()) {
      if (checkpoint_due && service.now_s() >= checkpoint_at) {
        write_checkpoint();
      }
      service.step();
    }
    // The run drained before the clock reached the mark: snapshot the
    // drained state anyway, so the artifact always exists (resuming it
    // just finishes immediately).
    if (checkpoint_due) write_checkpoint();
    const sched::ServiceReport report = service.finish();
    table.add_row(sched::summary_row(report));
    if (want_trace) {
      // Every traced run must satisfy the pinned event invariants.
      sched::TraceValidator verdict;
      for (const sched::ServiceTraceEvent& ev : tracer.events()) {
        verdict.consume(ev);
      }
      verdict.finish();
      if (!verdict.ok()) {
        std::cerr << "trace validator: " << verdict.violations().size()
                  << " violation(s) under " << policy_name(policy) << ":\n";
        for (const std::string& v : verdict.violations()) {
          std::cerr << "  " << v << '\n';
        }
        return 1;
      }
      std::cout << "trace validator: OK (" << verdict.events_seen()
                << " events, " << policy_name(policy) << ")\n";
      if (!trace_out.empty()) {
        const std::string path = policy_path(trace_out, policy);
        std::ofstream out(path);
        QRGRID_CHECK_MSG(out.is_open(), "cannot open --trace-out " << path);
        sched::write_chrome_trace(tracer.events(), out);
        std::cout << "chrome trace written to " << path << '\n';
      }
      if (want_gantt) {
        gantts << '\n' << policy_name(policy) << " cluster occupancy:\n"
               << sched::render_cluster_gantt(tracer.events(), topo,
                                              gantt_clusters);
      }
      if (!critpath_out.empty()) {
        const sched::CriticalPathReport cp =
            sched::analyze_critical_path(tracer.events());
        // Self-gate before writing anything: the chain must tile the
        // reported makespan with exactly-adjacent tiles.
        QRGRID_CHECK_MSG(
            cp.tiles(report.makespan_s),
            "critical path does not tile the reported makespan under "
                << policy_name(policy));
        const std::string path = policy_path(critpath_out, policy);
        std::ofstream out(path);
        QRGRID_CHECK_MSG(out.is_open(),
                         "cannot open --critpath-out " << path);
        sched::write_critpath_json(cp, out);
        std::cout << "critical path: " << cp.chain_attempts
                  << " attempt(s), length "
                  << format_number(cp.path_length_s(), 5)
                  << " s tiles the makespan; written to " << path << '\n';
      }
    }
    if (want_profile) {
      std::cout << "self-profile (" << policy_name(policy) << "):";
      for (int i = 0; i < sched::kProfilePhaseCount; ++i) {
        const auto phase = static_cast<sched::ProfilePhase>(i);
        std::cout << ' ' << sched::profile_phase_name(phase) << ' '
                  << format_number(profiler.total_s(phase) * 1e3, 4)
                  << " ms/" << profiler.calls(phase);
      }
      std::cout << '\n';
    }
    if (!metrics_out.empty()) {
      const std::string path = policy_path(metrics_out, policy);
      std::ofstream out(path);
      QRGRID_CHECK_MSG(out.is_open(), "cannot open --metrics-out " << path);
      metrics.write_json(out);
      std::cout << "metrics written to " << path << '\n';
    }
    if (csv.is_open()) {
      for (const sched::JobOutcome& o : report.outcomes) {
        csv << policy_name(policy) << ',' << o.job.id << ','
            << o.job.arrival_s << ',' << o.start_s << ',' << o.finish_s
            << ',' << o.wait_s() << ',' << o.service_s << ','
            << static_cast<long long>(o.job.m) << ',' << o.job.n << ','
            << o.job.procs << ',' << o.nodes << ',' << o.clusters.size()
            << ',' << (o.backfilled ? 1 : 0) << ',' << o.gflops << ','
            << sched::fate_name(o.fate) << ',' << o.attempts << ','
            << o.wasted_node_s << ',' << o.wan_slowdown << ','
            << o.measured_s << ',' << o.residual << ','
            << o.job.user << ',' << o.job.weight << '\n';
      }
    }
  }
  table.print(std::cout);
  const std::string gantt_text = gantts.str();
  if (!gantt_text.empty()) std::cout << gantt_text;
  if (csv.is_open()) {
    std::cout << "\nper-job rows written to " << csv_path << '\n';
  }
  return 0;
}

int cmd_explore(const Args& args) {
  simgrid::GridTopology topo = topo_of(args);
  const model::Roofline roof = model::paper_calibration();
  const sched::ServiceOptions base = options_of(args, topo);

  sched::WorkloadSpec spec;
  spec.jobs = args.integer("jobs", 6);
  QRGRID_CHECK_MSG(
      spec.jobs >= 1 && spec.jobs <= 16,
      "explore enumerates EVERY tie ordering (exponential): --jobs must "
      "be in [1, 16], got " << spec.jobs);
  spec.mean_interarrival_s = args.num("arrival-s", 0.05);
  std::vector<sched::Job> jobs = workload_of(
      args, topo, base.backend == sched::BackendKind::kMsgRuntime, spec);
  const std::vector<sched::Policy> policies = policies_of(args);
  // Poisson arrivals almost never tie; snapping them onto a coarse grid
  // manufactures the same-instant arrival groups worth exploring.
  const double quantize = args.num("quantize-s", 0.0);
  if (quantize > 0.0) {
    for (sched::Job& job : jobs) {
      job.arrival_s = std::floor(job.arrival_s / quantize) * quantize;
    }
  }

  sched::ExploreLimits limits;
  limits.max_leaves = args.integer("max-leaves", 20000);

  std::cout << "Exploring " << spec.jobs << " jobs on "
            << topo.num_clusters() << " site(s) (seed " << spec.seed
            << (quantize > 0.0
                    ? ", arrivals quantized to " +
                          format_number(quantize, 3) + " s"
                    : std::string())
            << ")\n";
  bool failed = false;
  for (sched::Policy policy : policies) {
    const sched::ServiceFactory factory =
        [&, policy](sched::ServiceTracer* tracer,
                    sched::MetricsRegistry* metrics) {
          sched::ServiceOptions options = base;
          options.policy = policy;
          options.tracer = tracer;
          options.metrics = metrics;
          return std::make_unique<sched::GridJobService>(topo, roof,
                                                         options);
        };
    const sched::ExploreResult result =
        sched::explore_interleavings(factory, jobs, limits);

    // The canonical (all-zeros) leaf must be byte-identical to a plain
    // oracle-free run: the explorer harness itself may not perturb the
    // service.
    sched::ServiceTracer plain_tracer;
    sched::MetricsRegistry plain_metrics;
    const std::unique_ptr<sched::GridJobService> plain =
        factory(&plain_tracer, &plain_metrics);
    plain->run(jobs);
    sched::SnapshotWriter plain_bytes;
    plain_bytes(plain_tracer);
    QRGRID_CHECK_MSG(plain_bytes.bytes() == result.canonical_trace_bytes,
                     "canonical leaf trace diverges from the plain run "
                     "under " << policy_name(policy));

    std::cout << policy_name(policy) << ": " << result.leaves
              << " interleaving(s), " << result.decision_points
              << " decision point(s), max fanout " << result.max_fanout
              << (result.truncated ? " (TRUNCATED at --max-leaves)" : "")
              << " — ";
    if (result.ok()) {
      std::cout << "all invariants hold\n";
    } else {
      failed = true;
      std::cout << result.violations.size() << " violation(s)\n";
      for (const sched::ExploreViolation& v : result.violations) {
        std::cout << "  " << v.what << "\n    reproduce with choices:";
        for (int c : v.prescription) std::cout << ' ' << c;
        std::cout << '\n';
      }
    }
  }
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args = parse(argc, argv);
    if (args.command == "topology") return cmd_topology(args);
    if (args.command == "simulate") return cmd_simulate(args);
    if (args.command == "sweep") return cmd_sweep(args);
    if (args.command == "factor") return cmd_factor(args);
    if (args.command == "serve") return cmd_serve(args);
    if (args.command == "explore") return cmd_explore(args);
    std::cerr << "usage: qrgrid_cli topology|simulate|sweep|factor|serve"
                 "|explore "
                 "[--option value ...]\n"
                 "see the header of tools/qrgrid_cli.cpp for details\n";
    return args.command.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
