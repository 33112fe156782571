// Benchmark of record: one workload per process, timed from outside the
// library through public calls only (GridJobService::start/step/finish,
// core::run_des_tsqr / run_des_scalapack, msg::Runtime::run around
// core::tsqr_factor + tsqr_form_explicit_q, geqrf and tpqrt_tt).
//
//   bench_suite --workload W --seed S --seconds T --trace 0|1
//               [--smoke] [--out DIR]
//
// Prints one JSON object on the last stdout line: the end-to-end metrics
// (trace 0) or the per-layer metrics (trace 1), the op and sample counts,
// every failed check, and the reference values suite_run.py compares
// against suite_reference.json. With --trace 1 the spans recorded around
// each call are written to DIR/bench_trace.<workload>.json (Chrome trace).
//
// Terms used throughout:
//   set-up   what must happen before a request can run: generating its
//            inputs and building the service, grids or runtime;
//   request  what a user waits for end to end: one cold service run on a
//            fresh GridJobService (backlog-easy: warm reruns of ten
//            streams), one full Fig. 8 sweep, or one threaded
//            factorization with explicit Q;
//   call     the finest public call timed: one step(), one DES replay
//            call, or one Runtime::run.
// The seed derives every request's inputs (job stream, walltimes,
// outages, payload); stream k of a run uses seed + k * kStride, so
// stream 0 reproduces the reference inputs exactly and a run samples
// many streams instead of repeating one.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "core/des_algos.hpp"
#include "core/tsqr.hpp"
#include "linalg/generators.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "linalg/tpqrt.hpp"
#include "msg/comm.hpp"
#include "sched/profiler.hpp"
#include "sched/service.hpp"
#include "sched/telemetry.hpp"
#include "sched/workload.hpp"
#include "simgrid/cost.hpp"

namespace {

using namespace qrgrid;

/// Every timestamp is seconds since start-up on the steady clock.
const Stopwatch kClock;
double now_s() { return kClock.seconds(); }

constexpr std::uint64_t kStride = 1000003;

std::uint64_t stream_seed(std::uint64_t seed, int request) {
  return seed + kStride * static_cast<std::uint64_t>(request);
}

// ------------------------------------------------------------- statistics

/// Linear-interpolation quantile (numpy's default); 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Peak resident set of this process image, from VmHWM. getrusage's
/// ru_maxrss would not do: Linux carries it across execve, so a small
/// child would report its launcher's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw Error("no VmHWM in /proc/self/status");
}

// ------------------------------------------------------------------ JSON

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + '"';
}

/// Insertion-ordered JSON object of already-encoded values.
class JsonObject {
 public:
  void put(const std::string& key, double v) { raw(key, json_number(v)); }
  void put(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      s += (i ? "," : "") + json_number(v[i]);
    }
    raw(key, s + "]");
  }
  void put(const std::string& key, const std::vector<std::string>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      s += (i ? "," : "") + json_string(v[i]);
    }
    raw(key, s + "]");
  }
  void raw(const std::string& key, const std::string& encoded) {
    fields_.emplace_back(key, encoded);
  }
  std::string str() const {
    std::string s = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      s += (i ? "," : "") + json_string(fields_[i].first) + ":" +
           fields_[i].second;
    }
    return s + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// ----------------------------------------------------------------- spans

/// In-memory span log of the traced run, written once at exit as Chrome
/// trace JSON. Spans are recorded from the benchmark's own code around
/// the public calls it makes; nothing inside the library is touched.
/// Main-thread only: per-rank spans are timestamped into per-rank slots
/// inside the rank lambda and added here after Runtime::run returns.
class SpanLog {
 public:
  struct Span {
    const char* name;
    double t0_s;
    double t1_s;
    int parent;
    int op;
    int tid;
  };

  explicit SpanLog(bool on) : on_(on) {}
  bool on() const { return on_; }

  /// Opens a span now; returns its id (-1 when tracing is off).
  int open(const char* name, int op, int parent = -1) {
    if (!on_) return -1;
    spans_.push_back({name, now_s(), 0.0, parent, op, 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].t1_s = now_s();
  }
  int add(const char* name, double t0_s, double t1_s, int op, int parent,
          int tid) {
    if (!on_) return -1;
    spans_.push_back({name, t0_s, t1_s, parent, op, tid});
    return static_cast<int>(spans_.size()) - 1;
  }

  void write_chrome(const std::string& path) const {
    std::ofstream out(path);
    if (!out.is_open()) throw Error("cannot write " + path);
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"name\":" << json_string(s.name)
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
          << ",\"ts\":" << json_number(s.t0_s * 1e6)
          << ",\"dur\":" << json_number((s.t1_s - s.t0_s) * 1e6)
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"op\":" << s.op << "}}";
    }
    out << "\n]}\n";
  }

 private:
  bool on_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------- result

/// Per-layer metric names, in BENCHMARK.json order. Every traced run
/// reports all of them; a layer the workload does not exercise reads 0.
constexpr const char* kLayerMetrics[] = {
    "replay.fill_s",          "replay.fill_frac",
    "replay.misses",          "replay.hit_ratio",
    "replay.ms_per_miss",     "replay.call_p50_ms",
    "replay.call_p99_ms",     "replay.tsqr_s",
    "replay.scalapack_s",     "replay.messages",
    "replay.ns_per_message",  "sched.warm_run_s",
    "sched.step_p50_us",      "sched.step_p99_us",
    "sched.dispatch_scan_s",
    "sched.shadow_s",         "sched.completion_extract_s",
    "sched.unphased_s",       "sched.backfill_scans",
    "sched.backfill_admits",  "sched.backfill_yield",
    "sched.queue_reinserts",  "sched.kills",
    "sched.requeues",         "wan.advance_s",
    "wan.rebalance_s",        "wan.rebalance_events",
    "wan.rebalance_recomputes", "wan.full_refills",
    "telemetry.overhead_frac", "telemetry.events",
    "core.tsqr_factor_ms_p50", "core.form_q_ms_p50",
    "msg.run_overhead_ms",    "msg.rank_skew_frac",
    "msg.messages",           "msg.bytes",
    "linalg.geqrf_gflops",    "linalg.tpqrt_gflops",
    "linalg.serial_geqrf_ms", "linalg.flops_per_byte",
    "trace.overhead_frac",
};

struct Config {
  std::string workload;
  std::uint64_t seed = 2026;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".";
};

struct Result {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> errors;
  std::vector<double> setup_s;
  std::vector<double> request_s;
  std::map<std::string, double> layers;
  JsonObject reference;

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 20) errors.push_back(why);
  }
};

/// Loop guard shared by every workload: keep going until at least
/// `min_requests` ran and the measurement window is spent.
struct Window {
  double start_s = now_s();
  double seconds;
  int min_requests;
  bool expired() const { return now_s() - start_s >= seconds; }
  bool more(int done) const { return done < min_requests || !expired(); }
};

// ------------------------------------------------------ service workloads

/// Synthetic many-site extension of the measured Grid'5000 subset: site s
/// twins measured site s mod 4, and each inter-site link borrows the
/// measured parameters of its endpoint classes (a same-class pair uses
/// its class's link to the next class). The same construction as the
/// contended scale lane of bench_job_service, so wan-contended runs the
/// 16-site topology that lane gates.
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
      } else if (ca == cb) {
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

struct ServiceSpec {
  simgrid::GridTopology topo;
  sched::WorkloadSpec jobs;
  sched::ServiceOptions options;  ///< outages are drawn per stream
  double mtbf_s = 0.0;
  double repair_s = 0.0;
  double walltime_factor = 0.0;
  bool wan = false;
  /// 0: cold requests, one fresh service per stream. n > 0: the set-up
  /// serves n streams on one service, filling its profile cache, and each
  /// request reruns all n on it warm.
  int warm_streams = 0;
};

/// The three scheduler workloads; README.md gives the reasons in full.
///   backlog-easy   EASY with an unbounded backfill scan over a burst
///                  backlog ~1000 deep. Requests are WARM reruns, so the
///                  request is scheduler work only — the layer the
///                  backfill optimisations target — and the DES replay
///                  that fills the profile cache shows up in setup_s.
///                  Ten streams per request average out how differently
///                  a backlog drains from one arrival order to the next
///                  (~10% per stream, even with balanced shapes).
///   churn-fair     fair-share (never backfills) under outages, over-asked
///                  walltimes and retries; cold requests, ~99% DES replay.
///   wan-contended  the 16-site contended lane: max-min WAN rates and
///                  WAN-priced shadows; cold requests.
/// Cold workloads are sized so one request takes about a second or less,
/// so a run averages over many job streams.
ServiceSpec service_spec(const std::string& name, bool smoke) {
  ServiceSpec spec{simgrid::GridTopology::grid5000(4, 32, 2), {}, {}};
  // The CLI `serve` job mix on the paper grid: m 2^17..2^22, n 64..512,
  // procs from a sixteenth of the grid up to all of it.
  spec.jobs.procs_choices = {16, 32, 64, 128, 256};
  if (name == "backlog-easy") {
    // A burst: jobs arrive far faster than the grid drains them, so
    // nearly every job queues and every dispatch scans the backlog.
    spec.jobs.jobs = smoke ? 300 : 1000;
    spec.jobs.mean_interarrival_s = 0.05;
    spec.options.policy = sched::Policy::kEasyBackfill;
    spec.options.backfill_depth = 0;
    spec.warm_streams = smoke ? 1 : 10;
  } else if (name == "churn-fair") {
    spec.jobs.jobs = smoke ? 100 : 600;
    spec.jobs.mean_interarrival_s = 0.25;
    spec.jobs.users = 8;
    spec.jobs.user_weights = {2.0, 1.0};
    spec.options.policy = sched::Policy::kFairShare;
    spec.options.max_retries = 3;
    spec.options.restart_credit = true;
    spec.mtbf_s = 400.0;
    spec.repair_s = 50.0;
    spec.walltime_factor = 3.0;
  } else {  // wan-contended
    spec.topo = tiled_grid(16, 8, 2);
    spec.jobs.jobs = smoke ? 500 : 2500;
    spec.jobs.mean_interarrival_s = 0.35;
    spec.jobs.m_choices = {1 << 17, 1 << 18};
    spec.jobs.n_choices = {256, 512};
    spec.jobs.procs_choices = {6, 12, 20};
    spec.jobs.tree_choices = {core::TreeKind::kFlat};
    spec.options.policy = sched::Policy::kEasyBackfill;
    spec.options.backfill_depth = 4;
    spec.options.wan_contention = true;
    spec.options.wan_aware = true;
    spec.options.wan_fairness = sched::WanFairness::kMaxMin;
    spec.options.wan_link_Bps = 0.05e9 / 8.0;
    spec.options.wan_backbone_Bps = std::numeric_limits<double>::infinity();
    spec.wan = true;
  }
  return spec;
}

struct ServiceInputs {
  std::vector<sched::Job> jobs;
  sched::ServiceOptions options;
};

/// Gives every stream the same multiset of job shapes: each (m, n, procs)
/// combination of the mix equally often (within one), in a seeded order.
/// With independent uniform draws a stream's cost varies ~10% from stream
/// to stream, which a run of a dozen streams cannot average away; this
/// way the seed moves the order and the arrival times, not the amount of
/// work.
void balance_shapes(std::vector<sched::Job>& jobs,
                    const sched::WorkloadSpec& w, std::uint64_t seed) {
  const std::size_t nm = w.m_choices.size();
  const std::size_t nn = w.n_choices.size();
  const std::size_t combos = nm * nn * w.procs_choices.size();
  std::vector<std::size_t> order(jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i % combos;
  Rng rng(seed ^ 0x5bd1e995u);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_index(i)]);
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::size_t c = order[i];
    jobs[i].m = w.m_choices[c % nm];
    jobs[i].n = w.n_choices[c / nm % nn];
    jobs[i].procs = w.procs_choices[c / (nm * nn)];
  }
}

ServiceInputs make_inputs(const ServiceSpec& spec, const model::Roofline& roof,
                          std::uint64_t stream) {
  sched::WorkloadSpec w = spec.jobs;
  w.seed = stream;
  ServiceInputs in{sched::generate_workload(w), spec.options};
  balance_shapes(in.jobs, w, stream);
  if (spec.walltime_factor > 0.0) {
    const sched::GridJobService predictor(spec.topo, roof);
    sched::assign_walltimes(in.jobs, spec.walltime_factor, stream,
                            [&](const sched::Job& job) {
                              return predictor.predicted_seconds(job);
                            });
  }
  if (spec.mtbf_s > 0.0) {
    in.options.outages = sched::OutageTrace(
        sched::OutageSpec{spec.mtbf_s, spec.repair_s, stream + 1},
        spec.topo.num_clusters());
  }
  return in;
}

struct ServiceRun {
  sched::ServiceReport report;
  double wall_s = 0.0;
  std::vector<double> step_s;
};

/// One run through the stepping API (exactly what run() does), timing
/// every step() and, when tracing, recording start/step/finish spans
/// under one request span.
ServiceRun drive(sched::GridJobService& service,
                 const std::vector<sched::Job>& jobs, SpanLog& spans,
                 const char* label, int op) {
  ServiceRun out;
  const int request = spans.open(label, op);
  const double t0 = now_s();
  int span = spans.open("service.start", op, request);
  service.start(jobs);
  spans.close(span);
  while (service.active()) {
    span = spans.open("service.step", op, request);
    const double s0 = now_s();
    service.step();
    out.step_s.push_back(now_s() - s0);
    spans.close(span);
  }
  span = spans.open("service.finish", op, request);
  out.report = service.finish();
  spans.close(span);
  out.wall_s = now_s() - t0;
  spans.close(request);
  return out;
}

/// Invariants every service run must satisfy at any seed.
std::vector<std::string> check_service(const ServiceSpec& spec,
                                       const std::vector<sched::Job>& jobs,
                                       const sched::ServiceReport& r) {
  std::vector<std::string> bad;
  const auto n = static_cast<long long>(jobs.size());
  if (r.completed_jobs + r.failed_jobs != n ||
      static_cast<long long>(r.outcomes.size()) != n) {
    bad.push_back("job conservation: completed " +
                  std::to_string(r.completed_jobs) + " + failed " +
                  std::to_string(r.failed_jobs) + " != " + std::to_string(n));
  }
  if (r.killed_jobs != r.walltime_kills + r.outage_kills) {
    bad.push_back("kill accounting: killed != walltime + outage kills");
  }
  for (const sched::JobOutcome& o : r.outcomes) {
    if (o.start_s < o.job.arrival_s || o.finish_s < o.start_s) {
      bad.push_back("job " + std::to_string(o.job.id) +
                    " starts before arrival or ends before start");
      break;
    }
    if (spec.wan && o.completed() && o.wan_slowdown < 1.0 - 1e-9) {
      bad.push_back("job " + std::to_string(o.job.id) +
                    " ran faster under WAN contention");
      break;
    }
  }
  if (spec.wan && (r.max_wan_slowdown <= 1.0 ||
                   sched::max_wan_busy_fraction(r) <= 0.0)) {
    bad.push_back("wan-contended run saw no WAN contention");
  }
  return bad;
}

void put_service_reference(JsonObject& ref, const ServiceSpec& spec,
                           const sched::ServiceReport& r) {
  ref.put("makespan_s", r.makespan_s);
  ref.put("mean_wait_s", r.mean_wait_s);
  ref.put("completed", static_cast<double>(r.completed_jobs));
  ref.put("failed", static_cast<double>(r.failed_jobs));
  ref.put("killed", static_cast<double>(r.killed_jobs));
  ref.put("requeued", static_cast<double>(r.requeued_jobs));
  ref.put("backfilled", static_cast<double>(r.backfilled_jobs));
  if (spec.wan) {
    ref.put("mean_wan_slowdown", r.mean_wan_slowdown);
    ref.put("max_wan_slowdown", r.max_wan_slowdown);
  }
}

void record_service_checks(Result& res, const ServiceSpec& spec,
                           const std::vector<sched::Job>& jobs,
                           const sched::ServiceReport& report, int k) {
  for (const std::string& why : check_service(spec, jobs, report)) {
    res.fail("request " + std::to_string(k) + ": " + why);
  }
}

/// Untraced service run. Cold workloads: request k serves stream k on a
/// fresh service (set-up = inputs + construction). Warm workloads: the
/// set-up serves streams 0..n-1 once on one service, filling its profile
/// cache, and every request reruns all n on it — each rerun must report
/// exactly what the filling run reported. The fill is one set-up sample:
/// it takes seconds, and its cost is the replay work of n streams.
void bench_service_bare(const Config& cfg, const ServiceSpec& spec,
                        Result& res) {
  const model::Roofline roof = model::paper_calibration();
  SpanLog no_spans(false);
  if (spec.warm_streams > 0) {
    const double t0 = now_s();
    sched::GridJobService service(spec.topo, roof, spec.options);
    std::vector<ServiceInputs> streams;
    std::vector<std::vector<std::string>> rows;
    for (int s = 0; s < spec.warm_streams; ++s) {
      streams.push_back(make_inputs(spec, roof, stream_seed(cfg.seed, s)));
      const sched::ServiceReport filled =
          drive(service, streams.back().jobs, no_spans, "", s).report;
      record_service_checks(res, spec, streams.back().jobs, filled, s);
      if (s == 0) put_service_reference(res.reference, spec, filled);
      rows.push_back(sched::summary_row(filled));
    }
    res.setup_s.push_back(now_s() - t0);
    const Window window{now_s(), cfg.seconds, 1};
    for (int k = 0; window.more(k) && !(cfg.smoke && k >= 1); ++k) {
      const double r0 = now_s();
      for (std::size_t s = 0; s < streams.size(); ++s) {
        ++res.attempted;
        try {
          const ServiceRun run =
              drive(service, streams[s].jobs, no_spans, "", k);
          if (sched::summary_row(run.report) != rows[s]) {
            res.fail("request " + std::to_string(k) + " stream " +
                     std::to_string(s) +
                     ": warm rerun reports differently from the cold run");
          }
        } catch (const std::exception& e) {
          res.fail("request " + std::to_string(k) + " threw: " + e.what());
        }
      }
      res.request_s.push_back(now_s() - r0);
    }
    return;
  }
  const Window window{now_s(), cfg.seconds, 1};
  for (int k = 0; window.more(k) && !(cfg.smoke && k >= 1); ++k) {
    ++res.attempted;
    try {
      const double t0 = now_s();
      const ServiceInputs in =
          make_inputs(spec, roof, stream_seed(cfg.seed, k));
      sched::GridJobService service(spec.topo, roof, in.options);
      res.setup_s.push_back(now_s() - t0);
      const ServiceRun run = drive(service, in.jobs, no_spans, "", k);
      res.request_s.push_back(run.wall_s);
      record_service_checks(res, spec, in.jobs, run.report, k);
      if (k == 0) put_service_reference(res.reference, spec, run.report);
    } catch (const std::exception& e) {
      res.fail("request " + std::to_string(k) + " threw: " + e.what());
    }
  }
}

/// Traced service run. Each iteration serves stream k on four fresh
/// services, so every instrument is measured in isolation:
///   bare       nothing bound: a cold run, then a warm rerun whose
///              profile cache is full — cold - warm is the DES replay fill;
///   profiled   the phase profiler and the benchmark's spans: cold, then
///              warm (the phase split is read from the warm run);
///   counted    metrics only, cold: the work counts;
///   telemetry  tracer (+ validator), metrics and wait-blame, cold.
/// Every run must report the same summary row. Counts come from
/// iteration 0 (stream = seed, so they are exact functions of the seed);
/// times are medians over iterations. Spans cover iteration 0 only, which
/// keeps the trace file to a few MB.
void bench_service_traced(const Config& cfg, const ServiceSpec& spec,
                          Result& res, SpanLog& spans) {
  using sched::ProfilePhase;
  const model::Roofline roof = model::paper_calibration();
  SpanLog no_spans(false);
  std::vector<double> fill_s, fill_frac, ms_per_miss, warm_s, warm_steps,
      dispatch_s, shadow_s, extract_s, unphased_s, advance_s, rebalance_s,
      tel_frac, trace_frac;
  const Window window{now_s(), cfg.seconds, 1};
  for (int k = 0; window.more(k) && !(cfg.smoke && k >= 1); ++k) {
    ++res.attempted;
    try {
      const ServiceInputs in =
          make_inputs(spec, roof, stream_seed(cfg.seed, k));
      SpanLog& iteration_spans = k == 0 ? spans : no_spans;

      sched::GridJobService bare_service(spec.topo, roof, in.options);
      const ServiceRun bare_cold =
          drive(bare_service, in.jobs, no_spans, "", k);
      const ServiceRun bare_warm =
          drive(bare_service, in.jobs, no_spans, "", k);

      sched::PhaseProfiler profiler;
      sched::ServiceOptions profiled = in.options;
      profiled.profiler = &profiler;
      sched::GridJobService profiled_service(spec.topo, roof, profiled);
      const ServiceRun cold = drive(profiled_service, in.jobs,
                                    iteration_spans, "service.run.cold", k);
      profiler.clear();
      const ServiceRun warm = drive(profiled_service, in.jobs,
                                    iteration_spans, "service.run.warm", k);

      sched::MetricsRegistry metrics;
      sched::ServiceOptions counted_options = in.options;
      counted_options.metrics = &metrics;
      sched::GridJobService counted_service(spec.topo, roof, counted_options);
      const ServiceRun counted =
          drive(counted_service, in.jobs, no_spans, "", k);

      sched::ServiceTracer tracer;
      sched::TraceValidator validator;
      tracer.add_sink(&validator);
      sched::MetricsRegistry tel_metrics;
      sched::ServiceOptions tel_options = in.options;
      tel_options.tracer = &tracer;
      tel_options.metrics = &tel_metrics;
      tel_options.wait_blame = true;
      sched::GridJobService tel_service(spec.topo, roof, tel_options);
      const ServiceRun tel = drive(tel_service, in.jobs, no_spans, "", k);
      validator.finish();

      record_service_checks(res, spec, in.jobs, bare_cold.report, k);
      const std::vector<std::string> row =
          sched::summary_row(bare_cold.report);
      for (const ServiceRun* run : {&bare_warm, &cold, &warm, &counted, &tel}) {
        if (sched::summary_row(run->report) != row) {
          res.fail("request " + std::to_string(k) +
                   ": instrumented or warm run reports differently");
          break;
        }
      }
      if (!validator.ok()) {
        res.fail("request " + std::to_string(k) + ": trace validator: " +
                 validator.violations().front());
      }

      const double misses =
          static_cast<double>(metrics.counter("backend.profile_misses"));
      if (k == 0) {
        const double hits =
            static_cast<double>(metrics.counter("backend.profile_hits"));
        const double scans =
            static_cast<double>(metrics.counter("dispatch.backfill_scans"));
        const double admits =
            static_cast<double>(metrics.counter("dispatch.backfill_admits"));
        res.layers["replay.misses"] = misses;
        res.layers["replay.hit_ratio"] =
            hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
        res.layers["sched.backfill_scans"] = scans;
        res.layers["sched.backfill_admits"] = admits;
        res.layers["sched.backfill_yield"] =
            scans > 0.0 ? admits / scans : 0.0;
        res.layers["sched.queue_reinserts"] =
            static_cast<double>(metrics.counter("policy.resort_reinserts"));
        res.layers["sched.kills"] =
            static_cast<double>(counted.report.killed_jobs);
        res.layers["sched.requeues"] =
            static_cast<double>(counted.report.requeued_jobs);
        res.layers["wan.rebalance_events"] =
            metrics.gauge("wan.rebalance.events");
        res.layers["wan.rebalance_recomputes"] =
            metrics.gauge("wan.rebalance.recomputes");
        res.layers["wan.full_refills"] =
            metrics.gauge("wan.rebalance.full_refills");
        res.layers["telemetry.events"] =
            static_cast<double>(tracer.events().size());
        put_service_reference(res.reference, spec, bare_cold.report);
      }

      const double fill = bare_cold.wall_s - bare_warm.wall_s;
      fill_s.push_back(fill);
      fill_frac.push_back(fill / bare_cold.wall_s);
      if (misses > 0.0) ms_per_miss.push_back(1e3 * fill / misses);
      warm_s.push_back(bare_warm.wall_s);
      warm_steps.insert(warm_steps.end(), bare_warm.step_s.begin(),
                        bare_warm.step_s.end());
      const double dispatch = profiler.total_s(ProfilePhase::kDispatchScan);
      const double advance = profiler.total_s(ProfilePhase::kWanAdvance);
      const double extract =
          profiler.total_s(ProfilePhase::kCompletionExtract);
      dispatch_s.push_back(dispatch);
      shadow_s.push_back(profiler.total_s(ProfilePhase::kShadow));
      extract_s.push_back(extract);
      advance_s.push_back(advance);
      rebalance_s.push_back(profiler.total_s(ProfilePhase::kWanRebalance));
      unphased_s.push_back(warm.wall_s - dispatch - advance - extract);
      tel_frac.push_back(tel.wall_s / bare_cold.wall_s);
      trace_frac.push_back(spec.warm_streams > 0
                               ? warm.wall_s / bare_warm.wall_s
                               : cold.wall_s / bare_cold.wall_s);
    } catch (const std::exception& e) {
      res.fail("request " + std::to_string(k) + " threw: " + e.what());
    }
  }
  res.layers["replay.fill_s"] = median(fill_s);
  res.layers["replay.fill_frac"] = median(fill_frac);
  res.layers["replay.ms_per_miss"] = median(ms_per_miss);
  res.layers["sched.warm_run_s"] = median(warm_s);
  res.layers["sched.step_p50_us"] = 1e6 * median(warm_steps);
  res.layers["sched.step_p99_us"] = 1e6 * quantile(warm_steps, 0.99);
  res.layers["sched.dispatch_scan_s"] = median(dispatch_s);
  res.layers["sched.shadow_s"] = median(shadow_s);
  res.layers["sched.completion_extract_s"] = median(extract_s);
  res.layers["sched.unphased_s"] = median(unphased_s);
  res.layers["wan.advance_s"] = median(advance_s);
  res.layers["wan.rebalance_s"] = median(rebalance_s);
  res.layers["telemetry.overhead_frac"] = median(tel_frac);
  res.layers["trace.overhead_frac"] = median(trace_frac);
}

// ---------------------------------------------------------- paper figures

/// The Fig. 8 sweep, as the figure benches print it: M from 2^17 up to a
/// per-N cap mirroring the original testbed's 16 GB (33.5M rows for
/// N <= 128, 8.4M beyond), on 1, 2 and 4 sites, TSQR at the paper's 7
/// per-cluster domain counts.
std::vector<double> m_sweep(double n) {
  const double cap = n <= 128 ? (1 << 25) : (1 << 23);
  std::vector<double> ms;
  for (double m = 1 << 17; m <= cap; m *= 2) ms.push_back(m);
  return ms;
}
const std::vector<double> kNs = {64, 128, 256, 512};
const std::vector<int> kSites = {1, 2, 4};
const std::vector<int> kDomains = {1, 2, 4, 8, 16, 32, 64};

/// One Fig. 8 cell: TSQR at each of the paper's 7 per-cluster domain
/// counts plus one ScaLAPACK replay, for one (N, M, sites).
struct Cell {
  double n;
  double m;
  int site_index;
};

struct CallRecord {
  double wall_s;
  double gflops;
  long long messages;
  bool scalapack;
};

/// Everything the sweep needs before its first replay: the three grids
/// and the cell list.
struct Sweep {
  std::vector<simgrid::GridTopology> topos;
  std::vector<Cell> cells;
};

Sweep make_sweep(bool smoke) {
  Sweep sweep;
  for (int sites : kSites) {
    sweep.topos.push_back(simgrid::GridTopology::grid5000(sites));
  }
  for (double n : smoke ? std::vector<double>{64} : kNs) {
    for (double m : m_sweep(n)) {
      for (int s = 0; s < static_cast<int>(kSites.size()); ++s) {
        sweep.cells.push_back({n, m, s});
      }
    }
  }
  return sweep;
}

void bench_figures(const Config& cfg, Result& res, SpanLog& spans) {
  const model::Roofline roof = model::paper_calibration();
  // The set-up takes about a microsecond, too little to time once. It is
  // repeated in 2 ms bursts, one before the sweep and one every 64 cells,
  // so the median covers thousands of samples spread over the whole run
  // rather than one moment of it. Every repeat must build the same sweep.
  const Sweep sweep = make_sweep(cfg.smoke);
  const auto set_up_burst = [&] {
    const double start = now_s();
    while (now_s() - start < 0.002) {
      const double t0 = now_s();
      const Sweep again = make_sweep(cfg.smoke);
      res.setup_s.push_back(now_s() - t0);
      if (again.cells.size() != sweep.cells.size()) {
        res.fail("set-up built a different sweep");
      }
    }
  };
  const std::vector<Cell>& cells = sweep.cells;
  const std::vector<int>& domains = kDomains;

  // Per call of the sweep, every round's wall; per round, every call.
  const std::size_t per_cell = domains.size() + 1;
  std::vector<std::vector<double>> call_walls(cells.size() * per_cell);
  std::vector<CallRecord> first_round;
  std::vector<double> traced_call_s, traced_cell_s, bare_cell_s;
  double tsqr_s = 0.0, scalapack_s = 0.0;
  long long messages = 0;
  const Window window{now_s(), cfg.seconds, 0};
  bool done = false;
  for (int round = 0; !done; ++round) {
    const bool traced = spans.on() && round == 0;
    std::vector<CallRecord> calls;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      // Stop mid-round only once a whole round has been measured.
      if (round > 0 && (cfg.smoke || window.expired())) {
        done = true;
        break;
      }
      if (c % 64 == 0) set_up_burst();
      const Cell& cell = cells[c];
      const simgrid::GridTopology& topo =
          sweep.topos[static_cast<std::size_t>(cell.site_index)];
      const int op = static_cast<int>(c);
      const int cell_span = traced ? spans.open("figures.cell", op) : -1;
      const double c0 = now_s();
      for (std::size_t d = 0; d <= domains.size(); ++d) {
        const bool scal = d == domains.size();
        ++res.attempted;
        try {
          const int span = traced ? spans.open(scal ? "des.scalapack"
                                                    : "des.tsqr",
                                               op, cell_span)
                                  : -1;
          const double t0 = now_s();
          const core::DesRunResult r =
              scal ? core::run_des_scalapack(topo, roof, cell.m, cell.n)
                   : core::run_des_tsqr(topo, roof, domains[d], cell.m,
                                        cell.n);
          const double wall = now_s() - t0;
          spans.close(span);
          calls.push_back({wall, r.gflops, r.total_messages, scal});
          call_walls[c * per_cell + d].push_back(wall);
        } catch (const std::exception& e) {
          res.fail(std::string("replay threw: ") + e.what());
          calls.push_back({0.0, 0.0, 0, scal});
        }
      }
      const double cell_wall = now_s() - c0;
      spans.close(cell_span);
      if (spans.on()) (traced ? traced_cell_s : bare_cell_s).push_back(cell_wall);
    }
    if (round == 0) {
      first_round = calls;
      for (const CallRecord& call : calls) {
        (call.scalapack ? scalapack_s : tsqr_s) += call.wall_s;
        messages += call.messages;
        if (traced) traced_call_s.push_back(call.wall_s);
      }
    } else {
      for (std::size_t i = 0; i < calls.size(); ++i) {
        if (calls[i].gflops != first_round[i].gflops) {
          res.fail("replay " + std::to_string(i) +
                   " Gflop/s differs between rounds");
          break;
        }
      }
    }
    if (cfg.smoke) done = true;
  }

  // The reproduction checks, on the first round. Fig. 8 compares each
  // algorithm at its best site count, TSQR also at its best domain count.
  std::map<std::pair<double, double>, std::array<double, 2>> best;
  std::map<std::tuple<double, double, int>, double> tsqr_best_at;
  std::vector<double> gflops;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    double tsqr = 0.0;
    for (std::size_t d = 0; d < domains.size(); ++d) {
      tsqr = std::max(tsqr, first_round[c * per_cell + d].gflops);
    }
    const double scal = first_round[c * per_cell + domains.size()].gflops;
    auto& b = best[{cell.n, cell.m}];
    b[0] = std::max(b[0], tsqr);
    b[1] = std::max(b[1], scal);
    tsqr_best_at[{cell.n, cell.m,
                  kSites[static_cast<std::size_t>(cell.site_index)]}] =
        tsqr;
  }
  for (const CallRecord& call : first_round) gflops.push_back(call.gflops);
  for (const auto& [point, b] : best) {
    if (b[0] < b[1]) {
      res.fail("ScaLAPACK ahead of TSQR at N=" + format_number(point.first) +
               " M=" + format_number(point.second));
    }
  }
  if (!cfg.smoke) {
    const double g512 = tsqr_best_at[{512.0, 8388608.0, 4}];
    if (format_number(g512, 4) != "262.3") {
      res.fail("8388608 x 512 on 4 sites: " + format_number(g512, 6) +
               " Gflop/s, expected 262.3");
    }
    const double m64 = 1 << 25;
    const double speedup =
        tsqr_best_at[{64.0, m64, 4}] / tsqr_best_at[{64.0, m64, 1}];
    if (!(speedup >= 3.5)) {
      res.fail("33554432 x 64: 4-site speedup over 1 site " +
               format_number(speedup, 4) + " < 3.5");
    }
  }
  res.reference.put("gflops", gflops);
  res.reference.put("messages", static_cast<double>(messages));

  // A call's wall is its median over the rounds that reached it, so a
  // partial last round weighs no call more than the others.
  double sweep_s = 0.0;
  for (const std::vector<double>& walls : call_walls) sweep_s += median(walls);
  res.request_s.push_back(sweep_s);

  if (spans.on()) {
    res.layers["replay.call_p50_ms"] = 1e3 * quantile(traced_call_s, 0.5);
    res.layers["replay.call_p99_ms"] = 1e3 * quantile(traced_call_s, 0.99);
    res.layers["replay.tsqr_s"] = tsqr_s;
    res.layers["replay.scalapack_s"] = scalapack_s;
    res.layers["replay.messages"] = static_cast<double>(messages);
    res.layers["replay.ns_per_message"] =
        messages > 0 ? 1e9 * (tsqr_s + scalapack_s) /
                           static_cast<double>(messages)
                     : 0.0;
    // Overhead over the cells measured both ways: the traced first
    // round's leading cells against the bare second round's.
    const std::size_t common = std::min(traced_cell_s.size(),
                                        bare_cell_s.size());
    double traced_sum = 0.0, bare_sum = 0.0;
    for (std::size_t c = 0; c < common; ++c) {
      traced_sum += traced_cell_s[c];
      bare_sum += bare_cell_s[c];
    }
    res.layers["trace.overhead_frac"] =
        bare_sum > 0.0 ? traced_sum / bare_sum : 0.0;
  }
}

// ------------------------------------------------------------ tsqr-factor

/// FNV-1a over the bytes of a matrix: R's bitwise fingerprint.
std::uint64_t fingerprint(const Matrix& a) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(a.data());
  const std::size_t n =
      static_cast<std::size_t>(a.rows() * a.cols()) * sizeof(double);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Median seconds per kernel call: `kernel(reps)` times `reps` calls and
/// returns the elapsed seconds; `samples` such batches are taken.
template <class Kernel>
double kernel_seconds(int samples, int reps, Kernel kernel) {
  std::vector<double> s;
  for (int i = 0; i < samples; ++i) {
    const double t = kernel(reps);
    s.push_back(t / reps);
  }
  return median(s);
}

void bench_factor(const Config& cfg, Result& res, SpanLog& spans) {
  constexpr int kRanks = 4;
  // 8192 rows per rank keeps one request, set-up included, under 100 ms
  // on a 4-core Xeon, so even a 10 s window holds 100 factorizations.
  constexpr Index kRowsPerRank = 8192;
  constexpr Index kCols = 64;
  const simgrid::GridTopology topo = simgrid::GridTopology::grid5000(2, 1, 2);
  core::TsqrOptions options;
  options.tree = core::TreeKind::kGridHierarchical;
  for (int rank = 0; rank < kRanks; ++rank) {
    options.rank_cluster.push_back(topo.location_of(rank).cluster);
  }

  // Every request sets up afresh: the cost model, the runtime and the
  // payload (one Gaussian row block per rank; the same one every time).
  // The payload's storage is allocated once, outside the timing, so the
  // set-up times generating the payload rather than the kernel first
  // touching 16 MiB of fresh pages.
  std::unique_ptr<msg::Runtime> runtime;
  Matrix a(kRowsPerRank * kRanks, kCols);
  const auto set_up = [&] {
    const double t0 = now_s();
    auto cost = std::make_shared<simgrid::TopologyCostModel>(
        topo, model::paper_calibration());
    runtime = std::make_unique<msg::Runtime>(kRanks, cost);
    fill_gaussian_rows(a.view(), 0, cfg.seed);
    res.setup_s.push_back(now_s() - t0);
  };

  // Each request factors a fresh copy of its rank's block, in storage kept
  // across requests, and drops the previous Q before making a new one, so
  // the peak holds one generation of blocks however many requests run.
  std::vector<Matrix> work(kRanks, Matrix(kRowsPerRank, kCols)), q(kRanks);
  Matrix r;
  std::uint64_t r_print = 0;
  struct RankTimes {
    double t0 = 0.0, factor = 0.0, form_q = 0.0;
  };
  std::array<RankTimes, kRanks> times{};
  std::vector<double> factor_ms, form_q_ms, overhead_ms, skew, traced_s,
      bare_s;
  // Two at least: the smoke size, and a traced run needs one bare and one
  // traced request.
  const int min_requests = cfg.smoke || spans.on() ? 2 : 1;
  const Window window{now_s(), cfg.seconds, min_requests};
  for (int k = 0; window.more(k) && !(cfg.smoke && k >= min_requests);
       ++k) {
    // Alternate bare and traced requests in a traced run, so the span
    // overhead is measured on the same payload in the same process.
    const bool traced = spans.on() && k % 2 == 0;
    ++res.attempted;
    try {
      set_up();
      for (int rank = 0; rank < kRanks; ++rank) {
        copy(a.block(rank * kRowsPerRank, 0, kRowsPerRank, kCols),
             work[rank].view());
        q[rank] = Matrix();
      }
      const double t0 = now_s();
      const msg::RunStats stats = runtime->run([&](msg::Comm& comm) {
        const auto me = static_cast<std::size_t>(comm.rank());
        if (traced) times[me].t0 = now_s();
        core::TsqrFactors f =
            core::tsqr_factor(comm, work[me].view(), options);
        if (traced) times[me].factor = now_s();
        q[me] = core::tsqr_form_explicit_q(comm, f);
        if (traced) times[me].form_q = now_s();
        if (me == 0) r = std::move(f.r);
      });
      const double t1 = now_s();
      res.request_s.push_back(t1 - t0);
      (traced ? traced_s : bare_s).push_back(t1 - t0);
      if (traced) {
        const int run_span = spans.add("msg.run", t0, t1, k, -1, 0);
        double max_lambda = 0.0, sum_lambda = 0.0, max_factor = 0.0,
               max_form_q = 0.0;
        for (int rank = 0; rank < kRanks; ++rank) {
          const RankTimes& t = times[static_cast<std::size_t>(rank)];
          const int lambda =
              spans.add("rank.lambda", t.t0, t.form_q, k, run_span, rank + 1);
          spans.add("core.tsqr_factor", t.t0, t.factor, k, lambda, rank + 1);
          spans.add("core.form_q", t.factor, t.form_q, k, lambda, rank + 1);
          max_lambda = std::max(max_lambda, t.form_q - t.t0);
          sum_lambda += t.form_q - t.t0;
          max_factor = std::max(max_factor, t.factor - t.t0);
          max_form_q = std::max(max_form_q, t.form_q - t.factor);
        }
        factor_ms.push_back(1e3 * max_factor);
        form_q_ms.push_back(1e3 * max_form_q);
        overhead_ms.push_back(1e3 * ((t1 - t0) - max_lambda));
        skew.push_back((max_lambda - sum_lambda / kRanks) / max_lambda);
      }
      if (k == 0) {
        r_print = fingerprint(r);
        res.layers["msg.messages"] = static_cast<double>(stats.messages);
        res.layers["msg.bytes"] = static_cast<double>(stats.bytes);
        res.reference.put("messages", static_cast<double>(stats.messages));
        res.reference.put("bytes", static_cast<double>(stats.bytes));
        res.reference.put("vtime_s", stats.max_vtime);
      } else if (fingerprint(r) != r_print) {
        res.fail("request " + std::to_string(k) +
                 ": R differs bitwise from request 0");
      }
    } catch (const std::exception& e) {
      res.fail("request " + std::to_string(k) + " threw: " + e.what());
    }
  }

  // Numerics of the last factorization (outside every timed region).
  Matrix q_full(kRowsPerRank * kRanks, kCols);
  for (int rank = 0; rank < kRanks; ++rank) {
    if (q[rank].rows() != kRowsPerRank) continue;
    copy(q[rank].view(), q_full.block(rank * kRowsPerRank, 0, kRowsPerRank,
                                      kCols));
  }
  const double resid = r.rows() == kCols
                           ? factorization_residual(a.view(), q_full.view(),
                                                    r.view())
                           : 1.0;
  const double ortho = orthogonality_error(q_full.view());
  if (!(resid <= 1e-12) || !(ortho <= 1e-12)) {
    res.fail("numerics: residual " + std::to_string(resid) +
             ", orthogonality " + std::to_string(ortho) + " (limit 1e-12)");
  }

  if (!spans.on()) return;
  res.layers["core.tsqr_factor_ms_p50"] = median(factor_ms);
  res.layers["core.form_q_ms_p50"] = median(form_q_ms);
  res.layers["msg.run_overhead_ms"] = median(overhead_ms);
  res.layers["msg.rank_skew_frac"] = median(skew);
  res.layers["trace.overhead_frac"] = median(traced_s) / median(bare_s);

  // Kernel rates, single-threaded: geqrf on one rank's leaf block, the
  // 64 x 64 combine, and geqrf on the whole matrix (the serial baseline).
  const double m = static_cast<double>(kRowsPerRank);
  const double n = static_cast<double>(kCols);
  const double leaf_flops = 2.0 * m * n * n - 2.0 / 3.0 * n * n * n;
  std::vector<double> tau;
  const Matrix leaf = Matrix::copy_of(a.block(0, 0, kRowsPerRank, kCols));
  const double geqrf_s = kernel_seconds(5, 1, [&](int reps) {
    Matrix w = Matrix::copy_of(leaf.view());
    const double t0 = now_s();
    for (int i = 0; i < reps; ++i) geqrf(w.view(), tau);
    return now_s() - t0;
  });
  Matrix r1 = Matrix::copy_of(a.block(0, 0, kCols, kCols));
  Matrix r2 = Matrix::copy_of(a.block(kCols, 0, kCols, kCols));
  zero_below_diagonal(r1.view());
  zero_below_diagonal(r2.view());
  const double tpqrt_s = kernel_seconds(9, 50, [&](int reps) {
    std::vector<Matrix> t1(static_cast<std::size_t>(reps), r1),
        t2(static_cast<std::size_t>(reps), r2);
    const double t0 = now_s();
    for (int i = 0; i < reps; ++i) {
      tpqrt_tt(t1[static_cast<std::size_t>(i)].view(),
               t2[static_cast<std::size_t>(i)].view(), tau);
    }
    return now_s() - t0;
  });
  const double serial_s = kernel_seconds(3, 1, [&](int reps) {
    Matrix w = Matrix::copy_of(a.view());
    const double t0 = now_s();
    for (int i = 0; i < reps; ++i) geqrf(w.view(), tau);
    return now_s() - t0;
  });
  res.layers["linalg.geqrf_gflops"] = leaf_flops / geqrf_s / 1e9;
  res.layers["linalg.tpqrt_gflops"] = 2.0 / 3.0 * n * n * n / tpqrt_s / 1e9;
  res.layers["linalg.serial_geqrf_ms"] = 1e3 * serial_s;
  // Computed, not measured: one read and one write of the leaf block.
  res.layers["linalg.flops_per_byte"] = leaf_flops / (2.0 * 8.0 * m * n);
}

// ------------------------------------------------------------------ main

bool is_service(const std::string& w) {
  return w == "backlog-easy" || w == "churn-fair" || w == "wan-contended";
}

Config parse(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw Error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      cfg.workload = value();
    } else if (arg == "--seed") {
      cfg.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      cfg.seconds = std::stod(value());
    } else if (arg == "--trace") {
      cfg.trace = value() == "1";
    } else if (arg == "--smoke") {
      cfg.smoke = true;
    } else if (arg == "--out") {
      cfg.out_dir = value();
    } else {
      throw Error("unknown argument " + arg);
    }
  }
  if (!is_service(cfg.workload) && cfg.workload != "paper-figures" &&
      cfg.workload != "tsqr-factor") {
    throw Error("unknown --workload '" + cfg.workload + "'");
  }
  if (!(cfg.seconds > 0.0)) throw Error("--seconds must be positive");
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Config cfg = parse(argc, argv);
    Result res;
    SpanLog spans(cfg.trace);
    for (const char* name : kLayerMetrics) res.layers[name] = 0.0;
    if (is_service(cfg.workload)) {
      const ServiceSpec spec = service_spec(cfg.workload, cfg.smoke);
      if (cfg.trace) {
        bench_service_traced(cfg, spec, res, spans);
      } else {
        bench_service_bare(cfg, spec, res);
      }
    } else if (cfg.workload == "paper-figures") {
      bench_figures(cfg, res, spans);
    } else {
      bench_factor(cfg, res, spans);
    }

    JsonObject metrics;
    if (cfg.trace) {
      for (const char* name : kLayerMetrics) metrics.put(name, res.layers[name]);
      spans.write_chrome(cfg.out_dir + "/bench_trace." + cfg.workload +
                         ".json");
    } else {
      metrics.put("setup_s", median(res.setup_s));
      metrics.put("request_s", median(res.request_s));
      metrics.put("peak_rss_mb", peak_rss_mb());
    }
    JsonObject out;
    out.raw("workload", json_string(cfg.workload));
    out.put("seed", static_cast<double>(cfg.seed));
    out.put("attempted", static_cast<double>(res.attempted));
    out.put("failed", static_cast<double>(res.failed));
    out.put("setups", static_cast<double>(res.setup_s.size()));
    out.put("requests", static_cast<double>(res.request_s.size()));
    out.put("errors", res.errors);
    out.raw("metrics", metrics.str());
    out.raw("reference", res.reference.str());
    std::cout << out.str() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_suite: error: " << e.what() << '\n';
    return 2;
  }
}
