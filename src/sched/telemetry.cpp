#include "sched/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.hpp"
#include "simgrid/trace.hpp"

namespace qrgrid::sched {

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream oss;
  oss.precision(17);
  oss << v;
  return oss.str();
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// The event-precedence invariant orders four kinds at one instant:
/// finishes (0) before recoveries (1) before failures (2) before
/// arrivals (3). Everything else interleaves freely (-1).
int precedence_class(TraceKind kind) {
  switch (kind) {
    case TraceKind::kCompletion:
    case TraceKind::kWalltimeKill:
      return 0;
    case TraceKind::kOutageUp:
      return 1;
    case TraceKind::kOutageDown:
      return 2;
    case TraceKind::kArrival:
      return 3;
    default:
      return -1;
  }
}

}  // namespace

std::string trace_kind_name(TraceKind kind) {
  switch (kind) {
    case TraceKind::kRunConfig:
      return "run-config";
    case TraceKind::kArrival:
      return "arrival";
    case TraceKind::kDispatch:
      return "dispatch";
    case TraceKind::kBackfillStart:
      return "backfill-start";
    case TraceKind::kReservationClaim:
      return "reservation-claim";
    case TraceKind::kReservationWithdraw:
      return "reservation-withdraw";
    case TraceKind::kOutageDown:
      return "outage-down";
    case TraceKind::kOutageUp:
      return "outage-up";
    case TraceKind::kOutageKill:
      return "outage-kill";
    case TraceKind::kWalltimeKill:
      return "walltime-kill";
    case TraceKind::kRequeue:
      return "requeue";
    case TraceKind::kCompletion:
      return "completion";
    case TraceKind::kWanFlowOpen:
      return "wan-flow-open";
    case TraceKind::kWanFlowRetire:
      return "wan-flow-retire";
    case TraceKind::kWanRebalance:
      return "wan-rebalance";
    case TraceKind::kProfileCompute:
      return "profile-compute";
    case TraceKind::kExecute:
      return "execute";
    case TraceKind::kWaitBlame:
      return "wait-blame";
  }
  return "unknown";
}

std::string blame_category_name(BlameCategory category) {
  switch (category) {
    case BlameCategory::kResourceBusy:
      return "resource-busy";
    case BlameCategory::kHeldBehindReservation:
      return "held-behind-reservation";
    case BlameCategory::kPriorityDisplaced:
      return "priority-displaced";
    case BlameCategory::kWanContendedPlacement:
      return "wan-contended-placement";
    case BlameCategory::kOutageBlocked:
      return "outage-blocked";
    case BlameCategory::kBackfillDepthTruncated:
      return "backfill-depth-truncated";
    case BlameCategory::kWalltimeEstimateBlocked:
      return "walltime-estimate-blocked";
    case BlameCategory::kRequeuedRerun:
      return "requeued-rerun";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// MetricsRegistry

const std::vector<double>& MetricsRegistry::default_bounds() {
  static const std::vector<double> kBounds = {
      0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0,
      3000.0};
  return kBounds;
}

void MetricsRegistry::observe(std::string_view name, double value) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    observe(name, value, default_bounds());
    return;
  }
  HistogramSnapshot& h = it->second;
  std::size_t bucket = 0;
  while (bucket < h.bounds.size() && value > h.bounds[bucket]) ++bucket;
  ++h.counts[bucket];
  h.sum += value;
  ++h.count;
}

void MetricsRegistry::observe(std::string_view name, double value,
                              const std::vector<double>& bounds) {
  QRGRID_CHECK(!bounds.empty());
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    HistogramSnapshot h;
    h.bounds = bounds;
    h.counts.assign(bounds.size() + 1, 0);
    it = histograms_.emplace(std::string(name), std::move(h)).first;
  } else {
    QRGRID_CHECK(it->second.bounds == bounds);
  }
  HistogramSnapshot& h = it->second;
  std::size_t bucket = 0;
  while (bucket < h.bounds.size() && value > h.bounds[bucket]) ++bucket;
  ++h.counts[bucket];
  h.sum += value;
  ++h.count;
}

void MetricsRegistry::sample(std::string_view name, double t_s,
                             double value) {
  auto& points = entry(series_, name);
  if (!points.empty()) {
    if (points.back().first == t_s) {
      points.back().second = value;  // same instant: latest wins
      return;
    }
    if (points.back().second == value) return;  // step curve: no change
  }
  points.emplace_back(t_s, value);
}

long long MetricsRegistry::counter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge(std::string_view name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

const HistogramSnapshot* MetricsRegistry::histogram(
    std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

const std::vector<std::pair<double, double>>* MetricsRegistry::series(
    std::string_view name) const {
  auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  series_.clear();
}

void MetricsRegistry::write_json(std::ostream& out) const {
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": " << value;
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges_) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": " << json_num(value);
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": {\"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      out << (i ? ", " : "") << json_num(h.bounds[i]);
    }
    out << "], \"counts\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      out << (i ? ", " : "") << h.counts[i];
    }
    out << "], \"sum\": " << json_num(h.sum) << ", \"count\": " << h.count
        << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"series\": {";
  first = true;
  for (const auto& [name, points] : series_) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": [";
    for (std::size_t i = 0; i < points.size(); ++i) {
      out << (i ? ", " : "") << "[" << json_num(points[i].first) << ", "
          << json_num(points[i].second) << "]";
    }
    out << "]";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
}

// ---------------------------------------------------------------------------
// Span reconstruction and exporters

std::vector<AttemptSpan> attempt_spans(
    const std::vector<ServiceTraceEvent>& events) {
  std::vector<AttemptSpan> spans;
  std::map<int, AttemptSpan> open;
  for (const auto& ev : events) {
    switch (ev.kind) {
      case TraceKind::kDispatch:
      case TraceKind::kBackfillStart: {
        AttemptSpan span;
        span.job = ev.job;
        span.start_s = ev.t_s;
        span.backfilled = ev.kind == TraceKind::kBackfillStart;
        span.clusters = ev.clusters;
        span.nodes = ev.nodes;
        open[ev.job] = std::move(span);
        break;
      }
      case TraceKind::kCompletion:
      case TraceKind::kOutageKill:
      case TraceKind::kWalltimeKill: {
        auto it = open.find(ev.job);
        if (it == open.end()) break;
        it->second.end_s = ev.t_s;
        it->second.end_kind = ev.kind;
        spans.push_back(std::move(it->second));
        open.erase(it);
        break;
      }
      default:
        break;
    }
  }
  return spans;
}

void write_chrome_trace(const std::vector<ServiceTraceEvent>& events,
                        std::ostream& out) {
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  auto emit = [&](const std::string& line) {
    out << (first ? "" : ",\n") << line;
    first = false;
  };
  auto us = [](double t_s) { return json_num(t_s * 1e6); };

  emit("{\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", "
       "\"args\": {\"name\": \"jobs\"}}");
  emit("{\"ph\": \"M\", \"pid\": 2, \"name\": \"process_name\", "
       "\"args\": {\"name\": \"clusters\"}}");
  emit("{\"ph\": \"M\", \"pid\": 3, \"name\": \"process_name\", "
       "\"args\": {\"name\": \"wan\"}}");

  // Thread names: one row per job, one per occupied cluster.
  std::vector<int> job_ids;
  std::vector<int> cluster_ids;
  for (const auto& ev : events) {
    if (ev.kind == TraceKind::kArrival) job_ids.push_back(ev.job);
    if (ev.kind == TraceKind::kDispatch ||
        ev.kind == TraceKind::kBackfillStart) {
      for (int c : ev.clusters) cluster_ids.push_back(c);
    }
  }
  std::sort(cluster_ids.begin(), cluster_ids.end());
  cluster_ids.erase(std::unique(cluster_ids.begin(), cluster_ids.end()),
                    cluster_ids.end());
  for (int job : job_ids) {
    emit("{\"ph\": \"M\", \"pid\": 1, \"tid\": " + std::to_string(job) +
         ", \"name\": \"thread_name\", \"args\": {\"name\": \"job " +
         std::to_string(job) + "\"}}");
  }
  for (int c : cluster_ids) {
    emit("{\"ph\": \"M\", \"pid\": 2, \"tid\": " + std::to_string(c) +
         ", \"name\": \"thread_name\", \"args\": {\"name\": \"site " +
         std::to_string(c) + "\"}}");
  }

  // Lifecycle spans: wait (arrival/requeue -> dispatch) and one span per
  // attempt, plus per-site occupancy, counters, and kill instants.
  std::map<int, double> wait_since;
  std::map<int, double> flow_open_s;
  std::map<int, double> flow_bytes;
  long long pending = 0;
  long long running = 0;
  auto counter = [&](const char* name, double t_s, long long v) {
    emit(std::string("{\"ph\": \"C\", \"pid\": 1, \"name\": \"") + name +
         "\", \"ts\": " + us(t_s) + ", \"args\": {\"jobs\": " +
         std::to_string(v) + "}}");
  };
  std::map<int, AttemptSpan> open;
  for (const auto& ev : events) {
    switch (ev.kind) {
      case TraceKind::kArrival:
        wait_since[ev.job] = ev.t_s;
        counter("pending_jobs", ev.t_s, ++pending);
        break;
      case TraceKind::kRequeue:
        wait_since[ev.job] = ev.t_s;
        counter("pending_jobs", ev.t_s, ++pending);
        break;
      case TraceKind::kDispatch:
      case TraceKind::kBackfillStart: {
        auto since = wait_since.find(ev.job);
        if (since != wait_since.end() && ev.t_s > since->second) {
          emit("{\"ph\": \"X\", \"pid\": 1, \"tid\": " +
               std::to_string(ev.job) + ", \"name\": \"wait\", \"cat\": "
               "\"wait\", \"ts\": " + us(since->second) +
               ", \"dur\": " + us(ev.t_s - since->second) + "}");
        }
        wait_since.erase(ev.job);
        AttemptSpan span;
        span.job = ev.job;
        span.start_s = ev.t_s;
        span.backfilled = ev.kind == TraceKind::kBackfillStart;
        span.clusters = ev.clusters;
        open[ev.job] = std::move(span);
        counter("pending_jobs", ev.t_s, --pending);
        counter("running_jobs", ev.t_s, ++running);
        break;
      }
      case TraceKind::kCompletion:
      case TraceKind::kOutageKill:
      case TraceKind::kWalltimeKill: {
        auto it = open.find(ev.job);
        if (it == open.end()) break;
        const AttemptSpan& span = it->second;
        std::string sites;
        for (std::size_t i = 0; i < span.clusters.size(); ++i) {
          sites += (i ? "," : "") + std::to_string(span.clusters[i]);
        }
        const std::string name =
            span.backfilled ? "run (backfill)" : "run";
        const std::string end_name = trace_kind_name(ev.kind);
        emit("{\"ph\": \"X\", \"pid\": 1, \"tid\": " +
             std::to_string(ev.job) + ", \"name\": \"" + name +
             "\", \"cat\": \"run\", \"ts\": " + us(span.start_s) +
             ", \"dur\": " + us(ev.t_s - span.start_s) +
             ", \"args\": {\"end\": \"" + end_name + "\", \"sites\": \"" +
             sites + "\"}}");
        for (int c : span.clusters) {
          emit("{\"ph\": \"X\", \"pid\": 2, \"tid\": " + std::to_string(c) +
               ", \"name\": \"job " + std::to_string(ev.job) +
               "\", \"cat\": \"occupancy\", \"ts\": " + us(span.start_s) +
               ", \"dur\": " + us(ev.t_s - span.start_s) + "}");
        }
        if (ev.kind != TraceKind::kCompletion) {
          emit("{\"ph\": \"i\", \"s\": \"t\", \"pid\": 1, \"tid\": " +
               std::to_string(ev.job) + ", \"name\": \"" + end_name +
               "\", \"ts\": " + us(ev.t_s) + "}");
        }
        open.erase(it);
        counter("running_jobs", ev.t_s, --running);
        break;
      }
      case TraceKind::kWanFlowOpen:
        flow_open_s[ev.flow] = ev.t_s;
        flow_bytes[ev.flow] = ev.value;
        break;
      case TraceKind::kWanFlowRetire: {
        auto it = flow_open_s.find(ev.flow);
        if (it == flow_open_s.end()) break;
        emit("{\"ph\": \"X\", \"pid\": 3, \"tid\": " +
             std::to_string(ev.flow) + ", \"name\": \"flow\", \"cat\": "
             "\"wan\", \"ts\": " + us(it->second) + ", \"dur\": " +
             us(ev.t_s - it->second) + ", \"args\": {\"admitted_bytes\": " +
             json_num(flow_bytes[ev.flow]) + ", \"moved_bytes\": " +
             json_num(ev.value) + "}}");
        flow_open_s.erase(it);
        break;
      }
      default:
        break;
    }
  }
  out << "\n]}\n";
}

std::string render_cluster_gantt(const std::vector<ServiceTraceEvent>& events,
                                 const simgrid::GridTopology& topology,
                                 int max_clusters, int width) {
  QRGRID_CHECK(max_clusters >= 1);
  const std::vector<AttemptSpan> spans = attempt_spans(events);
  if (spans.empty()) return "";
  std::map<int, double> busy;
  double horizon = 0.0;
  for (const auto& span : spans) {
    horizon = std::max(horizon, span.end_s);
    for (int c : span.clusters) busy[c] += span.end_s - span.start_s;
  }
  if (horizon <= 0.0) return "";
  // Busiest sites first; ties prefer the lower id for stable output.
  std::vector<std::pair<double, int>> ranked;
  for (const auto& [c, seconds] : busy) ranked.emplace_back(-seconds, c);
  std::sort(ranked.begin(), ranked.end());
  if (static_cast<int>(ranked.size()) > max_clusters) {
    ranked.resize(static_cast<std::size_t>(max_clusters));
  }
  std::map<int, int> row_of;
  std::vector<std::string> labels;
  for (const auto& [neg_busy, c] : ranked) {
    row_of[c] = static_cast<int>(labels.size());
    std::string name = c >= 0 && c < topology.num_clusters()
                           ? topology.cluster(c).name
                           : "site" + std::to_string(c);
    labels.push_back(name + " (c" + std::to_string(c) + ")");
  }
  simgrid::TraceLog log;
  for (const auto& span : spans) {
    const auto kind = span.end_kind == TraceKind::kCompletion
                          ? simgrid::ActivityKind::kCompute
                          : simgrid::ActivityKind::kTransfer;
    for (int c : span.clusters) {
      auto it = row_of.find(c);
      if (it != row_of.end()) {
        log.record(it->second, span.start_s, span.end_s, kind);
      }
    }
  }
  return simgrid::render_timeline(
      log, labels, horizon, width,
      "C completed-attempt occupancy, R killed-attempt, . idle");
}

// ---------------------------------------------------------------------------
// TraceValidator

void TraceValidator::fail(const ServiceTraceEvent& event,
                          const std::string& what) {
  std::ostringstream oss;
  oss.precision(17);
  oss << "t=" << event.t_s << " " << trace_kind_name(event.kind);
  if (event.job >= 0) oss << " job=" << event.job;
  if (event.flow >= 0) oss << " flow=" << event.flow;
  oss << ": " << what;
  violations_.push_back(oss.str());
}

void TraceValidator::consume(const ServiceTraceEvent& event) {
  ++events_seen_;
  if (event.t_s < last_t_s_) {
    fail(event, "timestamp went backwards (previous " +
                    std::to_string(last_t_s_) + ")");
  }
  if (event.t_s > last_t_s_) {
    last_t_s_ = event.t_s;
    last_class_ = -1;
  }
  const int cls = precedence_class(event.kind);
  if (cls >= 0) {
    if (cls < last_class_) {
      fail(event,
           "event precedence violated: class " + std::to_string(cls) +
               " after class " + std::to_string(last_class_) +
               " at the same instant");
    }
    last_class_ = std::max(last_class_, cls);
  }

  switch (event.kind) {
    case TraceKind::kRunConfig: {
      saw_config_ = true;
      // Range first: casting an out-of-range double to int is undefined.
      if (!(event.value >= 0.0 && event.value < 2 * kTraceConfigWaitBlame)) {
        fail(event, "invalid run-config flags " + std::to_string(event.value));
        break;
      }
      const int bits = static_cast<int>(event.value);
      enforce_no_delay_ = (bits & kTraceConfigWanContention) == 0 &&
                          (bits & kTraceConfigHasOutages) == 0;
      check_blame_ = (bits & kTraceConfigWaitBlame) != 0;
      break;
    }
    case TraceKind::kArrival:
      if (jobs_.count(event.job) != 0) {
        fail(event, "job arrived twice");
      } else {
        jobs_[event.job] = JobState::kPending;
        arrival_s_[event.job] = event.t_s;
      }
      break;
    case TraceKind::kDispatch:
    case TraceKind::kBackfillStart: {
      auto it = jobs_.find(event.job);
      if (it == jobs_.end() || it->second != JobState::kPending) {
        fail(event, "dispatched while not pending");
        break;
      }
      it->second = JobState::kRunning;
      if (check_blame_) {
        // The partition invariant: everything between submission and this
        // start has been blamed on exactly one category per interval, so
        // the accumulated blame equals the elapsed wait. Tolerance covers
        // float accumulation over many telescoping intervals only.
        const double wait = event.t_s - arrival_s_[event.job];
        const double blamed = blame_sum_s_[event.job];
        const double tol = 1e-6 + 1e-9 * std::abs(wait);
        if (std::abs(blamed - wait) > tol) {
          fail(event, "wait-blame does not partition the wait: blamed " +
                          std::to_string(blamed) + " s of " +
                          std::to_string(wait) + " s waited");
        }
      }
      auto promise = promises_.find(event.job);
      if (promise != promises_.end()) {
        if (enforce_no_delay_ && event.t_s > promise->second + 1e-9) {
          fail(event, "no-delay promise broken: started at " +
                          std::to_string(event.t_s) + " but promised " +
                          std::to_string(promise->second));
        }
        promises_.erase(promise);
      }
      break;
    }
    case TraceKind::kReservationClaim: {
      auto it = jobs_.find(event.job);
      if (it == jobs_.end() || it->second != JobState::kPending) {
        fail(event, "reservation claimed for a job that is not pending");
        break;
      }
      auto [promise, inserted] = promises_.emplace(event.job, event.value);
      if (!inserted) {
        promise->second = std::min(promise->second, event.value);
      }
      break;
    }
    case TraceKind::kReservationWithdraw:
      // A holder can be displaced before any finite shadow time was ever
      // computed for it, so a withdrawal with no recorded claim is fine.
      promises_.erase(event.job);
      break;
    case TraceKind::kOutageKill: {
      auto it = jobs_.find(event.job);
      if (it == jobs_.end() || it->second != JobState::kRunning) {
        fail(event, "outage kill of a job that is not running");
        break;
      }
      it->second = JobState::kKilledLimbo;
      break;
    }
    case TraceKind::kWalltimeKill: {
      auto it = jobs_.find(event.job);
      if (it == jobs_.end() || it->second != JobState::kRunning) {
        fail(event, "walltime kill of a job that is not running");
        break;
      }
      it->second = JobState::kTerminal;
      break;
    }
    case TraceKind::kRequeue: {
      auto it = jobs_.find(event.job);
      if (it == jobs_.end() || it->second != JobState::kKilledLimbo) {
        fail(event, "requeue without a preceding outage kill");
        break;
      }
      it->second = JobState::kPending;
      break;
    }
    case TraceKind::kCompletion: {
      auto it = jobs_.find(event.job);
      if (it == jobs_.end() || it->second != JobState::kRunning) {
        fail(event, "completion of a job that is not running");
        break;
      }
      it->second = JobState::kTerminal;
      break;
    }
    case TraceKind::kWaitBlame: {
      if (event.value < 0.0) {
        fail(event, "negative blame interval");
        break;
      }
      if (!(event.value2 >= 0.0 && event.value2 < kBlameCategoryCount) ||
          std::floor(event.value2) != event.value2) {
        fail(event, "invalid blame category " + std::to_string(event.value2));
        break;
      }
      const int category = static_cast<int>(event.value2);
      auto it = jobs_.find(event.job);
      // Waiting blame attaches to pending jobs; the requeued-rerun share
      // is stamped in the killed-limbo between an outage kill and its
      // requeue (the interval the job spent re-running, not queued).
      const bool rerun =
          category == static_cast<int>(BlameCategory::kRequeuedRerun);
      if (it == jobs_.end() ||
          (rerun ? it->second != JobState::kKilledLimbo
                 : it->second != JobState::kPending)) {
        fail(event, rerun ? "rerun blame outside an outage-kill limbo"
                          : "wait blame for a job that is not pending");
        break;
      }
      blame_sum_s_[event.job] += event.value;
      break;
    }
    case TraceKind::kWanFlowOpen: {
      auto [flow, inserted] =
          flows_.emplace(event.flow, FlowState{event.value, false});
      if (!inserted) fail(event, "flow id opened twice");
      break;
    }
    case TraceKind::kWanFlowRetire: {
      auto it = flows_.find(event.flow);
      if (it == flows_.end()) {
        fail(event, "retire of a flow that was never opened");
        break;
      }
      if (it->second.retired) {
        fail(event, "flow retired twice");
        break;
      }
      it->second.retired = true;
      const double admitted = it->second.admitted_bytes;
      const double moved = event.value;
      const bool drained = event.value2 != 0.0;
      // Half-byte rounding slack per pool (the drain test in the WAN
      // model), scaled by a relative epsilon for large transfers.
      const double tol = 8.0 + 1e-6 * admitted;
      if (moved > admitted + tol) {
        fail(event, "byte conservation violated: moved " +
                        std::to_string(moved) + " of admitted " +
                        std::to_string(admitted));
      }
      if (drained && moved < admitted - tol) {
        fail(event, "drained flow moved only " + std::to_string(moved) +
                        " of admitted " + std::to_string(admitted));
      }
      break;
    }
    default:
      break;
  }
}

void TraceValidator::finish() {
  for (const auto& [job, state] : jobs_) {
    if (state == JobState::kRunning || state == JobState::kPending) {
      ServiceTraceEvent ev;
      ev.t_s = last_t_s_;
      ev.kind = TraceKind::kRunConfig;
      ev.job = job;
      fail(ev, state == JobState::kRunning
                   ? "job still running at end of stream"
                   : "job still pending at end of stream");
    }
  }
  for (const auto& [flow, state] : flows_) {
    if (!state.retired) {
      ServiceTraceEvent ev;
      ev.t_s = last_t_s_;
      ev.kind = TraceKind::kRunConfig;
      ev.flow = flow;
      fail(ev, "flow never retired");
    }
  }
}

std::vector<std::string> validate_trace(
    const std::vector<ServiceTraceEvent>& events) {
  TraceValidator validator;
  for (const auto& ev : events) validator.consume(ev);
  validator.finish();
  return validator.violations();
}

}  // namespace qrgrid::sched
