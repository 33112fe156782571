#include "sched/critpath.hpp"

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>

namespace qrgrid::sched {

namespace {

/// One attempt reconstructed from its open/close event pair.
struct Attempt {
  int job = -1;
  double start_s = 0.0;
  double end_s = 0.0;
  /// When the job last became pending before this start (its arrival,
  /// or the requeue that put it back) — the left edge of the wait this
  /// attempt ended.
  double pending_since_s = 0.0;
  std::vector<int> clusters;
  bool closed = false;
  int close_index = -1;  ///< stream position of the closing event
};

struct BlameInterval {
  double t0_s = 0.0;
  double t1_s = 0.0;
  int category = 0;
};

struct Parsed {
  std::vector<Attempt> attempts;
  /// end instant -> attempts closing (and releasing nodes) exactly then.
  std::map<double, std::vector<int>> ends_at;
  /// job -> requeue instant -> the attempt whose kill caused it.
  std::map<int, std::map<double, int>> requeue_of;
  /// recovery instant -> (cluster, down-since) for clusters whose outage
  /// depth returned to zero exactly then (the placeable boundary).
  std::map<double, std::vector<std::pair<int, double>>> recovered_at;
  /// job -> closed kWaitBlame intervals, in stream order.
  std::map<int, std::vector<BlameInterval>> blame;
};

Parsed parse(const std::vector<ServiceTraceEvent>& events) {
  Parsed p;
  std::map<int, int> open;           ///< job -> open attempt index
  std::map<int, int> last_attempt;   ///< job -> latest attempt index
  std::map<int, double> pending_since;
  std::map<int, int> down_depth;
  std::map<int, double> down_since;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ServiceTraceEvent& ev = events[i];
    switch (ev.kind) {
      case TraceKind::kArrival:
        pending_since[ev.job] = ev.t_s;
        break;
      case TraceKind::kDispatch:
      case TraceKind::kBackfillStart: {
        Attempt a;
        a.job = ev.job;
        a.start_s = ev.t_s;
        a.clusters = ev.clusters;
        const auto ps = pending_since.find(ev.job);
        a.pending_since_s = ps != pending_since.end() ? ps->second : ev.t_s;
        const int idx = static_cast<int>(p.attempts.size());
        p.attempts.push_back(std::move(a));
        open[ev.job] = idx;
        last_attempt[ev.job] = idx;
        break;
      }
      case TraceKind::kCompletion:
      case TraceKind::kWalltimeKill:
      case TraceKind::kOutageKill: {
        const auto it = open.find(ev.job);
        if (it == open.end()) break;  // truncated stream: skip
        Attempt& a = p.attempts[static_cast<std::size_t>(it->second)];
        a.end_s = ev.t_s;
        a.close_index = static_cast<int>(i);
        a.closed = true;
        p.ends_at[ev.t_s].push_back(it->second);
        open.erase(it);
        break;
      }
      case TraceKind::kRequeue: {
        pending_since[ev.job] = ev.t_s;
        const auto la = last_attempt.find(ev.job);
        if (la != last_attempt.end()) {
          p.requeue_of[ev.job][ev.t_s] = la->second;
        }
        break;
      }
      case TraceKind::kOutageDown:
        if (down_depth[ev.cluster]++ == 0) down_since[ev.cluster] = ev.t_s;
        break;
      case TraceKind::kOutageUp: {
        int& depth = down_depth[ev.cluster];
        if (depth > 0 && --depth == 0) {
          p.recovered_at[ev.t_s].emplace_back(ev.cluster,
                                              down_since[ev.cluster]);
        }
        break;
      }
      case TraceKind::kWaitBlame: {
        if (ev.value2 >= 0.0 && ev.value2 < kBlameCategoryCount) {
          p.blame[ev.job].push_back(
              {ev.t_s - ev.value, ev.t_s, static_cast<int>(ev.value2)});
        }
        break;
      }
      default:
        break;
    }
  }
  return p;
}

bool overlaps(const std::vector<int>& a, const std::vector<int>& b) {
  for (int x : a) {
    for (int y : b) {
      if (x == y) return true;  // placements hold a handful of clusters
    }
  }
  return false;
}

}  // namespace

std::string crit_segment_kind_name(CritSegment::Kind kind) {
  switch (kind) {
    case CritSegment::Kind::kRun: return "run";
    case CritSegment::Kind::kOutage: return "outage";
    case CritSegment::Kind::kWait: return "wait";
    case CritSegment::Kind::kPreArrival: return "pre-arrival";
  }
  return "unknown";
}

bool CriticalPathReport::tiles(double run_makespan_s) const {
  if (makespan_s != run_makespan_s) return false;
  if (chain.empty()) return run_makespan_s == 0.0;
  bool adjacent =
      chain.front().t0_s == 0.0 && chain.back().t1_s == run_makespan_s;
  for (std::size_t i = 0; adjacent && i + 1 < chain.size(); ++i) {
    adjacent = chain[i].t1_s == chain[i + 1].t0_s;
  }
  return adjacent;
}

CriticalPathReport analyze_critical_path(
    const std::vector<ServiceTraceEvent>& events) {
  CriticalPathReport report;
  Parsed p = parse(events);

  // The makespan-defining attempt: latest end, ties to the latest close
  // in stream order (the service's own precedence at one instant).
  int tail = -1;
  for (std::size_t i = 0; i < p.attempts.size(); ++i) {
    const Attempt& a = p.attempts[i];
    if (!a.closed) continue;
    if (tail == -1 ||
        a.end_s > p.attempts[static_cast<std::size_t>(tail)].end_s ||
        (a.end_s == p.attempts[static_cast<std::size_t>(tail)].end_s &&
         a.close_index >
             p.attempts[static_cast<std::size_t>(tail)].close_index)) {
      tail = static_cast<int>(i);
    }
  }
  if (tail == -1) return report;
  report.makespan_s = p.attempts[static_cast<std::size_t>(tail)].end_s;

  // The latest-closing attempt releasing nodes at exactly `s` — the
  // enabling edge of a start at s. With require_overlap, only releases
  // that freed a cluster the dependent placement uses qualify (a node
  // dependency); without, any release qualifies (the release changed
  // the queue/shadow geometry instead).
  auto release_at = [&](double s, const std::vector<int>& clusters,
                        bool require_overlap) -> int {
    const auto it = p.ends_at.find(s);
    if (it == p.ends_at.end()) return -1;
    int best = -1;
    for (int idx : it->second) {
      const Attempt& b = p.attempts[static_cast<std::size_t>(idx)];
      if (require_overlap && !overlaps(b.clusters, clusters)) continue;
      if (best == -1 ||
          b.close_index >
              p.attempts[static_cast<std::size_t>(best)].close_index) {
        best = idx;
      }
    }
    return best;
  };
  auto own_requeue_at = [&](int job, double s) -> int {
    const auto rq = p.requeue_of.find(job);
    if (rq == p.requeue_of.end()) return -1;
    const auto it = rq->second.find(s);
    return it == rq->second.end() ? -1 : it->second;
  };
  auto recovery_at =
      [&](double s, const std::vector<int>& clusters)
      -> const std::pair<int, double>* {
    const auto it = p.recovered_at.find(s);
    if (it == p.recovered_at.end()) return nullptr;
    for (const auto& rec : it->second) {
      for (int c : clusters) {
        if (c == rec.first) return &rec;
      }
    }
    return nullptr;
  };

  std::vector<CritSegment> chain;  // built backward, reversed at the end
  std::vector<int> chain_attempts;
  auto push = [&](const CritSegment& seg) {
    if (seg.t1_s > seg.t0_s) chain.push_back(seg);
  };
  // Attribute a wait tile to the dominant BlameCategory of the job's
  // kWaitBlame intervals overlapping it (ties to the smaller category
  // ordinal), feeding the report's per-category totals as a side effect.
  auto attribute_wait = [&](int job, double t0, double t1,
                            CritSegment& seg) {
    std::array<double, kBlameCategoryCount> local{};
    const auto it = p.blame.find(job);
    if (it != p.blame.end()) {
      for (const BlameInterval& bi : it->second) {
        const double lo = std::max(t0, bi.t0_s);
        const double hi = std::min(t1, bi.t1_s);
        if (hi > lo) local[static_cast<std::size_t>(bi.category)] += hi - lo;
      }
    }
    int best = -1;
    double best_s = 0.0;
    for (int k = 0; k < kBlameCategoryCount; ++k) {
      const double s = local[static_cast<std::size_t>(k)];
      report.wait_blame_s[static_cast<std::size_t>(k)] += s;
      if (s > best_s) {
        best_s = s;
        best = k;
      }
    }
    seg.blame = best;
  };
  // Explain the pending boundary `w` of `job` (always an arrival or a
  // requeue instant): a requeue chains to the killed attempt that ends
  // at exactly w; an arrival closes the walk with a pre-arrival tile.
  auto boundary = [&](int job, double w) -> int {
    const int prev = own_requeue_at(job, w);
    if (prev != -1) return prev;
    CritSegment pre;
    pre.kind = CritSegment::Kind::kPreArrival;
    pre.job = job;
    pre.t0_s = 0.0;
    pre.t1_s = w;
    push(pre);
    return -1;
  };

  // Backward walk from the makespan attempt. Each step explains one
  // start instant by the event that happened at exactly that double —
  // sound because the service stamped both with the same value. The
  // frontier (the walked attempt's end) strictly decreases, so the walk
  // terminates and the emitted tiles cover [0, makespan] exactly.
  int current = tail;
  while (current != -1) {
    const Attempt& a = p.attempts[static_cast<std::size_t>(current)];
    chain_attempts.push_back(current);
    CritSegment run;
    run.kind = CritSegment::Kind::kRun;
    run.job = a.job;
    run.t0_s = a.start_s;
    run.t1_s = a.end_s;
    push(run);
    const double s = a.start_s;
    const double w = a.pending_since_s;
    // 1. A release freed nodes this placement uses.
    int next = release_at(s, a.clusters, /*require_overlap=*/true);
    if (next == -1) next = own_requeue_at(a.job, s);  // 2. own retry
    if (next != -1) {
      current = next;
      continue;
    }
    // 3. A cluster this placement uses recovered exactly now: the job
    // sat behind the outage since max(down, pending), and behind the
    // queue before the failure if it was already waiting then.
    if (const auto* rec = recovery_at(s, a.clusters)) {
      CritSegment outage;
      outage.kind = CritSegment::Kind::kOutage;
      outage.job = a.job;
      outage.cluster = rec->first;
      outage.t0_s = std::max(rec->second, w);
      outage.t1_s = s;
      push(outage);
      if (rec->second > w) {
        CritSegment wait;
        wait.kind = CritSegment::Kind::kWait;
        wait.job = a.job;
        wait.t0_s = w;
        wait.t1_s = rec->second;
        attribute_wait(a.job, w, rec->second, wait);
        push(wait);
      }
      current = boundary(a.job, w);
      continue;
    }
    // 4. A release with no cluster overlap still changed the decision
    // geometry (queue head, shadow bound, backfill depth window).
    next = release_at(s, a.clusters, /*require_overlap=*/false);
    if (next != -1) {
      current = next;
      continue;
    }
    // 5. Nothing released: the start rode an arrival, a requeue of
    // another job, or a WAN rebalance — queue wait start to finish.
    if (s > w) {
      CritSegment wait;
      wait.kind = CritSegment::Kind::kWait;
      wait.job = a.job;
      wait.t0_s = w;
      wait.t1_s = s;
      attribute_wait(a.job, w, s, wait);
      push(wait);
    }
    current = boundary(a.job, w);
  }
  std::reverse(chain.begin(), chain.end());
  for (const CritSegment& seg : chain) {
    const double dt = seg.t1_s - seg.t0_s;
    switch (seg.kind) {
      case CritSegment::Kind::kRun: report.run_s += dt; break;
      case CritSegment::Kind::kOutage: report.outage_s += dt; break;
      case CritSegment::Kind::kWait: report.wait_s += dt; break;
      case CritSegment::Kind::kPreArrival:
        report.pre_arrival_s += dt;
        break;
    }
    if (seg.kind == CritSegment::Kind::kRun) ++report.chain_attempts;
  }
  report.chain = std::move(chain);

  // Slack: rebuild the release-edge DAG over ALL closed attempts (the
  // same rules 1/2/4 the walker chains by), then propagate each
  // attempt's furthest downstream end backward. An attempt can slip by
  // makespan minus that reach before it delays the final completion;
  // attempts on the walked chain are pinned to zero.
  std::vector<int> order;
  std::vector<int> enabler(p.attempts.size(), -1);
  std::vector<double> crit_end(p.attempts.size(), 0.0);
  for (std::size_t i = 0; i < p.attempts.size(); ++i) {
    const Attempt& a = p.attempts[i];
    if (!a.closed) continue;
    order.push_back(static_cast<int>(i));
    crit_end[i] = a.end_s;
    int from = release_at(a.start_s, a.clusters, /*require_overlap=*/true);
    if (from == -1) from = own_requeue_at(a.job, a.start_s);
    if (from == -1) {
      from = release_at(a.start_s, a.clusters, /*require_overlap=*/false);
    }
    enabler[i] = from;
  }
  for (int idx : chain_attempts) {
    crit_end[static_cast<std::size_t>(idx)] = report.makespan_s;
  }
  // Descending start order: an attempt's dependents (start == its end >
  // its start) are finalized before it, so one pass suffices.
  std::sort(order.begin(), order.end(), [&](int x, int y) {
    const Attempt& a = p.attempts[static_cast<std::size_t>(x)];
    const Attempt& b = p.attempts[static_cast<std::size_t>(y)];
    return a.start_s != b.start_s ? a.start_s > b.start_s : x > y;
  });
  for (int idx : order) {
    const int from = enabler[static_cast<std::size_t>(idx)];
    if (from != -1) {
      crit_end[static_cast<std::size_t>(from)] =
          std::max(crit_end[static_cast<std::size_t>(from)],
                   crit_end[static_cast<std::size_t>(idx)]);
    }
  }
  for (int idx : order) {
    const Attempt& a = p.attempts[static_cast<std::size_t>(idx)];
    const double slack =
        std::max(0.0, report.makespan_s - crit_end[static_cast<std::size_t>(idx)]);
    const auto it = report.job_slack_s.find(a.job);
    if (it == report.job_slack_s.end()) {
      report.job_slack_s.emplace(a.job, slack);
    } else {
      it->second = std::min(it->second, slack);
    }
  }
  return report;
}

void write_critpath_json(const CriticalPathReport& report,
                         std::ostream& out) {
  out << "{\n";
  out << "  \"makespan_s\": " << json_num(report.makespan_s) << ",\n";
  out << "  \"path_length_s\": " << json_num(report.path_length_s())
      << ",\n";
  out << "  \"chain_attempts\": " << report.chain_attempts << ",\n";
  out << "  \"run_s\": " << json_num(report.run_s) << ",\n";
  out << "  \"outage_s\": " << json_num(report.outage_s) << ",\n";
  out << "  \"wait_s\": " << json_num(report.wait_s) << ",\n";
  out << "  \"pre_arrival_s\": " << json_num(report.pre_arrival_s)
      << ",\n";
  out << "  \"wait_blame_s\": {";
  for (int k = 0; k < kBlameCategoryCount; ++k) {
    out << (k ? ", " : "") << "\""
        << blame_category_name(static_cast<BlameCategory>(k))
        << "\": " << json_num(report.wait_blame_s[static_cast<std::size_t>(k)]);
  }
  out << "},\n  \"chain\": [";
  for (std::size_t i = 0; i < report.chain.size(); ++i) {
    const CritSegment& seg = report.chain[i];
    out << (i ? ",\n" : "\n") << "    {\"kind\": \""
        << crit_segment_kind_name(seg.kind) << "\", \"job\": " << seg.job
        << ", \"cluster\": " << seg.cluster
        << ", \"t0_s\": " << json_num(seg.t0_s)
        << ", \"t1_s\": " << json_num(seg.t1_s) << ", \"blame\": ";
    if (seg.blame >= 0 && seg.blame < kBlameCategoryCount) {
      out << "\"" << blame_category_name(static_cast<BlameCategory>(seg.blame))
          << "\"";
    } else {
      out << "null";
    }
    out << "}";
  }
  out << (report.chain.empty() ? "" : "\n  ") << "],\n";
  out << "  \"job_slack_s\": {";
  bool first = true;
  for (const auto& [job, slack] : report.job_slack_s) {
    out << (first ? "\n" : ",\n") << "    \"" << job
        << "\": " << json_num(slack);
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
}

}  // namespace qrgrid::sched
