#include "sched/explore.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "sched/snapshot.hpp"

namespace qrgrid::sched {

int PrescribedOracle::choose(Kind kind, double t_s, int k) {
  const std::size_t index = log_.size();
  int pick = 0;
  if (index < prescription_.size()) {
    pick = prescription_[index];
    QRGRID_CHECK_MSG(pick >= 0 && pick < k,
                     "prescription[" << index << "] = " << pick
                         << " out of range for a " << k << "-way tie");
  }
  log_.push_back(Decision{kind, t_s, k, pick});
  return pick;
}

namespace {

/// One branch of the enumeration tree waiting to be run: resume from
/// `snapshot` (empty = a fresh start), follow `prescription` relative to
/// the resume point, canonical after that. `abs_prefix` is the choice
/// sequence already baked into the snapshot, kept so violations can
/// report an absolute from-the-start reproduction recipe.
struct Branch {
  std::string snapshot;
  std::vector<int> abs_prefix;
  std::vector<int> prescription;
};

/// Report-level conservation: exactly one outcome per submitted job,
/// and the tallied fates agree with the report's counters. These hold
/// by construction under the canonical order; the explorer asserts them
/// under EVERY order.
void check_conservation(const ServiceReport& report,
                        const std::vector<Job>& jobs,
                        std::vector<std::string>& violations) {
  std::ostringstream out;
  if (report.outcomes.size() != jobs.size()) {
    out.str("");
    out << "conservation: " << report.outcomes.size() << " outcomes for "
        << jobs.size() << " submitted jobs";
    violations.push_back(out.str());
  }
  std::map<int, int> seen;
  long long completed = 0, walltime = 0, outage = 0;
  for (const JobOutcome& o : report.outcomes) {
    ++seen[o.job.id];
    switch (o.fate) {
      case JobFate::kCompleted: ++completed; break;
      case JobFate::kWalltimeKilled: ++walltime; break;
      case JobFate::kOutageFailed: ++outage; break;
    }
    if (o.wasted_node_s < 0.0 || o.service_s < 0.0) {
      out.str("");
      out << "conservation: job " << o.job.id << " has negative "
          << "accounting (wasted " << o.wasted_node_s << ", service "
          << o.service_s << ")";
      violations.push_back(out.str());
    }
  }
  for (const auto& [id, count] : seen) {
    if (count != 1) {
      out.str("");
      out << "conservation: job " << id << " has " << count << " outcomes";
      violations.push_back(out.str());
    }
  }
  if (completed != report.completed_jobs ||
      walltime + outage != report.failed_jobs) {
    out.str("");
    out << "conservation: outcome fates (" << completed << " completed, "
        << walltime << " walltime, " << outage
        << " outage) disagree with report counters ("
        << report.completed_jobs << " completed, " << report.failed_jobs
        << " failed)";
    violations.push_back(out.str());
  }
  if (report.wasted_node_seconds < 0.0 ||
      report.useful_node_seconds < 0.0) {
    out.str("");
    out << "conservation: negative node-second totals (useful "
        << report.useful_node_seconds << ", wasted "
        << report.wasted_node_seconds << ")";
    violations.push_back(out.str());
  }
}

}  // namespace

ExploreResult explore_interleavings(const ServiceFactory& factory,
                                    const std::vector<Job>& jobs,
                                    const ExploreLimits& limits) {
  ExploreResult result;
  std::vector<Branch> stack;
  stack.push_back(Branch{});  // the canonical leaf seeds the tree

  while (!stack.empty()) {
    if (result.leaves >= limits.max_leaves) {
      result.truncated = true;
      break;
    }
    // LIFO order: depth-first, so the pre-decision snapshots held on the
    // stack stay close to the active lineage.
    Branch branch = std::move(stack.back());
    stack.pop_back();

    ServiceTracer tracer;
    MetricsRegistry metrics;
    std::unique_ptr<GridJobService> service = factory(&tracer, &metrics);
    PrescribedOracle oracle(branch.prescription);
    service->set_tie_oracle(&oracle);

    const auto reproduction = [&]() {
      std::vector<int> abs = branch.abs_prefix;
      for (const PrescribedOracle::Decision& d : oracle.log()) {
        abs.push_back(d.chosen);
      }
      return abs;
    };

    try {
      if (branch.snapshot.empty()) {
        service->start(jobs);
      } else {
        service->restore(branch.snapshot);
      }
      while (service->active()) {
        const std::size_t before = oracle.log().size();
        // The rollback token: state just before this step's decisions.
        std::string snap = service->snapshot();
        service->step();
        const std::vector<PrescribedOracle::Decision>& log = oracle.log();
        // Branch only on decisions past the prescribed prefix — the
        // prescribed ones were enumerated by ancestors; deviating on
        // them again would visit interleavings twice.
        for (std::size_t i =
                 std::max(before, branch.prescription.size());
             i < log.size(); ++i) {
          if (log[i].k <= 1) continue;
          ++result.decision_points;
          result.max_fanout = std::max(result.max_fanout, log[i].k);
          for (int alt = 1; alt < log[i].k; ++alt) {
            Branch child;
            child.snapshot = snap;
            child.abs_prefix = branch.abs_prefix;
            for (std::size_t j = 0; j < before; ++j) {
              child.abs_prefix.push_back(log[j].chosen);
            }
            for (std::size_t j = before; j < i; ++j) {
              child.prescription.push_back(log[j].chosen);
            }
            child.prescription.push_back(alt);
            stack.push_back(std::move(child));
          }
        }
      }
      const ServiceReport report = service->finish();
      ++result.leaves;

      std::vector<std::string> found = validate_trace(tracer.events());
      check_conservation(report, jobs, found);
      if (!found.empty()) {
        const std::vector<int> repro = reproduction();
        for (std::string& what : found) {
          result.violations.push_back(
              ExploreViolation{std::move(what), repro});
        }
      }
      if (result.leaves == 1 && branch.snapshot.empty() &&
          branch.prescription.empty()) {
        // The canonical leaf: pin its artifacts for byte-comparison
        // against an oracle-free plain run.
        result.canonical_report = report;
        SnapshotWriter w;
        w(tracer);
        result.canonical_trace_bytes = w.bytes();
      }
    } catch (const Error& e) {
      // A mid-leaf contract violation (an engine QRGRID_CHECK firing
      // under a non-canonical order) is a finding, not a crash: record
      // it with its reproduction recipe and keep enumerating.
      ++result.leaves;
      result.violations.push_back(ExploreViolation{
          std::string("exception: ") + e.what(), reproduction()});
    }
  }
  return result;
}

std::vector<double> harvest_attempt_instants(const ServiceFactory& factory,
                                             const std::vector<Job>& jobs) {
  ServiceTracer tracer;
  MetricsRegistry metrics;
  std::unique_ptr<GridJobService> service = factory(&tracer, &metrics);
  service->run(jobs);
  std::vector<double> instants;
  for (const ServiceTraceEvent& ev : tracer.events()) {
    switch (ev.kind) {
      case TraceKind::kDispatch:
      case TraceKind::kBackfillStart:
      case TraceKind::kCompletion:
      case TraceKind::kWalltimeKill:
        instants.push_back(ev.t_s);
        break;
      default:
        break;
    }
  }
  std::sort(instants.begin(), instants.end());
  instants.erase(std::unique(instants.begin(), instants.end()),
                 instants.end());
  return instants;
}

}  // namespace qrgrid::sched
