// Snapshot byte format: the pin and the hostile-input contract.
//
// The round-trip matrix (job_service_explore_test) proves that a restored
// service resumes faithfully, but a format that drifted symmetrically —
// writer and reader changed together — would pass it while silently
// orphaning every checkpoint written before the change. The format pin
// closes that hole: four mid-run snapshots whose length and FNV-1a-64
// hash are committed constants. A layout change must show up here and
// bump kSnapshotVersion.
//
// `serve --resume` reads a user-supplied file, so restore() must also
// survive arbitrary bytes: the mutation sweep feeds it every truncation
// prefix and every single-byte 0xFF overwrite of a real checkpoint, and
// each must end in success or qrgrid::Error — never a crash, a huge
// allocation, or (under the sanitizer CI job) a UB report.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "model/roofline.hpp"
#include "sched/critpath.hpp"
#include "sched/outage.hpp"
#include "sched/service.hpp"
#include "sched/telemetry.hpp"
#include "sched/workload.hpp"
#include "simgrid/topology.hpp"

namespace qrgrid::sched {
namespace {

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<Job> workload(int jobs, int users, std::uint64_t seed) {
  WorkloadSpec spec;
  spec.jobs = jobs;
  spec.mean_interarrival_s = 0.05;
  spec.seed = seed;
  spec.users = users;
  spec.priority_levels = 3;
  spec.procs_choices = {2, 4, 8};
  spec.m_choices = {1 << 16, 1 << 17, 1 << 18};
  spec.n_choices = {32, 64};
  spec.tree_choices = {core::TreeKind::kFlat,
                       core::TreeKind::kGridHierarchical};
  return generate_workload(spec);
}

/// One pinned configuration: how to build the service, the workload, and
/// after how many steps the snapshot is taken.
struct PinCase {
  std::string name;
  simgrid::GridTopology topo;
  ServiceOptions options;
  std::vector<Job> jobs;
  int steps = 0;
};

/// EASY under outages and over-asked walltimes, with wait-blame and both
/// telemetry sinks bound (the tracer/metrics sections of the format).
PinCase easy_case(ServiceTracer* tracer, MetricsRegistry* metrics) {
  PinCase c{"easy", simgrid::GridTopology::grid5000(2, 2, 2), {}, {}, 30};
  c.options.policy = Policy::kEasyBackfill;
  c.options.outages = OutageTrace(OutageSpec{4.0, 0.5, 17}, 2);
  c.options.wait_blame = true;
  c.options.tracer = tracer;
  c.options.metrics = metrics;
  c.jobs = workload(12, 1, 5);
  const GridJobService probe(c.topo, model::paper_calibration(), c.options);
  assign_walltimes(c.jobs, 1.5, 9, [&probe](const Job& job) {
    return 4.0 * probe.predicted_seconds(job);
  });
  return c;
}

/// Weighted fair-share over four users with restart credit under faults
/// (the policy-private deficit map and banked-panel progress).
PinCase fair_case() {
  PinCase c{"fair", simgrid::GridTopology::grid5000(2, 2, 2), {}, {}, 24};
  c.options.policy = Policy::kFairShare;
  c.options.outages = OutageTrace(OutageSpec{1.0, 0.3, 29}, 2);
  c.options.restart_credit = true;
  c.options.checkpoint_panels = 4;
  c.jobs = workload(14, 4, 11);
  for (Job& job : c.jobs) job.weight = 1.0 + job.user % 2;
  return c;
}

/// Priority EASY over a 3-site max-min WAN (flows, the activation heap,
/// the rebalance counters).
PinCase prio_case() {
  PinCase c{"prio-easy", simgrid::GridTopology::grid5000(3, 2, 2), {}, {}, 12};
  c.options.policy = Policy::kPriorityEasy;
  c.options.wan_contention = true;
  c.options.wan_fairness = WanFairness::kMaxMin;
  c.options.wan_link_Bps = 2e6;
  c.jobs = workload(12, 2, 13);
  return c;
}

/// EASY over a 4-site equal-split WAN with one 2-proc node per site, so
/// every 4- and 8-proc job spans sites; pinned while two multi-cluster
/// flows are live (per-pool rates and active flags, backbone pools).
PinCase equal_case() {
  PinCase c{"equal-wan", simgrid::GridTopology::grid5000(4, 1, 2), {}, {}, 12};
  c.options.policy = Policy::kEasyBackfill;
  c.options.wan_contention = true;
  c.options.wan_link_Bps = 2e6;
  c.jobs = workload(12, 1, 7);
  return c;
}

/// Steps `c` to its pin point and returns the snapshot bytes.
std::string pinned_snapshot(const PinCase& c) {
  GridJobService service(c.topo, model::paper_calibration(), c.options);
  service.start(c.jobs);
  for (int i = 0; i < c.steps && service.active(); ++i) service.step();
  EXPECT_TRUE(service.active()) << c.name << ": pin point must be mid-run";
  return service.snapshot();
}

// --------------------------------------------------------- format pin

TEST(SnapshotFormat, PinnedLengthAndHash) {
  ServiceTracer tracer;
  MetricsRegistry metrics;
  struct Pin {
    PinCase c;
    std::size_t length;
    std::uint64_t hash;
  };
  const std::vector<Pin> pins = {
      // Content, not layout, moved this pin (16955 -> 16863 bytes): the
      // blame pass no longer computes replays the scheduler never
      // priced, so the checkpoint no longer carries their exemplars.
      {easy_case(&tracer, &metrics), 16863, 0x971c665c4526e47eull},
      {fair_case(), 4010, 0xe27713035fdd02aeull},
      {prio_case(), 3450, 0x5a805201aabd7096ull},
      {equal_case(), 3773, 0xa62278446a856533ull},
  };
  for (const Pin& pin : pins) {
    tracer.clear();
    metrics.clear();
    const std::string bytes = pinned_snapshot(pin.c);
    EXPECT_EQ(bytes.size(), pin.length) << pin.c.name;
    EXPECT_EQ(fnv1a64(bytes), pin.hash)
        << pin.c.name << ": 0x" << std::hex << fnv1a64(bytes);
  }
}

TEST(SnapshotFormat, EqualSplitPinHoldsLiveWanFlows) {
  // The equal-split pin guards the per-pool WAN state only if flows are
  // in flight at its pin step: the trunk load sampled there counts the
  // multi-cluster flows with undrained demand.
  MetricsRegistry metrics;
  PinCase c = equal_case();
  c.options.metrics = &metrics;
  pinned_snapshot(c);
  const auto* trunk = metrics.series("wan.backbone_load");
  ASSERT_NE(trunk, nullptr);
  ASSERT_FALSE(trunk->empty());
  EXPECT_GE(trunk->back().second, 2.0);
}

// ---------------------------------------------------- hostile bytes

/// Runs a (restored, possibly partial) event stream through the
/// validator, the Chrome-trace and Gantt writers, and the critical-path
/// analyzer. Only their crash-freedom is asserted here.
void export_all(const std::vector<ServiceTraceEvent>& events,
                const simgrid::GridTopology& topo) {
  validate_trace(events);
  std::ostringstream out;
  write_chrome_trace(events, out);
  render_cluster_gantt(events, topo, 8);
  write_critpath_json(analyze_critical_path(events), out);
}

/// Feeds corrupted checkpoints to restore(). Anything but success or
/// qrgrid::Error escapes and fails the test; a success consumes the
/// target (it now has a run in flight), so a fresh one replaces it —
/// after the restored event stream went through every exporter, which
/// index per-cluster rows by the restored tags.
class MutationHarness {
 public:
  explicit MutationHarness(const PinCase& c) : c_(c) { target_ = fresh(); }

  void attempt(const std::string& bytes) {
    try {
      target_->restore(bytes);
      ++restored_;
      if (c_.options.tracer != nullptr) {
        export_all(c_.options.tracer->events(), c_.topo);
      }
      target_ = fresh();
    } catch (const Error&) {
      ++refused_;
    }
  }

  std::unique_ptr<GridJobService> fresh() const {
    return std::make_unique<GridJobService>(c_.topo,
                                            model::paper_calibration(),
                                            c_.options);
  }
  int restored() const { return restored_; }
  int refused() const { return refused_; }

 private:
  const PinCase& c_;
  std::unique_ptr<GridJobService> target_;
  int restored_ = 0;
  int refused_ = 0;
};

TEST(SnapshotHostileBytes, MutatedCheckpointsEndInSuccessOrError) {
  // Real checkpoints with every section populated: EASY with tracer,
  // metrics, blame, and outages; fair-share deficits with restart
  // credit; a max-min WAN with live flows, bound to telemetry
  // too so its sections sit mid-stream rather than at the tail; and an
  // equal-split WAN with live multi-cluster flows.
  ServiceTracer tracer;
  MetricsRegistry metrics;
  PinCase prio = prio_case();
  prio.options.tracer = &tracer;
  prio.options.metrics = &metrics;
  for (const PinCase& c :
       {easy_case(&tracer, &metrics), fair_case(), prio, equal_case()}) {
    tracer.clear();
    metrics.clear();
    const std::string checkpoint = pinned_snapshot(c);
    MutationHarness harness(c);
    for (std::size_t n = 0; n < checkpoint.size(); ++n) {
      harness.attempt(checkpoint.substr(0, n));
    }
    EXPECT_EQ(harness.restored(), 0)
        << c.name << ": a truncated checkpoint was accepted";
    for (std::size_t i = 0; i < checkpoint.size(); ++i) {
      std::string mutated = checkpoint;
      mutated[i] = '\xff';
      harness.attempt(mutated);
    }
    // Seeded multi-byte corruption: four random bytes per trial.
    Rng rng(2026);
    for (int trial = 0; trial < 400; ++trial) {
      std::string mutated = checkpoint;
      for (int k = 0; k < 4; ++k) {
        mutated[rng.uniform_index(mutated.size())] =
            static_cast<char>(rng.uniform_index(256));
      }
      harness.attempt(mutated);
    }
    EXPECT_GT(harness.refused(), 0) << c.name;
    EXPECT_GT(harness.restored(), 0) << c.name;
    // The sweep left nothing behind: the intact checkpoint still
    // round-trips byte for byte.
    const std::unique_ptr<GridJobService> clean = harness.fresh();
    clean->restore(checkpoint);
    EXPECT_EQ(clean->snapshot(), checkpoint) << c.name;
  }
}

TEST(SnapshotHostileBytes, TraceEventsOffTheGridAreRefused) {
  // The tracer section holds events restore() did not write itself; an
  // unknown kind or a cluster tag off the grid would reach the exporters'
  // per-cluster indexing. Plant each in a caller-owned tracer mid-run:
  // the checkpoint must be refused.
  ServiceTracer tracer;
  MetricsRegistry metrics;
  const PinCase c = easy_case(&tracer, &metrics);
  const int nclusters = c.topo.num_clusters();
  std::vector<ServiceTraceEvent> hostile(4);
  hostile[0].kind = static_cast<TraceKind>(99);
  hostile[1].kind = TraceKind::kOutageDown;
  hostile[1].cluster = nclusters;
  hostile[2].kind = TraceKind::kDispatch;
  hostile[2].clusters = {-1};
  hostile[2].nodes = {1};
  hostile[3].kind = TraceKind::kDispatch;
  hostile[3].clusters = {0, 1};
  hostile[3].nodes = {1};
  for (const ServiceTraceEvent& ev : hostile) {
    tracer.clear();
    metrics.clear();
    GridJobService source(c.topo, model::paper_calibration(), c.options);
    source.start(c.jobs);
    for (int i = 0; i < 5 && source.active(); ++i) source.step();
    const std::string clean = source.snapshot();
    tracer.record(ev);
    const std::string planted = source.snapshot();
    GridJobService target(c.topo, model::paper_calibration(), c.options);
    EXPECT_THROW(target.restore(planted), Error);
    target.restore(clean);  // the refusal left no run in flight
  }
}

TEST(SnapshotHostileBytes, InconsistentFreeNodeStateIsRefused) {
  // placeable[c] is free_nodes[c] on an up cluster and 0 on a down one,
  // and placement scales it by procs per node: a checkpoint breaking
  // that invariant must be refused, never scheduled from. Right after
  // start() the three per-cluster vectors are easy to find: free_nodes
  // and placeable hold every cluster's node count, down_depth zeros.
  const simgrid::GridTopology topo = simgrid::GridTopology::grid5000(2, 3, 2);
  ServiceOptions options;
  options.policy = Policy::kEasyBackfill;
  GridJobService source(topo, model::paper_calibration(), options);
  source.start(workload(6, 1, 3));
  const std::string clean = source.snapshot();

  std::string run;  // three u64-counted int vectors, as the writer lays out
  const auto put = [&run](auto value) {
    char bytes[sizeof value];
    std::memcpy(bytes, &value, sizeof value);
    run.append(bytes, sizeof value);
  };
  for (const int value : {3, 0, 3}) {  // free_nodes, down_depth, placeable
    put(std::uint64_t{2});
    put(value);
    put(value);
  }
  const std::size_t at = clean.find(run);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(clean.rfind(run), at) << "ambiguous free-node run";
  const std::size_t placeable0 = at + run.size() - 2 * sizeof(int);

  for (const int value : {std::numeric_limits<int>::max(), -1, 3 - 1}) {
    std::string patched = clean;
    std::memcpy(&patched[placeable0], &value, sizeof value);
    GridJobService target(topo, model::paper_calibration(), options);
    bool refused = false;
    try {
      target.restore(patched);
    } catch (const Error& e) {
      refused = true;
      EXPECT_NE(std::string(e.what()).find("free-node state"),
                std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(refused) << "placeable[0] = " << value << " was restored";
    if (!refused) continue;
    target.restore(clean);  // the refusal left no run in flight
    EXPECT_EQ(target.snapshot(), clean);
  }
}

TEST(SnapshotHostileBytes, RefusedRestoreLeavesNoRunInFlight) {
  // A refused restore must not half-install an engine: the same service
  // accepts the intact checkpoint afterwards.
  const PinCase c = fair_case();
  const std::string checkpoint = pinned_snapshot(c);
  GridJobService service(c.topo, model::paper_calibration(), c.options);
  EXPECT_THROW(service.restore(checkpoint.substr(0, checkpoint.size() - 1)),
               Error);
  service.restore(checkpoint);
  EXPECT_EQ(service.snapshot(), checkpoint);
}

}  // namespace
}  // namespace qrgrid::sched
