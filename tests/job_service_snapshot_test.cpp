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

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "model/roofline.hpp"
#include "sched/critpath.hpp"
#include "sched/outage.hpp"
#include "sched/service.hpp"
#include "sched/snapshot.hpp"
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

/// Priority EASY over a 3-site max-min WAN, pinned while a two-pool
/// flow's uplink and downlink pools are active (max-min pool records,
/// whose rates restore derives) next to a zero-pool flow; the rebalance
/// counters.
PinCase prio_case() {
  PinCase c{"prio-easy", simgrid::GridTopology::grid5000(3, 2, 2), {}, {}, 7};
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
      // Version 9 writes a WAN flow as its id, one record per pool (the
      // pool, its moved and admitted bytes, its active flag) and its
      // drain instant: no cached rates, which restore derives with one
      // fill over the active pools. Version 8 wrote a placement as its
      // clusters and node counts only. Version 7 wrote live state only:
      // the WAN flows in id order (no slots, free-slot or live lists, no
      // activation calendar), the profile cache as its key set, and no
      // progress or blame row of a job that has an outcome. Restore
      // derives the rest, as version 6 derived each running attempt's
      // walltime bound, EASY estimate and start credit, the placeable
      // vector, and each WAN flow's undrained count, frac sensitivity and
      // load membership.
      {easy_case(&tracer, &metrics), 15331, 0xa2b3f1a5d004774cull},
      {fair_case(), 3546, 0xac4888f341b5da5eull},
      {prio_case(), 2429, 0x97bf6cca6e21995bull},
      {equal_case(), 3147, 0xd672464f383230aeull},
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

TEST(SnapshotFormat, ProfileKeysDoNotDependOnComputationOrder) {
  // The checkpoint carries the profile cache as its key set: two
  // backends holding the same profiles list the same keys, in key order,
  // whichever order they computed them in.
  const simgrid::GridTopology topo = simgrid::GridTopology::grid5000(2, 2, 2);
  const model::Roofline roofline = model::paper_calibration();
  const ServiceOptions options;
  std::vector<std::pair<Job, Placement>> calls;
  for (const Job& job : workload(4, 1, 5)) {
    for (const Placement& placement :
         {Placement{{0}, {1}}, Placement{{1}, {2}},
          Placement{{0, 1}, {1, 1}}}) {
      calls.emplace_back(job, placement);
    }
  }
  ExecutionBackend forward(topo, roofline, options);
  ExecutionBackend backward(topo, roofline, options);
  for (const auto& [job, placement] : calls) forward.profile(job, placement);
  for (auto it = calls.rbegin(); it != calls.rend(); ++it) {
    backward.profile(it->first, it->second);
  }
  const auto keys = forward.profile_keys();
  EXPECT_GE(keys.size(), 3u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_TRUE(keys == backward.profile_keys());
}

/// Pool counts of the WAN flows live at `c`'s pin step, read from a
/// traced twin of its run: a flow-open event carries the flow's admitted
/// pool count, and a flow-retire event ends it.
std::vector<int> live_flow_pools(PinCase c) {
  ServiceTracer tracer;
  c.options.tracer = &tracer;
  pinned_snapshot(c);
  std::map<int, int> live;
  for (const ServiceTraceEvent& ev : tracer.events()) {
    if (ev.kind == TraceKind::kWanFlowOpen) {
      live[ev.flow] = static_cast<int>(ev.value2);
    } else if (ev.kind == TraceKind::kWanFlowRetire) {
      live.erase(ev.flow);
    }
  }
  std::vector<int> pools;
  for (const auto& [flow, count] : live) pools.push_back(count);
  return pools;
}

TEST(SnapshotFormat, WanPinsHoldLivePoolRecords) {
  // The WAN pins guard the per-pool record layout only if flows with
  // pools are in flight at their pin steps: equal-wan holds two
  // multi-cluster equal-split flows, backbone pools included, with
  // undrained trunk demand (the trunk load sampled there counts them),
  // and prio-easy a max-min flow with an uplink and a downlink pool.
  const auto flows_with_pools = [](const std::vector<int>& pools) {
    return std::count_if(pools.begin(), pools.end(),
                         [](int count) { return count > 0; });
  };
  MetricsRegistry metrics;
  PinCase equal = equal_case();
  equal.options.metrics = &metrics;
  EXPECT_GE(flows_with_pools(live_flow_pools(equal)), 2);
  const auto* trunk = metrics.series("wan.backbone_load");
  ASSERT_NE(trunk, nullptr);
  ASSERT_FALSE(trunk->empty());
  EXPECT_GE(trunk->back().second, 2.0);
  EXPECT_GE(flows_with_pools(live_flow_pools(prio_case())), 1);
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
  // Each node is free or held by one running attempt, and placement
  // scales the free counts by procs per node: a checkpoint breaking that
  // invariant must be refused, never scheduled from. Right after start()
  // the two per-cluster vectors are easy to find: free_nodes holds every
  // cluster's node count, down_depth zeros.
  const simgrid::GridTopology topo = simgrid::GridTopology::grid5000(2, 3, 2);
  ServiceOptions options;
  options.policy = Policy::kEasyBackfill;
  GridJobService source(topo, model::paper_calibration(), options);
  source.start(workload(6, 1, 3));
  const std::string clean = source.snapshot();

  std::string run;  // two u64-counted int vectors, as the writer lays out
  const auto put = [&run](auto value) {
    char bytes[sizeof value];
    std::memcpy(bytes, &value, sizeof value);
    run.append(bytes, sizeof value);
  };
  for (const int value : {3, 0}) {  // free_nodes, down_depth
    put(std::uint64_t{2});
    put(value);
    put(value);
  }
  const std::size_t at = clean.find(run);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(clean.rfind(run), at) << "ambiguous free-node run";
  const std::size_t free0 = at + sizeof(std::uint64_t);

  for (const int value : {std::numeric_limits<int>::max(), -1, 3 - 1}) {
    std::string patched = clean;
    std::memcpy(&patched[free0], &value, sizeof value);
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
    EXPECT_TRUE(refused) << "free_nodes[0] = " << value << " was restored";
    if (!refused) continue;
    target.restore(clean);  // the refusal left no run in flight
    EXPECT_EQ(target.snapshot(), clean);
  }
}

TEST(SnapshotHostileBytes, NonFiniteRunningStartOrBadCreditIsRefused) {
  // A running attempt's walltime bound and EASY estimate derive from its
  // start_s, and the share of the factorization an attempt covers from
  // its job's banked credit: a NaN start, or credit outside [0, 1), must
  // be refused, never resumed. A traced twin of the run names the
  // attempts in flight at the pin step with their start and isolated
  // finish (the start event's value). The last occurrence of the
  // finish's bit pattern in the checkpoint sits in that attempt's record,
  // and its start_s is the next occurrence of the start's; the job's
  // progress entry follows the running list.
  const PinCase c = fair_case();
  const std::string clean = pinned_snapshot(c);
  ServiceTracer tracer;
  PinCase traced = c;
  traced.options.tracer = &tracer;
  pinned_snapshot(traced);
  std::map<int, std::pair<double, double>> in_flight;  // job -> start, finish
  std::map<int, int> attempts;
  std::set<int> killed;
  for (const ServiceTraceEvent& ev : tracer.events()) {
    if (ev.kind == TraceKind::kDispatch ||
        ev.kind == TraceKind::kBackfillStart) {
      in_flight[ev.job] = {ev.t_s, ev.value};
      ++attempts[ev.job];
    } else if (ev.kind == TraceKind::kCompletion ||
               ev.kind == TraceKind::kWalltimeKill ||
               ev.kind == TraceKind::kOutageKill) {
      in_flight.erase(ev.job);
      if (ev.kind != TraceKind::kCompletion) killed.insert(ev.job);
    }
  }
  const auto bits_of = [](auto value) {
    std::string bits(sizeof value, '\0');
    std::memcpy(bits.data(), &value, sizeof value);
    return bits;
  };
  ASSERT_FALSE(in_flight.empty());
  const auto& [job, span] = *in_flight.begin();
  const std::size_t finish_at = clean.rfind(bits_of(span.second));
  ASSERT_NE(finish_at, std::string::npos);
  const std::size_t start_at =
      clean.find(bits_of(span.first), finish_at + sizeof(double));
  ASSERT_NE(start_at, std::string::npos);
  // Never killed, the job has banked nothing and wasted nothing: its
  // entry reads (id, attempts, credit 0.0, waste 0.0).
  ASSERT_EQ(killed.count(job), 0u);
  const std::size_t entry_at =
      clean.find(bits_of(job) + bits_of(attempts[job]) + std::string(16, '\0'),
                 start_at);
  ASSERT_NE(entry_at, std::string::npos);
  const std::size_t credit_at = entry_at + 2 * sizeof(int);

  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::tuple<std::size_t, double, std::string>> patches = {
      {start_at, kNaN, "running job"},
      {credit_at, kNaN, "credit"},
      {credit_at, 1.0, "credit"},
      {credit_at, -0.25, "credit"}};
  for (const auto& [at, value, refusal] : patches) {
    std::string patched = clean;
    patched.replace(at, sizeof(double), bits_of(value));
    GridJobService target(c.topo, model::paper_calibration(), c.options);
    bool refused = false;
    try {
      target.restore(patched);
    } catch (const Error& e) {
      refused = true;
      EXPECT_NE(std::string(e.what()).find(refusal), std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(refused) << refusal << " = " << value << " was restored";
    if (!refused) continue;
    target.restore(clean);  // the refusal left no run in flight
    EXPECT_EQ(target.snapshot(), clean);
  }
}

TEST(SnapshotHostileBytes, ExhaustedOrNegativeCountersAreRefused) {
  // The start counter orders simultaneous events and each job counts its
  // attempts; both only grow, by one per start. Restore refuses a
  // negative counter and a start counter not above every running
  // attempt's, and a start refuses to pass INT_MAX instead of
  // overflowing. Both clusters are down when job 0 arrives at 0.25 s; it
  // starts at their recovery, 0.5 s, an outage kills it halfway through,
  // and with unlimited retries it starts again.
  const simgrid::GridTopology topo = simgrid::GridTopology::grid5000(2, 2, 2);
  const model::Roofline roofline = model::paper_calibration();
  Job job;
  job.id = 0;
  job.arrival_s = 0.25;
  job.m = 1 << 16;
  job.n = 32;
  job.procs = 2;
  ServiceOptions options;
  options.policy = Policy::kFcfs;
  options.max_retries = std::numeric_limits<int>::max();
  const double run_s =
      GridJobService(topo, roofline, options).predicted_seconds(job);
  options.outages = OutageTrace({Outage{0, 0.1, 0.5}, Outage{1, 0.1, 0.5},
                                 Outage{0, 0.5 + run_s / 2, 0.5 + run_s}});
  GridJobService source(topo, roofline, options);
  source.start({job});
  while (source.now_s() < 0.25) source.step();
  ASSERT_EQ(source.now_s(), 0.25);
  const std::string idle = source.snapshot();  // job 0 waits
  source.step();
  ASSERT_EQ(source.now_s(), 0.5);
  const std::string clean = source.snapshot();  // its first attempt runs
  const auto bits_of = [](auto value) {
    std::string bits(sizeof value, '\0');
    std::memcpy(bits.data(), &value, sizeof value);
    return bits;
  };
  // The engine's fields open with the arrival cursor, the clock and the
  // start counter; job 0's progress entry, later, reads (id 0, one
  // attempt, credit 0.0, waste 0.0).
  const auto seq_offset = [&bits_of](const std::string& bytes, double now,
                                     int starts) {
    const std::string head = bits_of(std::size_t{1}) + bits_of(now) +
                             bits_of(starts);
    const std::size_t at = bytes.find(head);
    EXPECT_NE(at, std::string::npos);
    EXPECT_EQ(bytes.rfind(head), at);
    return at + sizeof(std::size_t) + sizeof(double);
  };
  const std::size_t idle_seq_at = seq_offset(idle, 0.25, 0);
  const std::size_t seq_at = seq_offset(clean, 0.5, 1);
  const std::string entry = bits_of(0) + bits_of(1) + std::string(16, '\0');
  const std::size_t entry_at = clean.find(entry, seq_at);
  ASSERT_NE(entry_at, std::string::npos);
  ASSERT_EQ(clean.rfind(entry), entry_at);
  const std::size_t attempts_at = entry_at + sizeof(int);

  const auto patched = [&bits_of](const std::string& bytes, std::size_t at,
                                  int value) {
    std::string out = bytes;
    out.replace(at, sizeof value, bits_of(value));
    return out;
  };
  struct Refusal {
    const std::string* bytes;
    std::size_t at;
    int value;
    std::string what;
  };
  const std::vector<Refusal> refusals = {
      {&idle, idle_seq_at, -1, "start counter"},
      {&clean, seq_at, 0, "not above running job"},
      {&clean, attempts_at, -1, "attempt counter"}};
  for (const Refusal& r : refusals) {
    GridJobService target(topo, roofline, options);
    bool refused = false;
    try {
      target.restore(patched(*r.bytes, r.at, r.value));
    } catch (const Error& e) {
      refused = true;
      EXPECT_NE(std::string(e.what()).find(r.what), std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(refused) << r.what << " = " << r.value << " was restored";
    if (!refused) continue;
    target.restore(*r.bytes);  // the refusal left no run in flight
    EXPECT_EQ(target.snapshot(), *r.bytes);
  }
  // At INT_MAX either counter restores, and the restart is refused.
  const int kMax = std::numeric_limits<int>::max();
  const std::vector<std::pair<std::size_t, std::string>> exhausted = {
      {seq_at, "start counter exhausted"},
      {attempts_at, "exhausted its attempt counter"}};
  for (const auto& [at, refusal] : exhausted) {
    GridJobService target(topo, roofline, options);
    target.restore(patched(clean, at, kMax));
    try {
      while (target.active()) target.step();
      ADD_FAILURE() << "the run passed INT_MAX at offset " << at;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(refusal), std::string::npos)
          << e.what();
    }
  }
  // The clean checkpoint restarts job 0 after the outage.
  GridJobService clean_run(topo, roofline, options);
  clean_run.restore(clean);
  while (clean_run.active()) clean_run.step();
  const ServiceReport report = clean_run.finish();
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.outcomes[0].attempts, 2);
}

TEST(SnapshotHostileBytes, RunningAttemptWithoutProfileIsRefused) {
  // Restore re-resolves each running attempt's replay from the profile
  // keys the checkpoint carries: a checkpoint lacking one is refused
  // before anything is computed. A traced twin names an attempt in
  // flight at the pin step; its key's bytes sit in the key list, and
  // moving that key's m off the running job's leaves no key for it.
  const PinCase c = fair_case();
  const std::string clean = pinned_snapshot(c);
  ServiceTracer tracer;
  PinCase traced = c;
  traced.options.tracer = &tracer;
  pinned_snapshot(traced);
  std::map<int, Placement> in_flight;
  for (const ServiceTraceEvent& ev : tracer.events()) {
    if (ev.kind == TraceKind::kDispatch ||
        ev.kind == TraceKind::kBackfillStart) {
      in_flight[ev.job] = Placement{ev.clusters, ev.nodes};
    } else if (ev.kind == TraceKind::kCompletion ||
               ev.kind == TraceKind::kWalltimeKill ||
               ev.kind == TraceKind::kOutageKill) {
      in_flight.erase(ev.job);
    }
  }
  ASSERT_FALSE(in_flight.empty());
  const auto& [job_id, placement] = *in_flight.begin();
  const auto job =
      std::find_if(c.jobs.begin(), c.jobs.end(),
                   [id = job_id](const Job& j) { return j.id == id; });
  ASSERT_NE(job, c.jobs.end());
  SnapshotWriter key;
  key(ExecutionBackend::ProfileKey{job->m, job->n, job->tree, placement});
  const std::size_t at = clean.rfind(key.bytes());
  ASSERT_NE(at, std::string::npos);
  std::string patched = clean;
  const double other_m = job->m + 1.0;
  std::memcpy(&patched[at], &other_m, sizeof other_m);
  GridJobService target(c.topo, model::paper_calibration(), c.options);
  try {
    target.restore(patched);
    ADD_FAILURE() << "job " << job_id << " restored without its profile";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("no profile for running job"),
              std::string::npos)
        << e.what();
  }
  target.restore(clean);  // the refusal left no run in flight
  EXPECT_EQ(target.snapshot(), clean);
}

TEST(SnapshotHostileBytes, RepeatedMapKeyIsRefused) {
  // Maps travel as (key, value) lists with each key once; a repeated key
  // would silently drop an entry (a job's progress or blame, a user's
  // fair-share deficit, a metric).
  const std::unordered_map<int, double> map = {{1, 10.0}, {2, 20.0}};
  SnapshotWriter w;
  w(map);
  std::unordered_map<int, double> loaded;
  SnapshotReader clean(w.bytes());
  clean(loaded);
  EXPECT_EQ(loaded, map);
  // Sorted by key: the count, (1, 10.0), then (2, 20.0).
  std::string patched = w.bytes();
  const int one = 1;
  std::memcpy(&patched[sizeof(std::uint64_t) + sizeof(int) + sizeof(double)],
              &one, sizeof one);
  SnapshotReader r(patched);
  EXPECT_THROW(r(loaded), Error);
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
