// The backend's profile cache against a plain ordered-map oracle.
//
// ExecutionBackend keeps its replays in a hash map looked up through a
// borrowed view of the job's shape and placement, so a hit builds no key
// and copies no vector. The cache must still answer exactly what an
// ordered map keyed on the owning ProfileKey answers: the same hit or
// miss on every call (counted through a bound MetricsRegistry), the
// same reference for a key however many inserts and rehashes came after
// it, and the same key list in the same order for a checkpoint. Keys
// here crowd each other on purpose: one shape on every placement of a
// small grid, m one ulp apart, and n alone or the tree alone differing.
//
// This binary also replaces the global operator new with a counting one,
// so the hit path's "allocates nothing" is a checked number.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "model/roofline.hpp"
#include "sched/backend.hpp"
#include "sched/service.hpp"
#include "sched/telemetry.hpp"
#include "simgrid/topology.hpp"

// The replacements below pair malloc with free by design; GCC cannot see
// that a replaced operator new is the allocation function it pairs with.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {

/// Every global operator new in this binary, counted.
long long g_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace qrgrid::sched {
namespace {

using Key = ExecutionBackend::ProfileKey;

/// Every canonical placement of `topo`: each non-empty set of clusters
/// in ascending id, with every node count 1..capacity on each.
std::vector<Placement> all_placements(const simgrid::GridTopology& topo) {
  std::vector<Placement> out;
  const int k = topo.num_clusters();
  for (int mask = 1; mask < (1 << k); ++mask) {
    std::vector<Placement> partial = {Placement{}};
    for (int c = 0; c < k; ++c) {
      if ((mask & (1 << c)) == 0) continue;
      std::vector<Placement> grown;
      for (const Placement& p : partial) {
        for (int nodes = 1; nodes <= topo.cluster(c).nodes; ++nodes) {
          Placement q = p;
          q.clusters.push_back(c);
          q.nodes.push_back(nodes);
          grown.push_back(std::move(q));
        }
      }
      partial = std::move(grown);
    }
    out.insert(out.end(), partial.begin(), partial.end());
  }
  return out;
}

/// Shapes that differ from a neighbour in one field only: m by one ulp
/// (either way), n alone, or the tree alone.
std::vector<Job> near_shapes() {
  std::vector<Job> shapes;
  int id = 0;
  for (const double m : {4096.0, std::nextafter(4096.0, 1e9),
                         std::nextafter(4096.0, 0.0), 6000.0}) {
    for (const int n : {8, 9}) {
      for (const core::TreeKind tree :
           {core::TreeKind::kFlat, core::TreeKind::kGridHierarchical}) {
        Job job;
        job.id = id++;
        job.m = m;
        job.n = n;
        job.tree = tree;
        shapes.push_back(job);
      }
    }
  }
  return shapes;
}

TEST(ProfileCache, MatchesOrderedMapOracle) {
  const simgrid::GridTopology topo = simgrid::GridTopology::grid5000(3, 2, 2);
  const model::Roofline roofline = model::paper_calibration();
  MetricsRegistry metrics;
  ServiceOptions options;
  options.metrics = &metrics;
  ExecutionBackend backend(topo, roofline, options);

  const std::vector<Placement> placements = all_placements(topo);
  const std::vector<Job> shapes = near_shapes();
  ASSERT_EQ(placements.size(), 26u);
  // 26 placements x 16 shapes = 416 keys, each asked for twice, in a
  // seeded shuffle: misses and hits interleave, and the later inserts
  // grow the table through several rehashes.
  std::vector<std::pair<const Job*, const Placement*>> calls;
  for (const Job& job : shapes) {
    for (const Placement& p : placements) {
      calls.emplace_back(&job, &p);
      calls.emplace_back(&job, &p);
    }
  }
  Rng rng(2026);
  for (std::size_t i = calls.size() - 1; i > 0; --i) {
    std::swap(calls[i], calls[rng.uniform_index(i + 1)]);
  }

  std::map<Key, const ExecutionProfile*> oracle;
  long long hits = 0;
  long long misses = 0;
  for (const auto& [job, placement] : calls) {
    const Key key{job->m, job->n, job->tree, *placement};
    const auto known = oracle.find(key);
    const ExecutionProfile* found = backend.find_profile(*job, *placement);
    const ExecutionProfile& got = backend.profile(*job, *placement);
    if (known == oracle.end()) {
      ++misses;
      EXPECT_EQ(found, nullptr) << "a key the oracle lacks was found";
      oracle.emplace(key, &got);
    } else {
      ++hits;
      EXPECT_EQ(found, known->second);
      EXPECT_EQ(&got, known->second) << "a hit moved its profile";
    }
    ASSERT_EQ(metrics.counter("backend.profile_hits"), hits);
    ASSERT_EQ(metrics.counter("backend.profile_misses"), misses);
  }
  EXPECT_EQ(misses, 416);
  EXPECT_EQ(hits, 416);

  // Every reference handed out still names its key's profile after all
  // the later inserts, and find_profile counts nothing.
  for (const auto& [key, profile] : oracle) {
    Job job;
    job.m = key.m;
    job.n = key.n;
    job.tree = key.tree;
    EXPECT_EQ(backend.find_profile(job, key.placement), profile);
  }
  EXPECT_EQ(metrics.counter("backend.profile_hits"), hits);

  std::vector<Key> want;
  for (const auto& [key, profile] : oracle) want.push_back(key);
  EXPECT_TRUE(backend.profile_keys() == want)
      << "profile_keys() must list the keys in the ordered map's order";

  // A backend warmed from that list holds the same keys and hands out
  // profiles equal to the computing backend's.
  ExecutionBackend warmed(topo, roofline, options);
  warmed.warm(backend.profile_keys());
  EXPECT_TRUE(warmed.profile_keys() == want);
  for (const auto& [key, profile] : oracle) {
    Job job;
    job.m = key.m;
    job.n = key.n;
    job.tree = key.tree;
    const ExecutionProfile* same = warmed.find_profile(job, key.placement);
    ASSERT_NE(same, nullptr);
    EXPECT_EQ(same->seconds, profile->seconds);
    EXPECT_EQ(same->egress_bytes, profile->egress_bytes);
  }
}

TEST(ProfileCache, WarmRefusesNonFiniteRowCounts) {
  // warm() admits the shapes check_job admits: m = +inf passes m >= n,
  // so the key check names finiteness itself.
  const simgrid::GridTopology topo = simgrid::GridTopology::grid5000(3, 2, 2);
  const model::Roofline roofline = model::paper_calibration();
  const ServiceOptions options;
  ExecutionBackend backend(topo, roofline, options);
  const Key key{std::numeric_limits<double>::infinity(), 8,
                core::TreeKind::kFlat, Placement{{0}, {1}}};
  try {
    backend.warm({key});
    ADD_FAILURE() << "a profile key with m = inf was warmed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("profile key of shape inf x 8"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(backend.profile_keys().empty());
}

TEST(ProfileCache, HitsAllocateNothing) {
  const simgrid::GridTopology topo = simgrid::GridTopology::grid5000(3, 2, 2);
  const model::Roofline roofline = model::paper_calibration();
  const ServiceOptions options;  // no metrics, tracer or profiler bound
  ExecutionBackend backend(topo, roofline, options);
  const std::vector<Placement> placements = all_placements(topo);
  const std::vector<Job> shapes = near_shapes();
  for (const Job& job : shapes) {
    for (const Placement& p : placements) backend.profile(job, p);
  }

  double sum = 0.0;
  const long long before = g_allocations;
  for (int i = 0; i < 10000; ++i) {
    const Job& job = shapes[static_cast<std::size_t>(i) % shapes.size()];
    const Placement& p =
        placements[static_cast<std::size_t>(i / 7) % placements.size()];
    sum += backend.profile(job, p).seconds;
    sum += backend.find_profile(job, p)->seconds;
  }
  const long long allocated = g_allocations - before;
  EXPECT_EQ(allocated, 0) << "10,000 cache hits allocated";
  EXPECT_GT(sum, 0.0);
  // The counter is live: a miss does allocate (its key and its replay).
  Job fresh = shapes.front();
  fresh.m = 8192.0;
  backend.profile(fresh, placements.front());
  EXPECT_GT(g_allocations, before + allocated);
}

TEST(ProfileCache, HitsCountedInBoundMetricsAllocateNothing) {
  // Each hit bumps the existing "backend.profile_hits" counter, found
  // through the registry's transparent comparator without building a
  // std::string from the name.
  const simgrid::GridTopology topo = simgrid::GridTopology::grid5000(3, 2, 2);
  const model::Roofline roofline = model::paper_calibration();
  MetricsRegistry metrics;
  ServiceOptions options;
  options.metrics = &metrics;
  ExecutionBackend backend(topo, roofline, options);
  const std::vector<Placement> placements = all_placements(topo);
  const std::vector<Job> shapes = near_shapes();
  for (const Job& job : shapes) {
    for (const Placement& p : placements) backend.profile(job, p);
  }
  backend.profile(shapes.front(), placements.front());  // the first hit

  double sum = 0.0;
  const long long before = g_allocations;
  for (int i = 0; i < 10000; ++i) {
    const Job& job = shapes[static_cast<std::size_t>(i) % shapes.size()];
    const Placement& p =
        placements[static_cast<std::size_t>(i / 7) % placements.size()];
    sum += backend.profile(job, p).seconds;
  }
  const long long allocated = g_allocations - before;
  EXPECT_EQ(allocated, 0) << "10,000 counted cache hits allocated";
  EXPECT_GT(sum, 0.0);
  EXPECT_EQ(metrics.counter("backend.profile_hits"), 10001);
  // A name's first touch still inserts it.
  metrics.add("backend.a_counter_bumped_once");
  EXPECT_GT(g_allocations, before + allocated);
  EXPECT_EQ(metrics.counter("backend.a_counter_bumped_once"), 1);
}

}  // namespace
}  // namespace qrgrid::sched
