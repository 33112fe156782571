// The pluggable scheduling-policy engine: policy names and traits,
// tie-break determinism of the JobQueue across ALL policies,
// priority-aware EASY's reservation claim and no-delay invariant
// (WAN-priced shadows included), weighted fair-share's
// deficit-round-robin, the max-min WAN rate rule (progressive filling,
// per-pair horizons, conservation, monotonicity), and the policy suite
// end to end on the msg execution backend (the TSan lane's target).
#include "sched/policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/des_algos.hpp"

#include "sched/service.hpp"
#include "sched/snapshot.hpp"
#include "sched/wan.hpp"
#include "sched/workload.hpp"

namespace qrgrid::sched {
namespace {

constexpr Policy kAllPolicies[] = {Policy::kFcfs, Policy::kSpjf,
                                   Policy::kEasyBackfill,
                                   Policy::kPriorityEasy,
                                   Policy::kFairShare};

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

TEST(PolicyNames, RoundTripAndRejection) {
  for (const Policy policy : kAllPolicies) {
    EXPECT_EQ(policy_of(policy_name(policy)), policy);
  }
  EXPECT_THROW(policy_of("bogus"), Error);
  EXPECT_THROW(wan_fairness_of("bogus"), Error);
  EXPECT_EQ(wan_fairness_of("equal"), WanFairness::kEqualSplit);
  EXPECT_EQ(wan_fairness_of("maxmin"), WanFairness::kMaxMin);
  EXPECT_EQ(wan_fairness_name(WanFairness::kMaxMin), "maxmin");
}

TEST(PolicyTraits, BackfillAndShadowFlags) {
  EXPECT_FALSE(make_policy(Policy::kFcfs)->backfills());
  EXPECT_FALSE(make_policy(Policy::kSpjf)->backfills());
  EXPECT_TRUE(make_policy(Policy::kEasyBackfill)->backfills());
  EXPECT_TRUE(make_policy(Policy::kPriorityEasy)->backfills());
  EXPECT_FALSE(make_policy(Policy::kFairShare)->backfills());
  EXPECT_FALSE(make_policy(Policy::kEasyBackfill)->wan_priced_shadow());
  EXPECT_TRUE(make_policy(Policy::kPriorityEasy)->wan_priced_shadow());
  EXPECT_TRUE(make_policy(Policy::kFairShare)->dynamic_order());
}

// Satellite gate: jobs tied on EVERY ordering key (equal priority, equal
// arrival, equal shape hence equal estimate) must leave the queue in
// id order under every policy, whatever order they were pushed in —
// the id tail of each comparator is what makes scheduling byte-stable.
TEST(JobQueue, TieBreakDeterminismAcrossAllPolicies) {
  for (const Policy policy : kAllPolicies) {
    const auto instance = make_policy(policy);
    JobQueue queue(instance.get());
    for (const int id : {3, 0, 4, 1, 2}) {  // scrambled push order
      queue.push(make_job(id, 1.0, 1 << 17, 64, 4), 10.0);
    }
    for (int expect = 0; expect < 5; ++expect) {
      EXPECT_EQ(queue.pop_front().id, expect) << policy_name(policy);
    }
  }
}

/// Each bucket of the backfill index must hold: the queue's ids
/// filtered by procs, in queue order.
std::map<int, std::vector<int>> filtered_by_procs(JobQueue& queue) {
  std::map<int, std::vector<int>> want;
  for (auto it = queue.begin(); it != queue.end(); ++it) {
    want[it->job.procs].push_back(it->job.id);
  }
  return want;
}

/// A tie-heavy random job for the index tests: few arrival instants,
/// sizes and priority levels.
Job index_job(Rng& rng, int id) {
  const int sizes[] = {1, 2, 3, 4, 8};
  Job job = make_job(id, static_cast<double>(rng.uniform_index(6)),
                     1 << 16, 16, sizes[rng.uniform_index(5)]);
  job.priority = static_cast<int>(rng.uniform_index(4));
  return job;
}

/// A backfilling policy whose keys move as service accrues.
class DynamicBackfillPolicy : public EasyBackfillPolicy {
 public:
  bool dynamic_order() const override { return true; }
};

// The backfill index against the queue it indexes: randomized pushes,
// pops, mid-scan takes and snapshot round trips under both backfilling
// policies, checking every bucket after every operation. The other
// policies keep no index, and a backfilling dynamic-order policy is
// refused.
TEST(JobQueue, ProcsIndexMatchesTheQueueItIndexes) {
  for (const Policy policy : {Policy::kEasyBackfill, Policy::kPriorityEasy}) {
    Rng rng(policy == Policy::kEasyBackfill ? 11 : 13);
    const auto instance = make_policy(policy);
    auto queue = std::make_unique<JobQueue>(instance.get());
    for (int op = 0; op < 4000; ++op) {
      const std::uint64_t kind = rng.uniform_index(10);
      if (kind < 5) {
        // Every seventh id repeats an earlier one, so only the push
        // order breaks some ties.
        const int id = op % 7 == 0 ? op / 2 : op;
        queue->push(index_job(rng, id), rng.uniform(1.0, 3.0));
      } else if (kind < 7) {
        if (!queue->empty()) queue->pop_front();
      } else if (kind < 9) {
        JobQueue::Candidates pass = queue->candidates(
            static_cast<int>(rng.uniform_index(6)));
        while (pass.next() != nullptr) {
          const std::uint64_t verdict = rng.uniform_index(4);
          if (verdict == 0) pass.skip_procs();
          if (verdict == 1) pass.take();
          if (verdict == 1) {
            ASSERT_EQ(queue->procs_index(), filtered_by_procs(*queue))
                << policy_name(policy) << " mid-scan, op " << op;
          }
        }
      } else {
        SnapshotWriter writer;
        queue->visit(writer);
        SnapshotReader reader(writer.bytes());
        auto restored = std::make_unique<JobQueue>(instance.get());
        restored->visit(reader);
        queue = std::move(restored);
      }
      ASSERT_EQ(queue->procs_index(), filtered_by_procs(*queue))
          << policy_name(policy) << " op " << op;
    }
  }
  for (const Policy policy :
       {Policy::kFcfs, Policy::kSpjf, Policy::kFairShare}) {
    const auto instance = make_policy(policy);
    JobQueue queue(instance.get());
    Rng rng(17);
    for (int id = 0; id < 20; ++id) queue.push(index_job(rng, id), 1.0);
    EXPECT_TRUE(queue.procs_index().empty()) << policy_name(policy);
    EXPECT_THROW(queue.candidates(0), Error) << policy_name(policy);
  }
  const DynamicBackfillPolicy dynamic_backfill;
  EXPECT_THROW(JobQueue{&dynamic_backfill}, Error);
}

/// splitmix64 finalizer: the index tests' deterministic coin.
std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ull ^ b * 0xbf58476d1ce4e5b9ull ^
                    c * 0x94d049bb133111ebull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// The lazy merge against the positional walk it replaced. Placeability
// depends only on (procs, admissions so far) and each admission on
// (job, admissions so far) — the service's premise — so at every depth
// both must price the same candidates in the same order and admit the
// same jobs, while the merge skips each unplaceable size at most once
// per free state.
TEST(JobQueue, CandidatesPriceWhatAPositionalScanPrices) {
  for (const Policy policy : {Policy::kEasyBackfill, Policy::kPriorityEasy}) {
    Rng rng(policy == Policy::kEasyBackfill ? 19 : 23);
    for (int trial = 0; trial < 600; ++trial) {
      const int njobs = 1 + static_cast<int>(rng.uniform_index(80));
      const int depth = static_cast<int>(rng.uniform_index(10));
      const std::uint64_t salt = rng.next_u64();
      auto placeable = [salt](int procs, int admits) {
        return mix(salt, static_cast<std::uint64_t>(procs),
                   static_cast<std::uint64_t>(admits)) % 3 != 0;
      };
      auto admit = [salt](int id, int admits) {
        return mix(~salt, static_cast<std::uint64_t>(id),
                   static_cast<std::uint64_t>(admits)) % 4 == 0;
      };
      const auto instance = make_policy(policy);
      JobQueue scanned(instance.get());
      JobQueue merged(instance.get());
      for (int id = 0; id < njobs; ++id) {
        const Job job = index_job(rng, id);
        scanned.push(job, 1.0);
        merged.push(job, 1.0);
      }

      // The positional walk over the pass-start order.
      std::vector<const Job*> order;
      for (auto it = scanned.begin(); it != scanned.end(); ++it) {
        order.push_back(&it->job);
      }
      std::vector<int> want_priced;
      std::vector<int> want_admitted;
      for (std::size_t pos = 1; pos < order.size(); ++pos) {
        if (depth > 0 && pos > static_cast<std::size_t>(depth)) break;
        const int admits = static_cast<int>(want_admitted.size());
        if (!placeable(order[pos]->procs, admits)) continue;
        want_priced.push_back(order[pos]->id);
        if (admit(order[pos]->id, admits)) {
          want_admitted.push_back(order[pos]->id);
        }
      }

      std::vector<int> priced;
      std::vector<int> admitted;
      std::map<std::pair<int, int>, int> skips;  // (procs, admits) -> n
      JobQueue::Candidates pass = merged.candidates(depth);
      while (const PendingEntry* entry = pass.next()) {
        const int admits = static_cast<int>(admitted.size());
        if (!placeable(entry->job.procs, admits)) {
          ++skips[{entry->job.procs, admits}];
          pass.skip_procs();
          continue;
        }
        priced.push_back(entry->job.id);
        if (admit(entry->job.id, admits)) admitted.push_back(pass.take().id);
      }
      ASSERT_EQ(priced, want_priced) << "trial " << trial;
      ASSERT_EQ(admitted, want_admitted) << "trial " << trial;
      for (const auto& [key, n] : skips) {
        ASSERT_EQ(n, 1) << "trial " << trial << ": size " << key.first
                        << " skipped twice on one free state";
      }
      std::vector<int> left;
      for (auto it = merged.begin(); it != merged.end(); ++it) {
        left.push_back(it->job.id);
      }
      std::vector<int> want_left;
      for (const Job* job : order) {
        if (std::find(want_admitted.begin(), want_admitted.end(),
                      job->id) == want_admitted.end()) {
          want_left.push_back(job->id);
        }
      }
      ASSERT_EQ(left, want_left) << "trial " << trial;
    }
  }
}

// Restart credit makes equal jobs unequal. Two jobs of one size and
// shape backfill behind a blocked head; outages kill the older one
// before its first checkpoint and the younger one halfway through, and
// both sites come back at one instant, when the reservation is 3/4 of
// the older job's replay away. In that pass the older job's full replay
// overruns the reservation while the younger job's credited half fits:
// each candidate is priced with its own credit, so a scan that wrote
// off the whole (size, shape) class after one rejection would hold the
// younger job back.
TEST(EasyBackfill, EqualShapesCarryingDifferentCreditArePricedApart) {
  // 3 sites x 2 nodes x 2 procs: one 4-proc job fills one site.
  const simgrid::GridTopology grid = simgrid::GridTopology::grid5000(3, 2, 2);
  const std::vector<Job> jobs = {
      make_job(0, 0.0, 1 << 21, 32, 4),   // long: holds site 0
      make_job(1, 0.0, 1 << 17, 32, 12),  // head: needs every site
      make_job(2, 0.0, 1 << 17, 32, 4),   // older: backfills on site 1
      make_job(3, 0.0, 1 << 17, 32, 4),   // younger: backfills on site 2
  };
  ServiceOptions options;
  options.policy = Policy::kEasyBackfill;
  options.restart_credit = true;
  options.checkpoint_panels = 8;
  const ServiceReport calm =
      GridJobService(grid, model::paper_calibration(), options).run(jobs);
  ASSERT_TRUE(calm.outcomes[2].backfilled && calm.outcomes[3].backfilled);
  ASSERT_EQ(calm.outcomes[2].clusters, std::vector<int>{1});
  ASSERT_EQ(calm.outcomes[3].clusters, std::vector<int>{2});
  const double reservation = calm.outcomes[0].finish_s;
  const double older_s = calm.outcomes[2].service_s;  // replay on site 1
  const double younger_s = calm.outcomes[3].service_s;
  const double up = reservation - 0.75 * older_s;
  ASSERT_GT(up, 0.6 * younger_s);

  options.outages = OutageTrace(
      {{1, older_s / 16.0, up}, {2, 0.6 * younger_s, up}});
  const ServiceReport report =
      GridJobService(grid, model::paper_calibration(), options).run(jobs);
  const JobOutcome& older = report.outcomes[2];
  const JobOutcome& younger = report.outcomes[3];
  EXPECT_EQ(younger.attempts, 2);
  EXPECT_TRUE(younger.backfilled);
  EXPECT_EQ(younger.start_s, up);
  EXPECT_EQ(younger.clusters, std::vector<int>{1});
  EXPECT_EQ(older.attempts, 2);
  EXPECT_GT(older.start_s, up);
  EXPECT_TRUE(older.completed() && younger.completed());
}

// Counts with no meaning below zero are refused by name, not read as
// "unlimited" or "none" (the CLI test covers --backfill-depth).
TEST(ServiceOptionsCheck, NegativeCountsAreRefusedByName) {
  const auto refusal = [](ServiceOptions options) -> std::string {
    try {
      GridJobService service(small_grid(), model::paper_calibration(),
                             options);
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  };
  ServiceOptions depth;
  depth.backfill_depth = -3;
  EXPECT_NE(refusal(depth).find("backfill_depth"), std::string::npos);
  ServiceOptions retries;
  retries.max_retries = -2;
  EXPECT_NE(refusal(retries).find("max_retries"), std::string::npos);
  ServiceOptions panels;
  panels.checkpoint_panels = -4;
  EXPECT_NE(refusal(panels).find("checkpoint_panels"), std::string::npos);
  ServiceOptions cost;
  cost.checkpoint_cost_s = -1.0;
  EXPECT_NE(refusal(cost).find("checkpoint_cost_s"), std::string::npos);
  cost.checkpoint_cost_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(refusal(cost).find("checkpoint_cost_s"), std::string::npos);
  ServiceOptions zeros;  // zero stays legal for all four
  zeros.max_retries = 0;
  zeros.checkpoint_panels = 0;
  zeros.checkpoint_cost_s = 0.0;
  EXPECT_EQ(refusal(zeros), "");
}

/// Tie-heavy stream: batches of identical jobs arriving at identical
/// instants, so every ordering key except the id collides.
std::vector<Job> tied_batches() {
  std::vector<Job> jobs;
  int id = 0;
  for (int batch = 0; batch < 8; ++batch) {
    for (int k = 0; k < 4; ++k) {
      Job job = make_job(id++, 5.0 * batch, 1 << 18, 64, 4);
      job.user = k % 2;
      jobs.push_back(job);
    }
  }
  return jobs;
}

TEST(GridJobService, TiedWorkloadByteIdenticalAcrossTwoRuns) {
  for (const Policy policy : kAllPolicies) {
    ServiceOptions options;
    options.policy = policy;
    GridJobService first(small_grid(), model::paper_calibration(), options);
    GridJobService second(small_grid(), model::paper_calibration(), options);
    const ServiceReport a = first.run(tied_batches());
    const ServiceReport b = second.run(tied_batches());
    EXPECT_EQ(summary_row(a), summary_row(b)) << policy_name(policy);
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
      EXPECT_EQ(a.outcomes[i].start_s, b.outcomes[i].start_s)
          << policy_name(policy);
      EXPECT_EQ(a.outcomes[i].finish_s, b.outcomes[i].finish_s)
          << policy_name(policy);
      EXPECT_EQ(a.outcomes[i].clusters, b.outcomes[i].clusters)
          << policy_name(policy);
    }
    // Policy state (fair-share deficits) must reset per run: the SAME
    // service replaying the workload reports byte-identically.
    EXPECT_EQ(summary_row(first.run(tied_batches())), summary_row(a))
        << policy_name(policy) << " (service reuse)";
  }
}

// Plain EASY is classic (arrival-ordered, priority-blind); prio-easy
// lets a later, higher-priority job claim the head — and with it the
// shadow reservation.
TEST(PriorityEasy, HigherPriorityClaimsTheReservation) {
  std::vector<Job> jobs;
  jobs.push_back(make_job(0, 0.0, 1 << 21, 64, 8));  // fills the grid
  jobs.push_back(make_job(1, 1.0, 1 << 20, 64, 8));  // head under easy
  Job urgent = make_job(2, 2.0, 1 << 20, 64, 8);     // arrives last...
  urgent.priority = 3;                               // ...but outranks
  jobs.push_back(urgent);
  model::Roofline roof = model::paper_calibration();

  ServiceOptions easy;
  easy.policy = Policy::kEasyBackfill;
  const ServiceReport classic =
      GridJobService(small_grid(), roof, easy).run(jobs);
  ServiceOptions prio;
  prio.policy = Policy::kPriorityEasy;
  const ServiceReport ranked =
      GridJobService(small_grid(), roof, prio).run(jobs);

  // Classic EASY honors arrival order; prio-easy flips jobs 1 and 2.
  EXPECT_LT(classic.outcomes[1].start_s, classic.outcomes[2].start_s);
  EXPECT_LT(ranked.outcomes[2].start_s, ranked.outcomes[1].start_s);
  // The claim is visible in the reservation record: under prio-easy the
  // urgent job held the head's shadow reservation (finite), and started
  // no later than it.
  ASSERT_TRUE(std::isfinite(ranked.outcomes[2].reserved_start_s));
  EXPECT_LE(ranked.outcomes[2].start_s,
            ranked.outcomes[2].reserved_start_s + 1e-9);
}

// The code-review repro: the reservation holder is overtaken by a
// higher-priority job that starts DIRECTLY from the head path (not as a
// backfill) — the displaced holder's stale promise must be withdrawn,
// or the no-delay record would show a violation that never was one.
TEST(PriorityEasy, OvertakenHeadPromiseIsWithdrawn) {
  std::vector<Job> jobs;
  jobs.push_back(make_job(0, 0.0, 1 << 21, 64, 4));  // half the grid, long
  jobs.push_back(make_job(1, 1.0, 1 << 21, 64, 8));  // blocks as head
  Job urgent = make_job(2, 2.0, 1 << 21, 64, 4);     // fits the free half
  urgent.priority = 3;
  jobs.push_back(urgent);
  ServiceOptions options;
  options.policy = Policy::kPriorityEasy;
  const ServiceReport report =
      GridJobService(small_grid(), model::paper_calibration(), options)
          .run(jobs);
  // The urgent job claimed the head and started at once; job 1's stale
  // promise (job 0's finish) was withdrawn and replaced by a fresh one
  // that also waits on the urgent job — strictly later than the stale
  // promise, and honored. Without the withdrawal, reserved_start_s
  // would still read job 0's finish and the invariant would break.
  EXPECT_LT(report.outcomes[2].start_s, report.outcomes[1].start_s);
  ASSERT_FALSE(std::isinf(report.outcomes[1].reserved_start_s));
  EXPECT_GT(report.outcomes[1].reserved_start_s,
            report.outcomes[0].finish_s);
  for (const JobOutcome& o : report.outcomes) {
    if (std::isinf(o.reserved_start_s)) continue;
    EXPECT_LE(o.start_s, o.reserved_start_s + 1e-9) << "job " << o.job.id;
  }
}

// The no-delay invariant on fault-free runs: no job that ever blocked as
// head starts after its promised shadow time — under prio-easy this is
// checked both dry and under shared-WAN contention (where the shadow
// prices drain estimates; plain EASY's promise would be best-effort).
TEST(PriorityEasy, NeverDelaysReservedJobPastShadow) {
  for (const bool contended : {false, true}) {
    for (const std::uint64_t seed : {5u, 19u, 37u}) {
      WorkloadSpec spec;
      spec.jobs = 36;
      spec.mean_interarrival_s = 0.1;
      spec.procs_choices = {2, 4, 8};
      spec.priority_levels = 3;
      spec.tree_choices = {core::TreeKind::kFlat};
      spec.seed = seed;
      ServiceOptions options;
      options.policy = Policy::kPriorityEasy;
      if (contended) {
        options.wan_contention = true;
        options.wan_fairness = WanFairness::kMaxMin;
        options.wan_link_Bps = 0.05e9 / 8.0;
      }
      GridJobService service(small_grid(), model::paper_calibration(),
                             options);
      const ServiceReport report = service.run(generate_workload(spec));
      for (const JobOutcome& o : report.outcomes) {
        if (std::isinf(o.reserved_start_s)) continue;
        EXPECT_LE(o.start_s, o.reserved_start_s + 1e-9)
            << "job " << o.job.id << " seed " << seed
            << (contended ? " (contended)" : " (dry)");
      }
    }
  }
}

// Mixed-priority contention: prio-easy must serve the top priority class
// strictly better than priority-blind classic EASY.
TEST(PriorityEasy, TopPriorityClassWaitsLessThanUnderPlainEasy) {
  WorkloadSpec spec;
  spec.jobs = 60;
  spec.mean_interarrival_s = 0.05;
  spec.procs_choices = {2, 4, 8};
  spec.priority_levels = 2;
  spec.seed = 67;
  const std::vector<Job> jobs = generate_workload(spec);
  model::Roofline roof = model::paper_calibration();

  auto top_mean_wait = [&](Policy policy) {
    ServiceOptions options;
    options.policy = policy;
    const ServiceReport report =
        GridJobService(small_grid(), roof, options).run(jobs);
    double wait = 0.0;
    int count = 0;
    for (const JobOutcome& o : report.outcomes) {
      if (o.job.priority == 1) {
        wait += o.wait_s();
        ++count;
      }
    }
    EXPECT_GT(count, 0);
    return wait / count;
  };
  EXPECT_LT(top_mean_wait(Policy::kPriorityEasy),
            top_mean_wait(Policy::kEasyBackfill));
}

// Deficit-round-robin unit level: charging one user pushes its jobs
// behind an uncharged user's after resort, weights scaling the deficit.
TEST(FairShare, DeficitOrderingFollowsChargedService) {
  FairSharePolicy policy;
  JobQueue queue(&policy);
  Job a = make_job(0, 0.0, 1 << 17, 64, 4);
  a.user = 0;
  Job b = make_job(1, 1.0, 1 << 17, 64, 4);
  b.user = 1;
  queue.push(a, 10.0);
  queue.push(b, 10.0);
  EXPECT_EQ(queue.front().id, 0);  // equal deficits: arrival order
  policy.on_attempt_start(a, 100.0);
  queue.resort();
  EXPECT_EQ(queue.front().id, 1);  // user 0 now served: user 1 first
  EXPECT_DOUBLE_EQ(policy.normalized_service(0), 100.0);
  // A weight-4 job charges a quarter of the deficit.
  Job heavy = make_job(2, 2.0, 1 << 17, 64, 4);
  heavy.user = 2;
  heavy.weight = 4.0;
  policy.on_attempt_start(heavy, 100.0);
  EXPECT_DOUBLE_EQ(policy.normalized_service(2), 25.0);
  policy.reset();
  EXPECT_DOUBLE_EQ(policy.normalized_service(0), 0.0);
}

/// Two users flooding the queue at once with identical demands, weights
/// 2:1 — the scenario where weighted fair-share must give user 0 about
/// twice the service rate of user 1.
std::vector<Job> two_user_flood(double w0, double w1) {
  std::vector<Job> jobs;
  for (int i = 0; i < 32; ++i) {
    Job job = make_job(i, 0.01 * i, 1 << 19, 64, 4);
    job.user = i % 2;
    job.weight = job.user == 0 ? w0 : w1;
    jobs.push_back(job);
  }
  return jobs;
}

TEST(FairShare, WeightedUserGetsProportionallyEarlierService) {
  ServiceOptions options;
  options.policy = Policy::kFairShare;
  GridJobService service(small_grid(), model::paper_calibration(), options);
  const ServiceReport report = service.run(two_user_flood(2.0, 1.0));
  ASSERT_EQ(report.completed_jobs, 32);

  double wait[2] = {0.0, 0.0};
  double last_finish[2] = {0.0, 0.0};
  int count[2] = {0, 0};
  for (const JobOutcome& o : report.outcomes) {
    const int u = o.job.user;
    wait[u] += o.wait_s();
    last_finish[u] = std::max(last_finish[u], o.finish_s);
    ++count[u];
  }
  ASSERT_EQ(count[0], 16);
  ASSERT_EQ(count[1], 16);
  // The weight-2 user is served ahead: strictly lower mean wait and an
  // earlier personal makespan, with the ratio bounded by the weights
  // (ideal deficit-round-robin on equal demand lands light/heavy between
  // 1 and w0/w1).
  EXPECT_LT(wait[0] / count[0], wait[1] / count[1]);
  EXPECT_GT(last_finish[1], last_finish[0]);
  EXPECT_LE(last_finish[1] / last_finish[0], 2.0 + 0.25);

  // Equal weights: the flood degenerates to near-FCFS interleaving, so
  // neither user's personal makespan may run away.
  GridJobService even(small_grid(), model::paper_calibration(), options);
  const ServiceReport balanced = even.run(two_user_flood(1.0, 1.0));
  double even_finish[2] = {0.0, 0.0};
  for (const JobOutcome& o : balanced.outcomes) {
    even_finish[o.job.user] =
        std::max(even_finish[o.job.user], o.finish_s);
  }
  EXPECT_LE(std::abs(even_finish[0] - even_finish[1]),
            0.2 * balanced.makespan_s);
}

// --- The WAN rate rules -------------------------------------------------

GridWanModel::Pool pool_of(GridWanModel::Pool::Link link, int cluster,
                           double bytes, double activation_s) {
  GridWanModel::Pool pool;
  pool.link = link;
  pool.cluster = cluster;
  pool.bytes = bytes;
  pool.activation_s = activation_s;
  return pool;
}

using Link = GridWanModel::Pool::Link;

TEST(WanRates, ProgressiveFillingReassignsBottleneckedShare) {
  // Demand A crosses a 25 B/s uplink; demand B shares only the 100 B/s
  // backbone with it. Equal split would hand both 50 on the trunk;
  // max-min freezes A at 25 and fills B to 75.
  std::vector<WanDemand> demands(2);
  demands[0].links[0] = 0;  // thin uplink, 25 B/s
  demands[0].links[1] = 1;  // backbone
  demands[0].nlinks = 2;
  demands[1].links[0] = 2;  // its own uplink
  demands[1].links[1] = 1;  // shared backbone
  demands[1].nlinks = 2;
  const std::vector<double> capacity = {25.0, 100.0, 100.0};
  std::vector<double> rates;
  assign_wan_rates(WanFairness::kMaxMin, demands, capacity, rates);
  EXPECT_DOUBLE_EQ(rates[0], 25.0);
  EXPECT_DOUBLE_EQ(rates[1], 75.0);
  // Equal split on the same geometry: both trunk users get 50, A is
  // additionally capped at its uplink.
  assign_wan_rates(WanFairness::kEqualSplit, demands, capacity, rates);
  EXPECT_DOUBLE_EQ(rates[0], 25.0);
  EXPECT_DOUBLE_EQ(rates[1], 50.0);
}

TEST(WanRates, SplitFlowCountsAsOneUserPerLink) {
  // Flow 0 is split into two pools on link 0 (fracs 0.6/0.4); flow 1 is
  // one pool. Per-FLOW fairness: each flow gets C/2 = 50 in aggregate —
  // splitting must never multiply a flow's share.
  std::vector<WanDemand> demands(3);
  demands[0].links[0] = 0;
  demands[0].frac[0] = 0.6;
  demands[0].nlinks = 1;
  demands[1].links[0] = 0;
  demands[1].frac[0] = 0.4;
  demands[1].nlinks = 1;
  demands[2].links[0] = 0;
  demands[2].nlinks = 1;  // frac defaults to 1.0
  const std::vector<double> capacity = {100.0};
  std::vector<double> rates;
  assign_wan_rates(WanFairness::kEqualSplit, demands, capacity, rates);
  EXPECT_DOUBLE_EQ(rates[0] + rates[1], 50.0);
  EXPECT_DOUBLE_EQ(rates[2], 50.0);
  assign_wan_rates(WanFairness::kMaxMin, demands, capacity, rates);
  EXPECT_DOUBLE_EQ(rates[0] + rates[1], 50.0);
  EXPECT_DOUBLE_EQ(rates[2], 50.0);
}

TEST(MaxMinModel, DrainEstimatePricesPendingActivations) {
  GridWanModel wan(2, 100.0, 100.0, WanFairness::kMaxMin);
  const int flow =
      wan.admit(0.0, {pool_of(Link::kUplink, 0, 500.0, 4.0)});
  std::vector<double> estimate;
  // Pessimistic planning: the pool is counted a user now even though it
  // activates at t=4; alone that is full capacity from activation.
  wan.drain_estimates_s(0.0, {flow}, estimate);
  ASSERT_EQ(estimate.size(), 1u);
  EXPECT_DOUBLE_EQ(estimate[0], 4.0 + 5.0);
  // A second flow halves the planned share (trunk: 100/2 = 50 B/s).
  wan.admit(0.0, {pool_of(Link::kUplink, 1, 500.0, 0.0)});
  wan.drain_estimates_s(0.0, {flow}, estimate);
  ASSERT_EQ(estimate.size(), 1u);
  EXPECT_DOUBLE_EQ(estimate[0], 4.0 + 10.0);
}

/// Wide flat-tree workload on 4 sites (the WAN suite's geometry) under a
/// thin shared WAN — where the two allocators genuinely diverge.
std::vector<Job> wide_wan_jobs() {
  WorkloadSpec spec;
  spec.jobs = 24;
  spec.mean_interarrival_s = 0.4;
  spec.m_choices = {1 << 17, 1 << 18};
  spec.n_choices = {256, 512};
  spec.procs_choices = {24, 48, 68, 132};
  spec.tree_choices = {core::TreeKind::kFlat};
  spec.seed = 53;
  return generate_workload(spec);
}

TEST(MaxMinService, MonotoneConservedAndDeterministic) {
  simgrid::GridTopology topo = simgrid::GridTopology::grid5000(4, 32, 2);
  ServiceOptions options;
  options.policy = Policy::kEasyBackfill;
  options.wan_contention = true;
  options.wan_fairness = WanFairness::kMaxMin;
  options.wan_link_Bps = 0.02e9 / 8.0;
  GridJobService service(topo, model::paper_calibration(), options);
  const ServiceReport report = service.run(wide_wan_jobs());
  ASSERT_EQ(report.completed_jobs, 24);
  // The acceptance gates: contended >= isolated per job, bytes conserved.
  for (const JobOutcome& o : report.outcomes) {
    EXPECT_GE(o.wan_slowdown, 1.0 - 1e-9) << "job " << o.job.id;
  }
  EXPECT_GT(report.max_wan_slowdown, 1.0);  // contention really happened
  const long long egress =
      std::accumulate(report.wan_egress_bytes.begin(),
                      report.wan_egress_bytes.end(), 0LL);
  const long long ingress =
      std::accumulate(report.wan_ingress_bytes.begin(),
                      report.wan_ingress_bytes.end(), 0LL);
  EXPECT_GT(egress, 0);
  EXPECT_EQ(egress, ingress);
  // Byte-identical across a fresh service and a service reuse.
  GridJobService again(topo, model::paper_calibration(), options);
  EXPECT_EQ(summary_row(again.run(wide_wan_jobs())), summary_row(report));
  EXPECT_EQ(summary_row(service.run(wide_wan_jobs())),
            summary_row(report));
}

TEST(MaxMinService, ZeroContentionReproducesEqualSplitExactly) {
  // Serial workload: with nothing overlapping, allocator choice cannot
  // matter — isolated flows drain inside their replay under either.
  std::vector<Job> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(make_job(i, 1e5 * i, 1 << 18, 128, 8));
  }
  ServiceOptions equal;
  equal.policy = Policy::kEasyBackfill;
  equal.wan_contention = true;
  ServiceOptions maxmin = equal;
  maxmin.wan_fairness = WanFairness::kMaxMin;
  const ServiceReport a =
      GridJobService(small_grid(), model::paper_calibration(), equal)
          .run(jobs);
  const ServiceReport b =
      GridJobService(small_grid(), model::paper_calibration(), maxmin)
          .run(jobs);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].start_s, b.outcomes[i].start_s);
    EXPECT_EQ(a.outcomes[i].finish_s, b.outcomes[i].finish_s);
    EXPECT_EQ(a.outcomes[i].wan_slowdown, 1.0);
  }
}

// The policy suite on the REAL execution backend (small shapes): every
// completed job factored on msg::Runtime with verified numerics. This is
// the test the TSan CI lane runs against the instrumented runtime.
TEST(MsgBackend, NewPoliciesExecuteRealFactorizations) {
  WorkloadSpec spec;
  spec.jobs = 10;
  spec.mean_interarrival_s = 0.004;
  spec.m_choices = {512, 1024};
  spec.n_choices = {16, 32};
  spec.procs_choices = {2, 4, 8};
  spec.priority_levels = 2;
  spec.users = 2;
  spec.user_weights = {2.0, 1.0};
  spec.seed = 73;
  const std::vector<Job> jobs = generate_workload(spec);
  for (const Policy policy : {Policy::kPriorityEasy, Policy::kFairShare}) {
    ServiceOptions options;
    options.policy = policy;
    options.backend = BackendKind::kMsgRuntime;
    options.domains_per_cluster = core::kOneDomainPerProcess;
    GridJobService service(small_grid(), model::paper_calibration(),
                           options);
    const ServiceReport report = service.run(jobs);
    EXPECT_EQ(report.completed_jobs, 10) << policy_name(policy);
    EXPECT_EQ(report.executed_attempts, 10) << policy_name(policy);
    EXPECT_GT(report.max_residual, 0.0) << policy_name(policy);
    EXPECT_LT(report.max_residual, 1e-10) << policy_name(policy);
    EXPECT_LT(report.max_orthogonality, 1e-10) << policy_name(policy);
  }
}

}  // namespace
}  // namespace qrgrid::sched
