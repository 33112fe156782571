// Scoped self-profiler for the grid job service's hot phases.
//
// The virtual-time trace (sched/telemetry.hpp) explains WHERE simulated
// time went; this answers where WALL time goes inside the event loop —
// the input the perf-regression gate (tools/check_bench.py) compares
// across commits as phase SHARES, so a complexity regression in one
// phase (dispatch suddenly rescanning the queue, the WAN walk going
// quadratic) shows up even when absolute walls jitter across machines.
//
// Nine phases, chosen to cover the loop's real hot spots:
//
//   dispatch-scan        one dispatch() pass: head placements + the
//                        backfill pass, a queue-order merge of the
//                        pending queue's per-procs buckets that prices
//                        only candidates whose procs place now
//                        (includes shadow, place and profile-compute
//                        below)
//   shadow               shadow_time(): the EASY reservation estimate,
//                        including WAN drain pricing (nested inside
//                        dispatch-scan — totals overlap by design)
//   wan-advance          GridWanModel::advance: draining every activated
//                        pool to the next horizon event
//   wan-rebalance        the incremental rate engine's component
//                        recompute (either fairness rule): one rate
//                        assignment over the links whose flow set
//                        changed (nested inside whichever phase
//                        consulted the WAN model — usually
//                        wan-advance; totals overlap by design)
//   completion-extract   the completion/walltime-kill extraction scan
//                        plus per-completion accounting
//   backend-execute      ExecutionBackend::execute (msg runtime only;
//                        zero calls on the replay backend)
//   place                one try_place on a memo miss (the dispatch
//                        memo, or the blame pass's fully-up probe): the
//                        meta-scheduler's first fit over the free
//                        processes, which decides each group's cluster
//                        and builds no machine file (nested inside
//                        whichever phase asked — dispatch-scan or
//                        blame-classify)
//   blame-classify       classify_waits(): the wait-blame pass after
//                        each dispatch (wait_blame runs only)
//   profile-compute      one ExecutionBackend::profile() cache miss: the
//                        des_tsqr replay of a (shape x placement) the
//                        run has not priced yet (nested inside
//                        dispatch-scan, which prices and starts jobs; a
//                        restore's warm() is not timed)
//
// Cost contract, same shape as the tracer's: ServiceOptions::profiler is
// a nullable pointer, and a PhaseScope over a null profiler never reads
// a clock — the disabled run does not touch std::chrono at all. Wall
// times are inherently nondeterministic, so they live ONLY in gauges
// (metrics JSON `profiler.*`) and BENCH totals, never in the virtual-
// time event stream — byte-determinism of traces is untouched.
#pragma once

#include <array>
#include <chrono>

namespace qrgrid::sched {

class MetricsRegistry;

/// One hot phase of the service event loop (see the header comment).
enum class ProfilePhase : int {
  kDispatchScan = 0,
  kShadow,
  kWanAdvance,
  kWanRebalance,
  kCompletionExtract,
  kBackendExecute,
  kPlace,
  kBlameClassify,
  kProfileCompute,
};
inline constexpr int kProfilePhaseCount = 9;

inline const char* profile_phase_name(ProfilePhase phase) {
  switch (phase) {
    case ProfilePhase::kDispatchScan:
      return "dispatch-scan";
    case ProfilePhase::kShadow:
      return "shadow";
    case ProfilePhase::kWanAdvance:
      return "wan-advance";
    case ProfilePhase::kWanRebalance:
      return "wan-rebalance";
    case ProfilePhase::kCompletionExtract:
      return "completion-extract";
    case ProfilePhase::kBackendExecute:
      return "backend-execute";
    case ProfilePhase::kPlace:
      return "place";
    case ProfilePhase::kBlameClassify:
      return "blame-classify";
    case ProfilePhase::kProfileCompute:
      return "profile-compute";
  }
  return "unknown";
}

/// Accumulated wall seconds and entry counts per phase. Plain arrays, no
/// locking: the event loop is single-threaded (the msg backend's rank
/// threads never touch the profiler).
class PhaseProfiler {
 public:
  void add(ProfilePhase phase, double seconds) {
    const auto i = static_cast<std::size_t>(phase);
    total_s_[i] += seconds;
    ++calls_[i];
  }

  double total_s(ProfilePhase phase) const {
    return total_s_[static_cast<std::size_t>(phase)];
  }
  long long calls(ProfilePhase phase) const {
    return calls_[static_cast<std::size_t>(phase)];
  }

  void clear() {
    total_s_.fill(0.0);
    calls_.fill(0);
  }

 private:
  std::array<double, kProfilePhaseCount> total_s_{};
  std::array<long long, kProfilePhaseCount> calls_{};
};

/// RAII timer around one phase entry. A null profiler costs exactly one
/// pointer test per end — no clock read, no accumulation.
class PhaseScope {
 public:
  PhaseScope(PhaseProfiler* profiler, ProfilePhase phase)
      : profiler_(profiler), phase_(phase) {
    if (profiler_ != nullptr) t0_ = std::chrono::steady_clock::now();
  }
  ~PhaseScope() {
    if (profiler_ == nullptr) return;
    const auto dt = std::chrono::steady_clock::now() - t0_;
    profiler_->add(phase_,
                   std::chrono::duration<double>(dt).count());
  }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  PhaseProfiler* profiler_;
  ProfilePhase phase_;
  std::chrono::steady_clock::time_point t0_{};
};

}  // namespace qrgrid::sched
