// Cluster outage model for the grid job service.
//
// Grid'5000 sites drop out: a reservation ends, a chilled-water loop
// trips, an admin reboots the frontend — and every node of the site is
// gone at once. The service consumes outages as a sorted stream of
// down/up boundaries in virtual time, either from an explicit interval
// list (tests, replayed operator logs) or from a seeded per-cluster
// alternating-renewal generator (up-time ~ Exp(mtbf), down-time ~
// Exp(mean_outage)) that lazily extends to any horizon, so callers never
// have to guess the makespan in advance.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace qrgrid::sched {

/// One whole-cluster outage interval: the site is unusable in
/// [start_s, end_s) and every job holding nodes there at start_s dies.
struct Outage {
  int cluster = 0;
  double start_s = 0.0;
  double end_s = 0.0;  ///< recovery instant; must be > start_s
};

/// Knobs of the seeded outage generator. mtbf_s == 0 disables faults;
/// a negative or NaN mtbf_s is refused.
struct OutageSpec {
  double mtbf_s = 0.0;         ///< mean up-time per cluster between failures
  double mean_outage_s = 30.0; ///< mean repair time once a cluster is down
  std::uint64_t seed = 1;
};

/// One boundary of an outage interval, as the service consumes them.
struct OutageEvent {
  double time_s = 0.0;
  int cluster = 0;
  bool down = false;  ///< true: cluster fails; false: cluster recovers
};

/// Sorted stream of outage boundaries. Value semantics: copying a trace
/// copies its cursor/generator state, so the service can replay one
/// ServiceOptions trace per run() without consuming the original.
///
/// Event precedence at equal virtual times: recovery before failure,
/// then lower cluster id — matching the service's global rule that
/// completions are processed before outages, and outages before arrivals.
class OutageTrace {
 public:
  OutageTrace() = default;  ///< no outages, ever

  /// Explicit interval list; throws qrgrid::Error on malformed intervals.
  /// Intervals may overlap (the service nests them with a depth count).
  explicit OutageTrace(std::vector<Outage> outages);

  /// Seeded alternating-renewal generator, one independent stream per
  /// cluster (per-cluster seeds derived by splitmix64 diffusion).
  OutageTrace(const OutageSpec& spec, int num_clusters);

  /// False iff the trace can never emit an event.
  bool enabled() const { return cursor_ < events_.size() || !streams_.empty(); }

  /// Virtual time of the next boundary; +infinity when exhausted.
  double peek_s() const;

  /// Consumes and returns the next boundary. Requires peek_s() < inf.
  OutageEvent pop();

  /// Snapshot field list (sched/snapshot.hpp): only the consumable
  /// position — the explicit-mode cursor and the generated-mode
  /// per-cluster RNG/next-boundary/phase — so a restored service replays
  /// the exact same outage future, including generator draws that haven't
  /// happened yet. The interval list and spec are NOT written; loading
  /// must target a trace freshly constructed from the same configuration.
  template <class V>
  void visit(V& v) {
    v(cursor_);
    v.expect(streams_.size(), "outage stream count");
    for (Stream& s : streams_) v(s.rng, s.next_s, s.down);
    if constexpr (V::kLoading) {
      QRGRID_CHECK_MSG(cursor_ <= events_.size(),
                       "snapshot outage cursor " << cursor_ << " beyond "
                           << events_.size() << " explicit events");
    }
  }

  /// Configuration digest for the service snapshot's `outages` tag: a hash
  /// over the defining boundary list (explicit mode) or the generator
  /// means and initial per-cluster stream states (generated mode).
  /// Consumable position (cursor, consumed draws) is excluded — the key
  /// guards that a loaded snapshot lands on a trace built from the same
  /// configuration, which is visit()'s documented precondition.
  std::string config_key() const;

 private:
  struct Stream {  ///< lazy generator state for one cluster
    Rng rng;
    double next_s = 0.0;
    bool down = false;  ///< current state; the next event flips it
  };
  double draw_exp(Rng& rng, double mean) const;

  // Explicit mode: pre-sorted boundaries consumed through cursor_.
  std::vector<OutageEvent> events_;
  std::size_t cursor_ = 0;
  // Generated mode: per-cluster renewal processes.
  double mean_up_s_ = 0.0;
  double mean_down_s_ = 0.0;
  std::vector<Stream> streams_;
};

}  // namespace qrgrid::sched
