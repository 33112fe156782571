#include "sched/outage.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "common/check.hpp"

namespace qrgrid::sched {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Recovery (up) boundaries sort before failures at the same instant so a
/// back-to-back repair/re-failure leaves the cluster down, never up.
bool event_before(const OutageEvent& a, const OutageEvent& b) {
  if (a.time_s != b.time_s) return a.time_s < b.time_s;
  if (a.down != b.down) return !a.down;
  return a.cluster < b.cluster;
}
}  // namespace

OutageTrace::OutageTrace(std::vector<Outage> outages) {
  events_.reserve(2 * outages.size());
  for (const Outage& o : outages) {
    QRGRID_CHECK_MSG(o.cluster >= 0 && o.start_s >= 0.0 &&
                         o.end_s > o.start_s,
                     "malformed outage on cluster " << o.cluster << ": ["
                         << o.start_s << ", " << o.end_s << ")");
    events_.push_back(OutageEvent{o.start_s, o.cluster, /*down=*/true});
    events_.push_back(OutageEvent{o.end_s, o.cluster, /*down=*/false});
  }
  std::sort(events_.begin(), events_.end(), event_before);
}

OutageTrace::OutageTrace(const OutageSpec& spec, int num_clusters) {
  QRGRID_CHECK(num_clusters >= 1);
  // 0 is the documented "no faults"; below it an MTBF has no meaning,
  // and NaN fails the comparison and is refused with it.
  QRGRID_CHECK_MSG(spec.mtbf_s >= 0.0,
                   "outage mtbf_s must be >= 0 (0 = no faults), got "
                       << spec.mtbf_s);
  if (spec.mtbf_s == 0.0) return;  // disabled: empty trace
  QRGRID_CHECK_MSG(spec.mean_outage_s > 0.0,
                   "outage mean_outage_s must be positive");
  mean_up_s_ = spec.mtbf_s;
  mean_down_s_ = spec.mean_outage_s;
  streams_.reserve(static_cast<std::size_t>(num_clusters));
  for (int c = 0; c < num_clusters; ++c) {
    // Independent per-cluster streams: splitmix64 inside Rng's constructor
    // decorrelates the additively-derived seeds.
    Stream s{Rng(spec.seed +
                 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(c + 1)),
             0.0, /*down=*/false};
    s.next_s = draw_exp(s.rng, mean_up_s_);
    streams_.push_back(std::move(s));
  }
}

double OutageTrace::draw_exp(Rng& rng, double mean) const {
  // Exponential inter-event time, floored away from zero so a down/up
  // pair can never collapse onto the same instant.
  return std::max(-mean * std::log1p(-rng.uniform01()), 1e-9);
}

double OutageTrace::peek_s() const {
  if (cursor_ < events_.size()) return events_[cursor_].time_s;
  double t = kInf;
  for (const Stream& s : streams_) t = std::min(t, s.next_s);
  return t;
}

OutageEvent OutageTrace::pop() {
  if (cursor_ < events_.size()) return events_[cursor_++];
  QRGRID_CHECK_MSG(!streams_.empty(), "pop() on an exhausted outage trace");
  std::size_t best = 0;
  for (std::size_t i = 1; i < streams_.size(); ++i) {
    const Stream& a = streams_[i];
    const Stream& b = streams_[best];
    // The next event of an up stream is a failure, of a down stream a
    // recovery; apply the same (time, up-first, cluster) precedence as
    // the explicit path.
    const OutageEvent ea{a.next_s, static_cast<int>(i), !a.down};
    const OutageEvent eb{b.next_s, static_cast<int>(best), !b.down};
    if (event_before(ea, eb)) best = i;
  }
  Stream& s = streams_[best];
  OutageEvent ev{s.next_s, static_cast<int>(best), /*down=*/!s.down};
  s.down = !s.down;
  s.next_s += draw_exp(s.rng, s.down ? mean_down_s_ : mean_up_s_);
  return ev;
}

std::string OutageTrace::config_key() const {
  // FNV-1a over the defining configuration, not the consumable position:
  // cursor_ and already-consumed generator draws are restored by
  // visit(), whose precondition (same construction inputs) is exactly
  // what this key pins.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffull;
      h *= 1099511628211ull;
    }
  };
  const auto mix_f64 = [&mix](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  };
  mix(events_.size());
  for (const OutageEvent& e : events_) {
    mix_f64(e.time_s);
    mix(static_cast<std::uint64_t>(e.cluster));
    mix(e.down ? 1u : 0u);
  }
  mix_f64(mean_up_s_);
  mix_f64(mean_down_s_);
  mix(streams_.size());
  for (const Stream& s : streams_) {
    // A pristine trace's stream states are a pure function of the seed,
    // so hashing them keys the generator configuration without retaining
    // the spec.
    for (int i = 0; i < 4; ++i) mix(s.rng.word(i));
  }
  std::ostringstream out;
  out << std::hex << h;
  return out.str();
}

}  // namespace qrgrid::sched
