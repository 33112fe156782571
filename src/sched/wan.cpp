#include "sched/wan.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "sched/profiler.hpp"
#include "sched/telemetry.hpp"

namespace qrgrid::sched {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Residual below this fraction of the pool's ADMISSION size is FP dust
/// from progressive filling, not demand: repeated partial drains of a
/// huge pool can leave a remainder bigger than any fixed byte slack yet
/// meaningless relative to the bytes already moved, and such a pool used
/// to stay "live" through extra near-zero-length advance steps.
constexpr double kRetireRelEps = 1e-12;

/// Does an interval that moves `moved` bytes empty a pool holding
/// `bytes` (of `initial` bytes at admission)? Slack is half a BYTE,
/// deliberately byte- not time-scale:
/// (a) when the caller's advance target is this pool's own drain event
/// the two sides differ only by rounding of the same bytes/rate
/// division; (b) an unrelated event landing a hair earlier over-credits
/// at most half a byte rather than rate x clock-epsilon; and (c) no
/// sub-half-byte remainder can survive and stall the event loop with a
/// drain step too small to advance a large virtual clock. For pools
/// above 5e11 bytes the relative term takes over, retiring residuals
/// below 1e-12 of the original pool that the absolute slack would keep
/// alive.
bool covers(double moved, double bytes, double initial) {
  return moved >= bytes - std::max(0.5, kRetireRelEps * initial);
}

/// Min-heap order over pending pool activations; ties break by (flow,
/// pool) so heap mutations are fully deterministic.
struct ActivationAfter {
  template <typename A>
  bool operator()(const A& a, const A& b) const {
    if (a.t_s != b.t_s) return a.t_s > b.t_s;
    if (a.flow != b.flow) return a.flow > b.flow;
    return a.pool > b.pool;
  }
};

}  // namespace

WanFairness wan_fairness_of(const std::string& name) {
  if (name == "equal") return WanFairness::kEqualSplit;
  if (name == "maxmin") return WanFairness::kMaxMin;
  throw Error("unknown WAN fairness '" + name + "' (equal|maxmin)");
}

std::string wan_fairness_name(WanFairness fairness) {
  switch (fairness) {
    case WanFairness::kEqualSplit: return "equal";
    case WanFairness::kMaxMin: return "maxmin";
  }
  return "?";
}

void assign_wan_rates(WanFairness fairness,
                      const std::vector<WanDemand>& demands,
                      const std::vector<double>& capacity_Bps,
                      std::vector<double>& rate_Bps) {
  const std::size_t n = demands.size();
  rate_Bps.assign(n, 0.0);
  // Flow-weighted user counts: fracs sum to 1 per flow per link, so a
  // split flow still counts once (and fills as one session). Unsplit
  // demands contribute exactly 1.0 each, making the sum the same
  // integer-valued double the original per-link C/k kernel divided by.
  std::vector<double> users(capacity_Bps.size(), 0.0);
  for (const WanDemand& d : demands) {
    for (int k = 0; k < d.nlinks; ++k) {
      users[static_cast<std::size_t>(d.links[k])] += d.frac[k];
    }
  }
  if (fairness == WanFairness::kEqualSplit) {
    for (std::size_t i = 0; i < n; ++i) {
      const WanDemand& d = demands[i];
      double rate = kInf;
      for (int k = 0; k < d.nlinks; ++k) {
        const auto l = static_cast<std::size_t>(d.links[k]);
        rate = std::min(rate, capacity_Bps[l] / users[l] * d.frac[k]);
      }
      rate_Bps[i] = rate;
    }
    return;
  }
  // Progressive filling: the tightest link's per-flow share freezes every
  // demand crossing it (at share x its frac); the frozen bandwidth
  // leaves every link those demands touch, and the next-tightest link
  // fills with what is left. Shares are non-decreasing across rounds
  // (the frozen share was the minimum), which is the max-min property;
  // the clamp guards the corner where a demand's fracs differ across
  // its links and FP dust would drive a remainder negative.
  std::vector<double> remaining = capacity_Bps;
  constexpr double kUserEps = 1e-12;
  std::vector<char> frozen(n, 0);
  std::size_t left = n;
  while (left > 0) {
    double share = kInf;
    std::size_t bottleneck = 0;
    bool found = false;
    for (std::size_t l = 0; l < remaining.size(); ++l) {
      if (users[l] <= kUserEps) continue;
      const double s = remaining[l] / users[l];
      if (!found || s < share) {
        share = s;
        bottleneck = l;
        found = true;
      }
    }
    QRGRID_CHECK_MSG(found, "max-min filling lost its demands");
    for (std::size_t i = 0; i < n; ++i) {
      if (frozen[i]) continue;
      const WanDemand& d = demands[i];
      double bottleneck_frac = -1.0;
      for (int k = 0; k < d.nlinks; ++k) {
        if (static_cast<std::size_t>(d.links[k]) == bottleneck) {
          bottleneck_frac = d.frac[k];
        }
      }
      if (bottleneck_frac < 0.0) continue;
      const double rate = share * bottleneck_frac;
      rate_Bps[i] = rate;
      frozen[i] = 1;
      --left;
      for (int k = 0; k < d.nlinks; ++k) {
        const auto l = static_cast<std::size_t>(d.links[k]);
        remaining[l] = std::max(0.0, remaining[l] - rate);
        users[l] = std::max(0.0, users[l] - d.frac[k]);
      }
    }
  }
}

GridWanModel::GridWanModel(int num_clusters, double link_Bps,
                           double backbone_Bps, WanFairness fairness)
    : num_clusters_(num_clusters),
      backbone_Bps_(backbone_Bps),
      trunk_constrained_(std::isfinite(backbone_Bps)),
      fairness_(fairness),
      up_busy_s_(static_cast<std::size_t>(num_clusters), 0.0),
      down_busy_s_(static_cast<std::size_t>(num_clusters), 0.0) {
  QRGRID_CHECK(num_clusters >= 1 && link_Bps > 0.0 && backbone_Bps > 0.0);
  const auto nc = static_cast<std::size_t>(num_clusters);
  capacity_.assign(2 * nc + 1, link_Bps);
  capacity_[2 * nc] = backbone_Bps_;
  link_users_.assign(capacity_.size(), 0);
  dirty_mark_.assign(capacity_.size(), 0);
  comp_mark_.assign(capacity_.size(), 0);
  cluster_load_.assign(nc, 0);
}

int GridWanModel::link_id(const Pool& pool) const {
  switch (pool.link) {
    case Pool::Link::kUplink: return pool.cluster;
    case Pool::Link::kDownlink: return num_clusters_ + pool.cluster;
    case Pool::Link::kBackbone: break;
  }
  return 2 * num_clusters_;
}

int GridWanModel::links_of(const Pool& pool, int out[2]) const {
  int n = 0;
  out[n++] = link_id(pool);
  // Under max-min the trunk is a link the uplink demand crosses, not a
  // parallel pool: a flow bottlenecked at its site link stops charging
  // the backbone for capacity it cannot use. An infinite backbone is
  // never that bottleneck, so it drops out of the constraint graph
  // entirely (allocation-equivalent, and it keeps rebalance components
  // from chaining every flow through one shared link).
  if (pool.link == Pool::Link::kUplink &&
      fairness_ == WanFairness::kMaxMin && trunk_constrained_) {
    out[n++] = 2 * num_clusters_;
  }
  return n;
}

void GridWanModel::mark_dirty(int link) {
  const auto l = static_cast<std::size_t>(link);
  if (dirty_mark_[l] == 0) {
    dirty_mark_[l] = 1;
    dirty_links_.push_back(link);
  }
}

void GridWanModel::activate_pool(PoolRecord& record) {
  record.active = true;
  ++active_pools_;
  int links[2];
  const int nlinks = links_of(record.pool, links);
  for (int k = 0; k < nlinks; ++k) {
    if (link_users_[static_cast<std::size_t>(links[k])]++ == 0) ++busy_links_;
    mark_dirty(links[k]);
  }
}

void GridWanModel::deactivate_pool(PoolRecord& record) {
  record.active = false;
  --active_pools_;
  int links[2];
  const int nlinks = links_of(record.pool, links);
  for (int k = 0; k < nlinks; ++k) {
    if (--link_users_[static_cast<std::size_t>(links[k])] == 0) --busy_links_;
    mark_dirty(links[k]);
  }
}

bool GridWanModel::compute_frac_sensitive(const Flow& flow) const {
  int links_a[2];
  int links_b[2];
  for (std::size_t a = 0; a < flow.pools.size(); ++a) {
    const Pool& pa = flow.pools[a].pool;
    if (pa.bytes <= 0.0) continue;
    const int na = links_of(pa, links_a);
    for (std::size_t b = a + 1; b < flow.pools.size(); ++b) {
      const Pool& pb = flow.pools[b].pool;
      if (pb.bytes <= 0.0) continue;
      const int nb = links_of(pb, links_b);
      for (int i = 0; i < na; ++i) {
        for (int k = 0; k < nb; ++k) {
          if (links_a[i] == links_b[k]) return true;
        }
      }
    }
  }
  return false;
}

void GridWanModel::count_load(const Flow& flow, int delta) {
  bool trunk = false;
  for (std::size_t j = 0; j < flow.pools.size(); ++j) {
    const Pool& pool = flow.pools[j].pool;
    if (pool.bytes <= 0.0) continue;
    // Uplink and backbone bytes cross the trunk, which counts the flow
    // once; so does each cluster, however many of its pools load it.
    trunk = trunk || pool.link != Pool::Link::kDownlink;
    if (pool.link == Pool::Link::kBackbone) continue;
    bool seen = false;
    for (std::size_t i = 0; i < j && !seen; ++i) {
      const Pool& prior = flow.pools[i].pool;
      seen = prior.bytes > 0.0 && prior.link != Pool::Link::kBackbone &&
             prior.cluster == pool.cluster;
    }
    if (!seen) cluster_load_[static_cast<std::size_t>(pool.cluster)] += delta;
  }
  if (trunk) trunk_load_ += delta;
}

template <class Included>
void GridWanModel::collect(Included included, std::vector<PoolRef>& refs,
                           std::vector<WanDemand>& demands) const {
  refs.clear();
  demands.clear();
  // Per-flow per-link byte totals of the included pools, so each
  // demand's frac makes the flow count as ONE user per link however its
  // pools are spread. Reset via the touched list — most flows touch a
  // handful of the model's links.
  if (flow_link_scratch_.size() != capacity_.size()) {
    flow_link_scratch_.assign(capacity_.size(), 0.0);
  }
  std::vector<double>& flow_link_bytes = flow_link_scratch_;
  std::vector<int>& touched = touched_scratch_;
  // flows_ is in admission (id) order, so the rate rule's floating-point
  // accumulation order (and thus every rate) is the same whatever has
  // retired.
  for (std::size_t at = 0; at < flows_.size(); ++at) {
    const Flow& flow = flows_[at];
    if (flow.undrained == 0) continue;
    touched.clear();
    for (const PoolRecord& record : flow.pools) {
      if (!included(record)) continue;
      int links[2];
      const int nlinks = links_of(record.pool, links);
      for (int k = 0; k < nlinks; ++k) {
        // Exact-zero here is a MEMBERSHIP marker, not drain arithmetic:
        // the touched list resets entries to literal 0.0 below, so the
        // comparison is exact by construction. Near-empty pools are
        // retired by the relative epsilon in covers(), never by this
        // check.
        if (flow_link_bytes[static_cast<std::size_t>(links[k])] == 0.0) {
          touched.push_back(links[k]);
        }
        flow_link_bytes[static_cast<std::size_t>(links[k])] +=
            record.pool.bytes;
      }
    }
    for (std::size_t j = 0; j < flow.pools.size(); ++j) {
      if (!included(flow.pools[j])) continue;
      const Pool& pool = flow.pools[j].pool;
      WanDemand d;
      d.nlinks = links_of(pool, d.links);
      for (int k = 0; k < d.nlinks; ++k) {
        // x / x == 1.0 exactly for a flow's only pool on a link, which
        // is what keeps the default equal-split path bit-identical to
        // the original per-link C/k kernel.
        d.frac[k] =
            pool.bytes /
            flow_link_bytes[static_cast<std::size_t>(d.links[k])];
      }
      refs.push_back({static_cast<int>(at), static_cast<int>(j)});
      demands.push_back(d);
    }
    for (const int l : touched) {
      flow_link_bytes[static_cast<std::size_t>(l)] = 0.0;
    }
  }
}

void GridWanModel::refresh(double now_s) {
  // Pop every activation due by now_s into the active set. The calendar
  // is a min-heap on t_s, so once the top is in the future, every entry
  // is — popping dead future entries later can never uncover a due one.
  while (!activations_.empty() && activations_.front().t_s <= now_s) {
    const Activation top = activations_.front();
    std::pop_heap(activations_.begin(), activations_.end(),
                  ActivationAfter{});
    activations_.pop_back();
    const std::size_t at = find(top.flow);
    if (at == flows_.size()) continue;  // retired before activating
    PoolRecord& record = flows_[at].pools[static_cast<std::size_t>(top.pool)];
    if (record.pool.bytes <= 0.0 || record.active) continue;
    activate_pool(record);
    ++rebalance_events_;
  }
  if (!dirty_links_.empty()) rebalance(now_s);
}

void GridWanModel::rebalance(double now_s) {
  // Seed the component from the dirty links; the marks move to
  // comp_mark_ so the dirty list can restart empty.
  comp_links_.clear();
  for (const int l : dirty_links_) {
    const auto li = static_cast<std::size_t>(l);
    dirty_mark_[li] = 0;
    if (comp_mark_[li] == 0) {
      comp_mark_[li] = 1;
      comp_links_.push_back(l);
    }
  }
  dirty_links_.clear();
  if (active_pools_ == 0) {
    // Nothing left to rate: the last active pool drained or retired.
    for (const int l : comp_links_) comp_mark_[static_cast<std::size_t>(l)] = 0;
    comp_links_.clear();
    return;
  }
  PhaseScope prof(profiler_, ProfilePhase::kWanRebalance);
  // Close over flows transitively sharing links: a pool with ANY link in
  // the component drags all its links in (under max-min every uplink
  // pool crosses the trunk, so uplink-side events close over the
  // backbone component quickly; downlink pools stay their own islands,
  // and under equal-split, where every pool crosses one link, so does
  // every component).
  bool grew = true;
  while (grew) {
    grew = false;
    for (const Flow& flow : flows_) {
      if (flow.undrained == 0) continue;
      for (const PoolRecord& record : flow.pools) {
        if (!record.active) continue;
        int links[2];
        const int nlinks = links_of(record.pool, links);
        bool any = false;
        bool all = true;
        for (int k = 0; k < nlinks; ++k) {
          if (comp_mark_[static_cast<std::size_t>(links[k])] != 0) {
            any = true;
          } else {
            all = false;
          }
        }
        if (any && !all) {
          for (int k = 0; k < nlinks; ++k) {
            const auto li = static_cast<std::size_t>(links[k]);
            if (comp_mark_[li] == 0) {
              comp_mark_[li] = 1;
              comp_links_.push_back(links[k]);
            }
          }
          grew = true;
        }
      }
    }
  }
  // Collect the component's demands in admission order — the
  // identical subsequence, frac arithmetic, and accumulation order the
  // global demand view would hand the rate rule, so the restricted fill
  // below reproduces the global fill's rates bit-for-bit on them. By the
  // closure invariant a pool with its first link marked has all marked.
  collect(
      [this](const PoolRecord& record) {
        return record.active &&
               comp_mark_[static_cast<std::size_t>(link_id(record.pool))] != 0;
      },
      comp_refs_, comp_demands_);
  ++rebalance_recomputes_;
  rebalance_links_touched_ += static_cast<std::uint64_t>(comp_links_.size());
  if (!comp_refs_.empty()) {
    assign_wan_rates(fairness_, comp_demands_, capacity_, comp_rates_);
    for (std::size_t k = 0; k < comp_refs_.size(); ++k) {
      record_of(comp_refs_[k]).rate_Bps = comp_rates_[k];
    }
    int comp_busy = 0;
    for (const int l : comp_links_) {
      if (link_users_[static_cast<std::size_t>(l)] > 0) ++comp_busy;
    }
    if (busy_links_ > 0 && comp_busy == busy_links_) ++rebalance_full_refills_;
  }
  if (oracle_check_) {
    // Differential oracle: the historical global fill over the full
    // activated view must agree with every cached rate — the component
    // argument says exactly, not approximately.
    collect(
        [now_s](const PoolRecord& record) {
          return record.pool.bytes > 0.0 && record.pool.activation_s <= now_s;
        },
        refs_scratch_, demands_scratch_);
    assign_wan_rates(fairness_, demands_scratch_, capacity_, rates_scratch_);
    QRGRID_CHECK_MSG(
        refs_scratch_.size() == static_cast<std::size_t>(active_pools_),
        "incremental active set diverged from the time-based view");
    for (std::size_t k = 0; k < refs_scratch_.size(); ++k) {
      const double cached = record_of(refs_scratch_[k]).rate_Bps;
      max_oracle_error_ = std::max(max_oracle_error_,
                                   std::abs(cached - rates_scratch_[k]));
    }
  }
  for (const int l : comp_links_) comp_mark_[static_cast<std::size_t>(l)] = 0;
  comp_links_.clear();
}

int GridWanModel::admit(double now_s, std::vector<Pool> pools) {
  QRGRID_CHECK_MSG(next_flow_id_ < std::numeric_limits<int>::max(),
                   "WAN flow ids exhausted");
  Flow flow;
  flow.pools.reserve(pools.size());
  for (const Pool& pool : pools) {
    QRGRID_CHECK(pool.bytes >= 0.0);
    QRGRID_CHECK(pool.link == Pool::Link::kBackbone ||
                 (pool.cluster >= 0 && pool.cluster < num_clusters_));
    // Max-min carries the trunk constraint on the uplink demands that
    // cross it; a parallel backbone pool would double-count them. An
    // infinite trunk never binds under either rule, and a pool on it
    // would drain at an infinite rate.
    if (pool.link == Pool::Link::kBackbone &&
        (fairness_ == WanFairness::kMaxMin || !trunk_constrained_)) {
      continue;
    }
    if (pool.bytes > 0.0) ++flow.undrained;
    PoolRecord record;
    record.pool = pool;
    record.initial_bytes = pool.bytes;
    flow.pools.push_back(record);
  }
  flow.drained_at_s = now_s;  // stands until a pool actually drains later
  const int id = next_flow_id_++;
  flow.id = id;
  // Monotone ids keep flows_ sorted by id: admission order, which
  // collect() depends on for byte-identical rate arithmetic.
  flows_.push_back(std::move(flow));
  peak_live_ = std::max(peak_live_, static_cast<int>(flows_.size()));
  Flow& admitted = flows_.back();
  admitted.frac_sensitive = compute_frac_sensitive(admitted);
  count_load(admitted, +1);
  double bytes = 0.0;
  for (std::size_t j = 0; j < admitted.pools.size(); ++j) {
    PoolRecord& record = admitted.pools[j];
    bytes += record.pool.bytes;
    if (record.pool.bytes <= 0.0) continue;
    if (record.pool.activation_s <= now_s) {
      activate_pool(record);
    } else {
      activations_.push_back(
          {record.pool.activation_s, id, static_cast<int>(j)});
      std::push_heap(activations_.begin(), activations_.end(),
                     ActivationAfter{});
    }
  }
  if (admitted.undrained > 0) ++rebalance_events_;
  if (tracer_ != nullptr) {
    tracer_->emit(TraceKind::kWanFlowOpen, now_s, -1, bytes,
                  static_cast<double>(admitted.pools.size()), id);
  }
  return id;
}

void GridWanModel::advance(double from_s, double to_s) {
  const double dt = to_s - from_s;
  if (dt <= 0.0) return;

  int pools_drained = 0;
  // Pull due activations in, repair rates if any link is dirty, then
  // drain against the CACHED per-pool rates — bit-identical to the
  // historical recompute-at-every-step values.
  refresh(from_s);
  const auto nc = static_cast<std::size_t>(num_clusters_);
  for (std::size_t c = 0; c < nc; ++c) {
    if (link_users_[c] > 0) up_busy_s_[c] += dt;
    if (link_users_[nc + c] > 0) down_busy_s_[c] += dt;
  }
  // With an unconstrained trunk no demand maps onto the backbone link,
  // so fall back to the trunk-load counter for the busy statistic.
  if (link_users_[2 * nc] > 0 || (!trunk_constrained_ && trunk_load_ > 0)) {
    backbone_busy_s_ += dt;
  }

  for (Flow& flow : flows_) {
    if (flow.undrained == 0) continue;
    bool flow_active = false;
    int flow_drained = 0;
    for (PoolRecord& record : flow.pools) {
      if (!record.active) continue;
      flow_active = true;
      Pool& pool = record.pool;
      const double moved = record.rate_Bps * dt;
      if (covers(moved, pool.bytes, record.initial_bytes)) {
        // Partial drains leave bytes in a pool, so the load membership
        // changes only here: uncount it before the step's first drain.
        if (flow_drained++ == 0) count_load(flow, -1);
        record.moved_bytes += pool.bytes;
        pool.bytes = 0.0;
        if (--flow.undrained == 0) flow.drained_at_s = to_s;
        deactivate_pool(record);
        ++rebalance_events_;
      } else {
        record.moved_bytes += moved;
        pool.bytes -= moved;
      }
    }
    if (flow_drained > 0) {
      count_load(flow, +1);
      pools_drained += flow_drained;
    }
    if (flow.frac_sensitive) {
      if (flow_active) {
        // Link-sharing pools: this flow's byte movement shifted its
        // per-link fracs, so its remaining active links must re-fill
        // even though no pool drained or activated.
        for (const PoolRecord& record : flow.pools) {
          if (!record.active) continue;
          int links[2];
          const int nlinks = links_of(record.pool, links);
          for (int k = 0; k < nlinks; ++k) mark_dirty(links[k]);
        }
      }
      if (flow_drained > 0) {
        flow.frac_sensitive = compute_frac_sensitive(flow);
      }
    }
  }
  if (tracer_ != nullptr) {
    // The share structure changes when a pool runs dry or a pending pool
    // activates inside the step — the rate rule re-splits either way.
    int pools_activated = 0;
    for (const Flow& flow : flows_) {
      for (const PoolRecord& record : flow.pools) {
        const Pool& pool = record.pool;
        if (pool.bytes > 0.0 && pool.activation_s > from_s &&
            pool.activation_s <= to_s) {
          ++pools_activated;
        }
      }
    }
    if (pools_drained > 0 || pools_activated > 0) {
      tracer_->emit(TraceKind::kWanRebalance, to_s, -1, pools_drained,
                    pools_activated);
    }
  }
}

double GridWanModel::next_event_s(double now_s) const {
  // Lazy maintenance from a const query: activations due by now_s and
  // any pending rebalance are absorbed here, which is also what
  // coalesces a same-instant burst of opens/retires/drains into ONE
  // recompute — the service consults the horizon once per step.
  const_cast<GridWanModel*>(this)->refresh(now_s);
  // At a huge rate, clock rounding in advance() can leave more bytes
  // than covers() forgives yet drain them in less than one ulp of now_s;
  // the next representable instant is the earliest step that moves them.
  const double soonest = std::nextafter(now_s, kInf);
  double next = kInf;
  for (const Flow& flow : flows_) {
    if (flow.undrained == 0) continue;
    for (const PoolRecord& record : flow.pools) {
      if (!record.active) continue;
      const double rate = record.rate_Bps;
      if (rate > 0.0) {
        next = std::min(next,
                        std::max(soonest, now_s + record.pool.bytes / rate));
      }
    }
  }
  // Pending activations change the share structure too: the calendar's
  // top, after lazily shedding entries of retired flows (refresh above
  // already consumed every instant up to now_s).
  while (!activations_.empty() &&
         find(activations_.front().flow) == flows_.size()) {
    std::pop_heap(activations_.begin(), activations_.end(),
                  ActivationAfter{});
    activations_.pop_back();
  }
  if (!activations_.empty()) next = std::min(next, activations_.front().t_s);
  return next;
}

std::size_t GridWanModel::find(int id) const {
  // A branch-free lower bound: every step looks up each running attempt's
  // flow, and std::lower_bound mispredicts about half of its probes (4x
  // the cost of this loop at 40 live flows, and slower than a hash map).
  if (flows_.empty()) return 0;
  std::size_t lo = 0;
  for (std::size_t len = flows_.size(); len > 1; len -= len / 2) {
    const std::size_t half = len / 2;
    lo = flows_[lo + half].id < id ? lo + half : lo;
  }
  lo += flows_[lo].id < id ? 1 : 0;
  return lo < flows_.size() && flows_[lo].id == id ? lo : flows_.size();
}

bool GridWanModel::drained(int flow) const {
  const std::size_t at = find(flow);
  QRGRID_CHECK(at < flows_.size());
  return flows_[at].undrained == 0;
}

double GridWanModel::drained_at_s(int flow) const {
  const std::size_t at = find(flow);
  QRGRID_CHECK(at < flows_.size());
  return flows_[at].undrained == 0 ? flows_[at].drained_at_s : kInf;
}

void GridWanModel::drain_estimates_s(double now_s,
                                     const std::vector<int>& flows,
                                     std::vector<double>& out) const {
  // One shared pessimistic view (membership: bytes > 0, activation
  // ignored), estimates gathered per live flow, then projected onto the
  // requested ids.
  estimates_scratch_.resize(flows_.size());
  for (std::size_t at = 0; at < flows_.size(); ++at) {
    const Flow& f = flows_[at];
    estimates_scratch_[at] = f.undrained == 0 ? f.drained_at_s : now_s;
  }
  collect([](const PoolRecord& record) { return record.pool.bytes > 0.0; },
          est_refs_, est_demands_);
  assign_wan_rates(fairness_, est_demands_, capacity_, est_rates_);
  for (std::size_t k = 0; k < est_refs_.size(); ++k) {
    const auto at = static_cast<std::size_t>(est_refs_[k].flow);
    const Pool& pool =
        flows_[at].pools[static_cast<std::size_t>(est_refs_[k].pool)].pool;
    double& est = estimates_scratch_[at];
    if (est_rates_[k] <= 0.0) {
      est = kInf;
      continue;
    }
    est = std::max(est, std::max(now_s, pool.activation_s) +
                            pool.bytes / est_rates_[k]);
  }
  out.assign(flows.size(), 0.0);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const std::size_t at = find(flows[i]);
    if (at < flows_.size()) out[i] = estimates_scratch_[at];  // retired: 0
  }
}

void GridWanModel::retire(int flow, std::vector<long long>& egress_bytes,
                          std::vector<long long>& ingress_bytes) {
  const std::size_t at = find(flow);
  QRGRID_CHECK(at < flows_.size());  // live exactly once
  Flow& f = flows_[at];
  if (tracer_ != nullptr) {
    double moved = 0.0;
    for (const PoolRecord& record : f.pools) moved += record.moved_bytes;
    tracer_->emit(TraceKind::kWanFlowRetire, tracer_->now_s(), -1, moved,
                  f.undrained == 0 ? 1.0 : 0.0, flow);
  }
  count_load(f, -1);
  for (PoolRecord& record : f.pools) {
    const Pool& pool = record.pool;
    const auto moved = static_cast<long long>(record.moved_bytes + 0.5);
    switch (pool.link) {
      case Pool::Link::kUplink:
        egress_bytes[static_cast<std::size_t>(pool.cluster)] += moved;
        break;
      case Pool::Link::kDownlink:
        ingress_bytes[static_cast<std::size_t>(pool.cluster)] += moved;
        break;
      case Pool::Link::kBackbone:
        break;  // the trunk is shared accounting, not a byte sink
    }
    if (record.active) deactivate_pool(record);
  }
  if (f.undrained > 0) ++rebalance_events_;
  // Calendar entries of the flow die lazily: find() no longer sees it.
  flows_.erase(flows_.begin() + static_cast<std::ptrdiff_t>(at));
}

// Both load signals are O(1) reads of counters maintained at admit /
// pool-drain / retire (count_load) — the per-step metrics sampling used
// to pay an O(live x pools) scan per cluster.
int GridWanModel::backbone_load() const { return trunk_load_; }

int GridWanModel::load_score(int cluster) const {
  return cluster_load_[static_cast<std::size_t>(cluster)];
}

void GridWanModel::rebuild_after_load() {
  const auto nc = static_cast<std::size_t>(num_clusters_);
  const auto in = [](int i, std::size_t n) {
    return i >= 0 && static_cast<std::size_t>(i) < n;
  };
  const auto check = [](bool ok, const char* what) {
    QRGRID_CHECK_MSG(ok, "corrupt WAN snapshot: " << what);
  };
  check(up_busy_s_.size() == nc && down_busy_s_.size() == nc, "busy sizes");
  // admit() refuses to pass INT_MAX; a negative counter was never issued.
  check(next_flow_id_ >= 0 && peak_live_ >= 0, "negative counter");
  for (const int l : dirty_links_) check(in(l, capacity_.size()), "link");
  // Derive the per-link user counts, load counters and the calendar from
  // the restored flows.
  link_users_.assign(capacity_.size(), 0);
  busy_links_ = 0;
  active_pools_ = 0;
  cluster_load_.assign(nc, 0);
  trunk_load_ = 0;
  activations_.clear();
  int prev_id = -1;
  for (Flow& f : flows_) {
    // find() binary-searches, and a repeated flow would drain twice per
    // step.
    check(prev_id < f.id && f.id < next_flow_id_, "flow id order");
    prev_id = f.id;
    f.undrained = 0;
    for (std::size_t j = 0; j < f.pools.size(); ++j) {
      const PoolRecord& record = f.pools[j];
      const Pool& p = record.pool;
      check(p.link <= Pool::Link::kBackbone &&
                (p.link == Pool::Link::kBackbone || in(p.cluster, nc)) &&
                !std::isnan(p.activation_s),
            "pool link, cluster or activation");
      // Byte counts drain and sum into the retired totals, and a NaN
      // never drains.
      for (const double b :
           {p.bytes, record.moved_bytes, record.initial_bytes}) {
        check(std::isfinite(b) && b >= 0.0, "pool bytes");
      }
      // A pool stays active until it runs dry: an active empty pool
      // would drain a second time and miscount the flow's undrained
      // pools.
      check(!record.active || p.bytes > 0.0, "active pool with no bytes");
      if (p.bytes <= 0.0) continue;
      ++f.undrained;
      if (!record.active) {
        activations_.push_back({p.activation_s, f.id, static_cast<int>(j)});
        continue;
      }
      ++active_pools_;
      int links[2];
      const int nlinks = links_of(p, links);
      for (int k = 0; k < nlinks; ++k) {
        if (link_users_[static_cast<std::size_t>(links[k])]++ == 0) {
          ++busy_links_;
        }
      }
    }
    f.frac_sensitive = compute_frac_sensitive(f);
    count_load(f, +1);
  }
  std::make_heap(activations_.begin(), activations_.end(), ActivationAfter{});
  dirty_mark_.assign(capacity_.size(), 0);
  for (const int l : dirty_links_) dirty_mark_[static_cast<std::size_t>(l)] = 1;
  // The cached rates are the global fill over the active pools wherever
  // no dirty link reaches (the component fills equal it bit for bit), and
  // the next refresh refills the dirty components before a rate is read.
  // Not a recompute: the wan.rebalance.* counters stay as written.
  collect([](const PoolRecord& record) { return record.active; },
          refs_scratch_, demands_scratch_);
  assign_wan_rates(fairness_, demands_scratch_, capacity_, rates_scratch_);
  for (std::size_t k = 0; k < refs_scratch_.size(); ++k) {
    record_of(refs_scratch_[k]).rate_Bps = rates_scratch_[k];
  }
}

}  // namespace qrgrid::sched
