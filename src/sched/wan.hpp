// Shared-WAN contention engine for the grid job service.
//
// The paper's scarce resource is the wide-area network: TSQR wins over
// ScaLAPACK precisely because it sends almost nothing across the slow
// inter-site links. A job service that replays every job against a
// PRIVATE DesEngine hands each of ten concurrent jobs the full dark
// fiber, which quietly deletes the scarcity the paper is about. This
// model restores it: one grid-wide object owns the WAN horizons —
//
//   uplink(c)    what cluster c can push onto the wide area per second
//   downlink(c)  what cluster c can pull off the wide area per second
//   backbone     the shared trunk every inter-site byte crosses once
//
// and every in-flight attempt registers a *flow*: per-link byte pools
// pro-rated from its cached replay (per-cluster WAN counters plus the
// per-cluster first-transfer instants the DesEngine keeps), each pool
// activating at the point of the replay timeline where the schedule
// first touches that link. TSQR's WAN phase sits at the END of the run
// (local factorizations first, R-factor reduction last), and the pools
// reproduce that: a freshly started job does not contend yet.
//
// HOW the activated pools share the links is the WanFairness rule that
// assign_wan_rates() applies:
//
//   equal-split (WanFairness::kEqualSplit, the regression baseline) —
//     every pool is a demand on exactly one link; a link with capacity C
//     and k activated pools gives each C/k. The trunk is modeled as one
//     extra pool per flow carrying its aggregate egress once. This is
//     the PR-3 kernel, byte-identical.
//
//   max-min (WanFairness::kMaxMin) — progressive filling over multi-link
//     demands: an uplink pool crosses {uplink(c), backbone}, so the
//     trunk is a real shared constraint instead of a parallel pool, and
//     a flow bottlenecked on one link returns its unused share on every
//     other link it crosses — the classic water-filling allocation.
//     Separate backbone pools are not admitted in this mode (the trunk
//     constraint lives on the uplink demands that actually cross it).
//
// An infinite backbone is an unconstrained core under both rules: it
// never binds, so it admits no backbone pools and no demand crosses it.
//
// Rates are piecewise constant between events (a pool activating or
// running dry) under either rule, so the service can advance its
// virtual clock to the next event exactly — no time-stepping, no
// tolerance drift.
//
// An attempt may complete only when every one of its pools has drained;
// its finish time becomes max(replay end, last drain). In isolation a
// flow's pools drain no later than the replay end (the replay already
// booked those bytes on a full-capacity horizon), so an uncontended run
// reproduces the cached replay times byte-for-byte; under contention
// finish times stretch, monotonically in the load.
//
// INCREMENTAL RATE MAINTENANCE. Both rules run through one engine: the
// model never re-fills every live flow at every consultation. It keeps
// the allocation cached per pool and repairs it lazily: admissions,
// retirements, drains, and activations mark the links whose flow set
// changed dirty; the next consultation (advance / next_event_s) closes
// the dirty set over flows that share links with it — the *bottleneck
// component* — and re-runs the SAME rate assignment restricted to that
// component's demands. Because a component link's users and residuals
// receive exactly the terms they receive in the global fill (all
// demands crossing a component link are component demands, in the same
// admission order), the component-local fill is bit-identical to the
// global one under either rule, so fixed-seed runs reproduce the historical
// full-recompute traces byte-for-byte. Rates read only fracs and
// capacities — never pool bytes — so cached rates stay exact across
// byte drains; flows whose pools can share a link (frac_sensitive) are
// the one exception and re-dirty their links as their bytes move.
// Deferring the repair to the next consultation also coalesces
// same-instant open/retire/drain bursts into ONE rebalance. The
// wan.rebalance.{events,recomputes,links_touched,full_refills} counters
// and the wan-rebalance profiler phase expose the machinery;
// set_rate_oracle_check() keeps the global fill as a differential
// oracle the cached rates are checked against after every recompute.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace qrgrid::sched {

class ServiceTracer;
class PhaseProfiler;

/// Which rate rule a GridWanModel (or ServiceOptions) applies.
/// One byte wide: that is its snapshot encoding.
enum class WanFairness : std::uint8_t {
  kEqualSplit,  ///< per-link C/k fair share (PR-3 baseline)
  kMaxMin,      ///< progressive-filling max-min over multi-link demands
};
/// Parses "equal" | "maxmin"; throws qrgrid::Error otherwise.
WanFairness wan_fairness_of(const std::string& name);
std::string wan_fairness_name(WanFairness fairness);

/// One activated, undrained pool as the rate rule sees it: the links it
/// crosses (indices into the model's capacity table — a site link, plus
/// the trunk for a max-min uplink pool) and its per-link share of the
/// owning flow's bytes there. Fairness is per FLOW, not per pool: a flow
/// with several pools on one link (the uplinks of a multi-cluster
/// placement all crossing the trunk) contributes its fracs — which sum
/// to 1 — instead of one full user per pool, so spreading never
/// multiplies a flow's share. A flow's only pool on a link carries frac
/// exactly 1.0, which keeps the equal-split arithmetic bit-identical to
/// the PR-3 kernel.
struct WanDemand {
  int links[2] = {-1, -1};
  double frac[2] = {1.0, 1.0};  ///< flow-share per crossed link
  int nlinks = 0;
};

/// Sets `rate_Bps` (resized parallel to `demands`) to every demand's
/// drain rate given per-link capacities. Stateless and deterministic —
/// the model calls it at every rebalance and the service relies on
/// byte-identical replays. Link users are flow-weighted (a demand adds
/// its frac to each link it crosses), then:
///   kEqualSplit — a demand's rate is the minimum over its links of
///     (capacity / users) x its frac there; with the single-link, frac-1
///     demands the model builds by default, exactly per-link C/k.
///   kMaxMin — progressive filling: repeatedly find the tightest link
///     (smallest remaining-capacity / unfrozen users), grant that share
///     to every demand crossing it, freeze them, and subtract the
///     granted bandwidth from every link they cross.
void assign_wan_rates(WanFairness fairness,
                      const std::vector<WanDemand>& demands,
                      const std::vector<double>& capacity_Bps,
                      std::vector<double>& rate_Bps);

class GridWanModel {
 public:
  /// One link-level component of an attempt's WAN demand.
  struct Pool {
    enum class Link : std::uint8_t { kUplink, kDownlink, kBackbone };
    Link link = Link::kBackbone;
    int cluster = -1;           ///< master cluster id; -1 for the backbone
    double bytes = 0.0;         ///< remaining demand on this link
    double activation_s = 0.0;  ///< absolute instant the demand appears

    template <class V>
    void visit(V& v) { v(link, cluster, bytes, activation_s); }
  };

  GridWanModel(int num_clusters, double link_Bps, double backbone_Bps,
               WanFairness fairness = WanFairness::kEqualSplit);

  /// Admits one attempt's demand and returns its flow id. A flow with no
  /// pools (a single-cluster job) is born drained at `now_s`. kBackbone
  /// pools are dropped under max-min fairness (the trunk constraint lives
  /// on the uplink demands crossing it) and on an infinite trunk (an
  /// unconstrained core never binds).
  int admit(double now_s, std::vector<Pool> pools);

  /// Drains every activated pool from `from_s` to `to_s` under the
  /// current rates. The caller must not step across an event: `to_s`
  /// may not exceed next_event_s(from_s).
  void advance(double from_s, double to_s);

  /// Earliest future instant the share structure changes — a pending
  /// pool activates or an activated pool runs dry at current rates. A
  /// drain is never reported before the next representable instant
  /// after `now_s`, so a residual too small to move a large clock still
  /// gets a step that empties it. +infinity when nothing undrained is in
  /// flight.
  double next_event_s(double now_s) const;

  bool drained(int flow) const;
  /// Instant the flow's last pool ran dry (its admit time when it was
  /// born drained); +infinity while a pool still has bytes.
  double drained_at_s(int flow) const;

  /// Planning estimates of when each requested flow's last pool will run
  /// dry, assuming pessimistic shares: every undrained pool in the model
  /// (activated or not) is counted a user on its links, and each of the
  /// flow's pools then drains from max(now, activation) at that rate.
  /// Not a proof — admissions after `now_s` can still stretch it — but
  /// what a WAN-priced EASY shadow plans with. One shared demand view,
  /// recomputed per call, serves every flow, since shadow_time prices
  /// all running flows at the same instant. `out` is filled parallel to
  /// `flows`: drained flows report drained_at_s, retired flows 0.
  /// Callers pass the flows they hold, so the cost scales with
  /// in-flight attempts, never with flows ever admitted.
  void drain_estimates_s(double now_s, const std::vector<int>& flows,
                         std::vector<double>& out) const;

  /// Retires the flow (completion or kill) and adds the bytes it
  /// actually moved to the per-cluster accumulators. Backbone pools are
  /// pure contention accounting and charge nothing.
  void retire(int flow, std::vector<long long>& egress_bytes,
              std::vector<long long>& ingress_bytes);

  /// Placement preference signal: live flows with undrained demand on
  /// this cluster's uplink or downlink, pending activations included —
  /// they will contend before a job placed now reaches its own WAN
  /// phase.
  int load_score(int cluster) const;
  /// Live flows with undrained demand that crosses the trunk (uplink or
  /// explicit backbone pools, pending activations included) — the
  /// admission-pricing analogue of load_score for the shared backbone.
  int backbone_load() const;
  double backbone_Bps() const { return backbone_Bps_; }

  /// Observability seam: when set, the model emits kWanFlowOpen /
  /// kWanFlowRetire / kWanRebalance events (sched/telemetry.hpp) as
  /// flows are admitted, retired, and as the share structure changes.
  /// Null (the default) records nothing and costs nothing.
  void set_tracer(ServiceTracer* tracer) { tracer_ = tracer; }
  /// When set, component recomputes of the incremental rate engine are
  /// timed under ProfilePhase::kWanRebalance. Null costs nothing.
  void set_profiler(PhaseProfiler* profiler) { profiler_ = profiler; }

  /// Incremental rate engine telemetry (both rules): structural events
  /// absorbed (admissions/retirements with undrained demand, pool
  /// activations, pool drains), component recomputes those events
  /// coalesced into, links touched summed over recomputes, and
  /// recomputes whose component spanned every busy link (the global-
  /// fill fallback). full_refills << events is the scaling claim.
  std::uint64_t rebalance_events() const { return rebalance_events_; }
  std::uint64_t rebalance_recomputes() const { return rebalance_recomputes_; }
  std::uint64_t rebalance_links_touched() const {
    return rebalance_links_touched_;
  }
  std::uint64_t rebalance_full_refills() const {
    return rebalance_full_refills_;
  }

  /// Differential-oracle mode (tests): after every component recompute,
  /// re-run the GLOBAL progressive fill over the full demand view and
  /// accumulate the worst |cached - oracle| rate divergence. The
  /// component argument says the divergence is exactly 0.0; the suite
  /// gates at 1e-12.
  void set_rate_oracle_check(bool on) { oracle_check_ = on; }
  double max_oracle_rate_error() const { return max_oracle_error_; }

  /// Seconds the link carried at least one activated, undrained pool.
  double uplink_busy_s(int cluster) const {
    return up_busy_s_[static_cast<std::size_t>(cluster)];
  }
  double downlink_busy_s(int cluster) const {
    return down_busy_s_[static_cast<std::size_t>(cluster)];
  }
  double backbone_busy_s() const { return backbone_busy_s_; }

  /// Flows admitted and not yet retired — what every per-step walk
  /// scales with (the `wan.live_flows` gauge). Bounded by in-flight
  /// attempts however many flows the run ever admits.
  int live_flows() const { return static_cast<int>(flows_.size()); }
  int peak_live_flows() const { return peak_live_; }

  /// Snapshot field list (sched/snapshot.hpp): the live drain state —
  /// the live flows in id order (id, pool records, drain instant), the
  /// id counter, the busy-second accumulators, the dirty-link list (a
  /// pending rebalance fires on resume exactly as it would have), and
  /// counters (so resumed runs reproduce the wan.rebalance.* gauges
  /// byte-identically). The rest is derived on load: the cached rates
  /// (one global fill over the active pools, equal to the component
  /// fills wherever no dirty link reaches; the next refresh refills the
  /// dirty components before a rate is read), undrained counts, frac
  /// sensitivity, link user counts, load counters, and the activation
  /// calendar (every pending pool: bytes left, not active). Loading must
  /// target a model freshly constructed with the same topology/capacity
  /// configuration (the cluster count and fairness travel as tags only).
  template <class V>
  void visit(V& v) {
    v.expect(num_clusters_, "WAN cluster count");
    v.expect(fairness_, "WAN fairness");
    v(flows_, next_flow_id_, peak_live_, up_busy_s_, down_busy_s_,
      backbone_busy_s_, dirty_links_, rebalance_events_,
      rebalance_recomputes_, rebalance_links_touched_,
      rebalance_full_refills_);
    if constexpr (V::kLoading) rebuild_after_load();
  }

 private:
  /// One admitted pool and its drain state.
  struct PoolRecord {
    Pool pool;  ///< as admitted; pool.bytes is what is left
    double moved_bytes = 0.0;
    /// Admission-time size, the scale of the relative drain-retirement
    /// epsilon (covers() in wan.cpp).
    double initial_bytes = 0.0;
    /// Incremental rate engine state: the cached drain rate from the last
    /// component recompute (derived on load), and whether the pool is in
    /// the activated-undrained set those rates cover.
    double rate_Bps = 0.0;
    bool active = false;

    template <class V>
    void visit(V& v) { v(pool, moved_bytes, initial_bytes, active); }
  };
  struct Flow {
    int id = -1;  ///< public flow id, never reused
    std::vector<PoolRecord> pools;
    double drained_at_s = 0.0;
    int undrained = 0;  ///< pools with bytes left
    /// True when two undrained pools of this flow can share a link, so
    /// byte drains move the flow's per-link fracs: cached rates must be
    /// refreshed as its bytes move, not only on structural changes. (A
    /// plain 2-site TSQR flow — one uplink, one downlink pool — is NOT
    /// sensitive; its fracs are exactly 1.0.)
    bool frac_sensitive = false;

    template <class V>
    void visit(V& v) { v(id, pools, drained_at_s); }
  };
  /// One entry of a demand view: which flow's (position in flows_)
  /// which pool each rate belongs to.
  struct PoolRef {
    int flow = 0;
    int pool = 0;
  };
  /// Calendar entry: the instant a pending pool's demand appears. Keyed
  /// by public flow id so retirement invalidates entries lazily.
  struct Activation {
    double t_s = 0.0;
    int flow = -1;
    int pool = -1;
  };

  /// Link ids in the capacity table: [0, C) uplinks, [C, 2C) downlinks,
  /// 2C the backbone.
  int link_id(const Pool& pool) const;
  /// Links the pool crosses under the active fairness mode.
  int links_of(const Pool& pool, int out[2]) const;
  /// Position of live flow `id` in flows_ (binary search: ids are
  /// sorted); flows_.size() once it retired.
  std::size_t find(int id) const;
  /// The pool record a demand-view entry names.
  PoolRecord& record_of(const PoolRef& ref) {
    return flows_[static_cast<std::size_t>(ref.flow)]
        .pools[static_cast<std::size_t>(ref.pool)];
  }
  /// The one demand-view collector: every live flow's pools whose
  /// record `included(record)` admits, in admission order, each with its
  /// per-flow per-link fracs over the included pools. Serves the
  /// rebalance component, the oracle's time-based view, the load-time
  /// fill, and the pessimistic estimate basis.
  template <class Included>
  void collect(Included included, std::vector<PoolRef>& refs,
               std::vector<WanDemand>& demands) const;

  /// --- incremental rate engine ---
  /// Pops every pending activation at or before `now_s` into the active
  /// set, then repairs the cached rates if any link is dirty. Invoked
  /// from const queries via const_cast: lazy maintenance, logically
  /// const.
  void refresh(double now_s);
  /// Closes the dirty links over flows sharing links with them (the
  /// bottleneck component) and re-runs the rate assignment restricted
  /// to that component's demands — bit-identical to the global fill.
  void rebalance(double now_s);
  void activate_pool(PoolRecord& record);
  void deactivate_pool(PoolRecord& record);
  void mark_dirty(int link);
  bool compute_frac_sensitive(const Flow& flow) const;
  /// Adds `delta` to each load counter the flow belongs to: the clusters
  /// whose site links its pools with bytes left load, and the trunk if
  /// one of them crosses it. +1 at admit and restore, -1 at retire, and
  /// -1/+1 around a step's drains, so the counters match the pools.
  void count_load(const Flow& flow, int delta);
  /// Snapshot load: range-checks every restored index and number (flow
  /// id order, counters, pool links, clusters, bytes and activations,
  /// active flags, dirty links), then derives what visit() leaves out,
  /// the rates, the calendar and dirty_mark_.
  void rebuild_after_load();

  int num_clusters_;
  double backbone_Bps_;
  /// False when backbone_Bps_ is infinite: an unconstrained core can
  /// never bind, so the trunk drops out of the constraint graph and
  /// max-min components stay per-site islands instead of chaining
  /// through the shared link.
  bool trunk_constrained_ = true;
  WanFairness fairness_;
  std::vector<double> capacity_;   ///< per link id
  ServiceTracer* tracer_ = nullptr;
  /// The live flows in admission (id) order: admit() appends (ids are
  /// monotone), retire() erases. Every walk (collect, drains, rebalance
  /// closure) iterates this, so per-step cost and memory scale with live
  /// flows, and the rate rule accumulates in admission order.
  std::vector<Flow> flows_;
  int next_flow_id_ = 0;
  int peak_live_ = 0;
  /// Pending pool activations as a lazy min-heap over (t_s, flow, pool):
  /// next_event_s consults the top instead of rescanning every pool;
  /// refresh() consumes due entries, and entries of retired flows are
  /// discarded on sight. The order is total, so a heap rebuilt from the
  /// pending pools pops exactly what this one would.
  mutable std::vector<Activation> activations_;
  std::vector<double> up_busy_s_;
  std::vector<double> down_busy_s_;
  double backbone_busy_s_ = 0.0;
  /// Oracle-view and load-time fill scratch, reused across recomputes.
  std::vector<PoolRef> refs_scratch_;
  std::vector<WanDemand> demands_scratch_;
  std::vector<double> rates_scratch_;
  mutable std::vector<double> estimates_scratch_;  ///< parallel to flows_
  /// Per-flow per-link byte totals (frac computation); zeroed via the
  /// touched list, so a flow pays only for the links it crosses.
  mutable std::vector<double> flow_link_scratch_;
  mutable std::vector<int> touched_scratch_;

  /// --- incremental rate engine state ---
  PhaseProfiler* profiler_ = nullptr;
  /// Activated-undrained demands per link; busy_links_ counts links with
  /// a nonzero entry (what the full-refill classification compares
  /// against), active_pools_ the total activated-undrained pool count.
  std::vector<int> link_users_;
  int busy_links_ = 0;
  int active_pools_ = 0;
  /// Links whose activated flow set (or a sensitive flow's fracs)
  /// changed since the last recompute; dirty_mark_ dedupes the list.
  std::vector<int> dirty_links_;
  std::vector<char> dirty_mark_;
  std::uint64_t rebalance_events_ = 0;
  std::uint64_t rebalance_recomputes_ = 0;
  std::uint64_t rebalance_links_touched_ = 0;
  std::uint64_t rebalance_full_refills_ = 0;
  bool oracle_check_ = false;
  mutable double max_oracle_error_ = 0.0;
  /// Component-closure scratch: marked links and the list to unmark.
  mutable std::vector<char> comp_mark_;
  mutable std::vector<int> comp_links_;
  mutable std::vector<PoolRef> comp_refs_;
  mutable std::vector<WanDemand> comp_demands_;
  mutable std::vector<double> comp_rates_;

  /// Pessimistic-view scratch of drain_estimates_s, reused across calls.
  mutable std::vector<PoolRef> est_refs_;
  mutable std::vector<WanDemand> est_demands_;
  mutable std::vector<double> est_rates_;

  /// Incremental load_score/backbone_load counters (both modes),
  /// maintained by count_load.
  std::vector<int> cluster_load_;
  int trunk_load_ = 0;
};

}  // namespace qrgrid::sched
