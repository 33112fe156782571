#include "simgrid/des.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace qrgrid::simgrid {

namespace {

const GridTopology& checked(const GridTopology* topology) {
  QRGRID_CHECK(topology != nullptr);
  return *topology;
}

}  // namespace

DesEngine::DesEngine(const GridTopology* topology, model::Roofline roofline)
    : topology_(topology),
      roofline_(roofline),
      routes_(checked(topology)),
      rate_gflops_(roofline_.rate_gflops(rate_ncols_)) {
  clock_.assign(static_cast<std::size_t>(topology->total_procs()), 0.0);
  compute_seconds_.assign(static_cast<std::size_t>(topology->total_procs()),
                          0.0);
  egress_free_.assign(static_cast<std::size_t>(topology->num_clusters()),
                      0.0);
  ingress_free_.assign(static_cast<std::size_t>(topology->num_clusters()),
                       0.0);
  wan_egress_bytes_.assign(static_cast<std::size_t>(topology->num_clusters()),
                           0);
  wan_ingress_bytes_.assign(
      static_cast<std::size_t>(topology->num_clusters()), 0);
  first_egress_s_.assign(static_cast<std::size_t>(topology->num_clusters()),
                         std::numeric_limits<double>::infinity());
  first_ingress_s_.assign(static_cast<std::size_t>(topology->num_clusters()),
                          std::numeric_limits<double>::infinity());
}

double DesEngine::rate_gflops(int ncols) {
  if (ncols != rate_ncols_) {
    rate_ncols_ = ncols;
    rate_gflops_ = roofline_.rate_gflops(ncols);
  }
  return rate_gflops_;
}

void DesEngine::compute(std::span<const int> ranks, double flops,
                        int ncols) {
  const double rate = rate_gflops(ncols);
  int cluster = -1;
  double seconds = 0.0;
  for (int rank : ranks) {
    const RankSite& site = routes_.site(rank);
    if (site.cluster != cluster) {
      cluster = site.cluster;
      seconds = flop_seconds(flops, rate, site.scale);
    }
    auto& clock = clock_[static_cast<std::size_t>(rank)];
    if (trace_ != nullptr) {
      trace_->record(rank, clock, clock + seconds, ActivityKind::kCompute);
    }
    clock += seconds;
    compute_seconds_[static_cast<std::size_t>(rank)] += seconds;
    total_flops_ += flops;
  }
}

double DesEngine::compute_utilization() const {
  const double span = makespan();
  if (span <= 0.0) return 0.0;
  double acc = 0.0;
  for (double c : compute_seconds_) acc += c;
  return acc / (span * static_cast<double>(compute_seconds_.size()));
}

double DesEngine::transfer(int src, const Route& route, std::size_t bytes) {
  // Latency overlaps across concurrent messages; the per-flow byte time is
  // paid by the receiver and serializes back-to-back arrivals (LogGP
  // receiver occupancy) — mirrors msg::Comm::recv. Inter-cluster flows
  // additionally contend for their sites' aggregate WAN uplink/downlink.
  double start = clock_[static_cast<std::size_t>(src)];
  if (route.cls == msg::LinkClass::kInterCluster) {
    const auto sc = static_cast<std::size_t>(route.src_cluster);
    const auto dc = static_cast<std::size_t>(route.dst_cluster);
    start = std::max({start, egress_free_[sc], ingress_free_[dc]});
    const double channel_done =
        start + static_cast<double>(bytes) / wan_aggregate_Bps_;
    egress_free_[sc] = channel_done;
    ingress_free_[dc] = channel_done;
    wan_egress_bytes_[sc] += static_cast<long long>(bytes);
    wan_ingress_bytes_[dc] += static_cast<long long>(bytes);
    first_egress_s_[sc] = std::min(first_egress_s_[sc], start);
    first_ingress_s_[dc] = std::min(first_ingress_s_[dc], start);
  }
  messages_ += 1;
  messages_by_class_[static_cast<std::size_t>(route.cls)] += 1;
  bytes_by_class_[static_cast<std::size_t>(route.cls)] +=
      static_cast<long long>(bytes);
  // Wire arrival: the receiver additionally pays the per-flow byte time
  // (receiver serialization), added by the caller.
  return start + route.link.latency_s;
}

void DesEngine::p2p(int src, int dst, std::size_t bytes) {
  if (src == dst) return;
  const Route route = routes_.route(src, dst);
  const double flow_time =
      static_cast<double>(bytes) / route.link.bandwidth_Bps;
  const double arrival = transfer(src, route, bytes);
  auto& dst_clock = clock_[static_cast<std::size_t>(dst)];
  const double recv_start = std::max(dst_clock, arrival);
  if (trace_ != nullptr) {
    trace_->record(dst, recv_start, recv_start + flow_time,
                   ActivityKind::kTransfer);
  }
  dst_clock = recv_start + flow_time;
}

void DesEngine::allreduce(std::span<const int> ranks, std::size_t bytes,
                          double combine_flops, int ncols) {
  const auto p = static_cast<int>(ranks.size());
  if (p <= 1) return;
  int p2 = 1;
  while (p2 * 2 <= p) p2 *= 2;
  const int rem = p - p2;

  // Fold phase for non-power-of-two participant counts.
  for (int i = 0; i < rem; ++i) {
    p2p(ranks[static_cast<std::size_t>(2 * i)],
        ranks[static_cast<std::size_t>(2 * i + 1)], bytes);
    compute(ranks[static_cast<std::size_t>(2 * i + 1)], combine_flops, ncols);
  }
  auto vrank_to_rank = [&](int vr) {
    return ranks[static_cast<std::size_t>(vr < rem ? 2 * vr + 1 : vr + rem)];
  };
  // Butterfly: each round pairs vr with vr^mask; both directions transfer.
  for (int mask = 1; mask < p2; mask <<= 1) {
    for (int vr = 0; vr < p2; ++vr) {
      const int partner = vr ^ mask;
      if (partner > vr) {
        const int a = vrank_to_rank(vr);
        const int b = vrank_to_rank(partner);
        // Exchange is concurrent: both wire arrivals computed from
        // pre-round clocks (transfer reads the sender clock before either
        // side advances); each side then pays the receive serialization,
        // priced on the (a, b) link for both directions.
        const Route ab = routes_.route(a, b);
        const Route ba = routes_.route(b, a);
        const double byte_time =
            static_cast<double>(bytes) / ab.link.bandwidth_Bps;
        const double t_ab = transfer(a, ab, bytes);
        const double t_ba = transfer(b, ba, bytes);
        auto& ca = clock_[static_cast<std::size_t>(a)];
        auto& cb = clock_[static_cast<std::size_t>(b)];
        const double a_start = std::max(ca, t_ba);
        const double b_start = std::max(cb, t_ab);
        if (trace_ != nullptr) {
          trace_->record(a, a_start, a_start + byte_time,
                         ActivityKind::kTransfer);
          trace_->record(b, b_start, b_start + byte_time,
                         ActivityKind::kTransfer);
        }
        ca = a_start + byte_time;
        cb = b_start + byte_time;
      }
    }
    for (int vr = 0; vr < p2; ++vr) {
      compute(vrank_to_rank(vr), combine_flops, ncols);
    }
  }
  // Unfold to the folded-out ranks.
  for (int i = 0; i < rem; ++i) {
    p2p(ranks[static_cast<std::size_t>(2 * i + 1)],
        ranks[static_cast<std::size_t>(2 * i)], bytes);
  }
}

void DesEngine::reduce_bcast(std::span<const int> ranks, std::size_t bytes,
                             double combine_flops, int ncols) {
  const auto p = static_cast<int>(ranks.size());
  if (p <= 1) return;
  // Binomial reduce: at step `mask`, ranks whose lowest set bit is `mask`
  // send to (vr ^ mask); the receiver folds the contribution in.
  for (int mask = 1; mask < p; mask <<= 1) {
    for (int vr = mask; vr < p; vr += 2 * mask) {
      const int dst = vr ^ mask;
      p2p(ranks[static_cast<std::size_t>(vr)],
          ranks[static_cast<std::size_t>(dst)], bytes);
      compute(ranks[static_cast<std::size_t>(dst)], combine_flops, ncols);
    }
  }
  bcast(ranks, bytes);
}

void DesEngine::bcast(std::span<const int> ranks, std::size_t bytes) {
  const auto p = static_cast<int>(ranks.size());
  // Binomial: at round k, ranks with vr < 2^k forward to vr + 2^k.
  for (int mask = 1; mask < p; mask <<= 1) {
    for (int vr = 0; vr < mask && vr + mask < p; ++vr) {
      p2p(ranks[static_cast<std::size_t>(vr)],
          ranks[static_cast<std::size_t>(vr + mask)], bytes);
    }
  }
}

void DesEngine::synchronize(std::span<const int> ranks) {
  double latest = 0.0;
  for (int r : ranks) {
    latest = std::max(latest, clock_[static_cast<std::size_t>(r)]);
  }
  for (int r : ranks) clock_[static_cast<std::size_t>(r)] = latest;
}

double DesEngine::makespan() const {
  return *std::max_element(clock_.begin(), clock_.end());
}

}  // namespace qrgrid::simgrid
