// Sequential discrete-event engine for grid-scale performance replay.
//
// The threaded msg::Runtime executes real payloads and is the library's
// production path; this engine replays the *schedule* of an algorithm
// (who computes what, who sends to whom) without payloads, advancing one
// virtual clock per rank. It is what lets the benchmark harness sweep the
// paper's full matrix range (up to 33,554,432 rows — 16 GB of data on the
// original testbed) in milliseconds. Costs use exactly the same
// GridTopology links and Roofline rates as the threaded runtime, and the
// engine-equivalence test pins the two to identical critical paths.
//
// Route-table contract: each engine resolves every rank's cluster, node,
// speed scale and the cluster-pair links once, in its constructor (a
// RouteTable), and never asks the GridTopology again. The arithmetic is
// the topology's — same expressions, same operand order, same
// accumulation order — so replays are bit-identical to per-event lookups
// (DesReplay.PinnedBits), and a rank outside [0, nprocs()) still throws
// qrgrid::Error from compute, p2p and the collectives.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "model/roofline.hpp"
#include "msg/cost_model.hpp"
#include "simgrid/route.hpp"
#include "simgrid/topology.hpp"
#include "simgrid/trace.hpp"

namespace qrgrid::simgrid {

class DesEngine {
 public:
  DesEngine(const GridTopology* topology, model::Roofline roofline);

  int nprocs() const { return static_cast<int>(clock_.size()); }

  /// Advances `rank`'s clock by the time to execute `flops` on
  /// ncols-column blocks at the rank's roofline rate.
  void compute(int rank, double flops, int ncols) {
    compute(std::span<const int>(&rank, 1), flops, ncols);
  }

  /// compute(rank, flops, ncols) for every rank of `ranks`, in order —
  /// the SPMD step where each participant does the same local work. The
  /// seconds depend only on a rank's cluster, so each run of same-cluster
  /// ranks pays one division.
  void compute(std::span<const int> ranks, double flops, int ncols);

  /// Point-to-point transfer: dst cannot proceed before the message
  /// arrives. Also accrues the message/byte counters by link class.
  void p2p(int src, int dst, std::size_t bytes);

  /// Recursive-doubling allreduce over the given ranks; every rank
  /// exchanges `bytes` per round and pays `combine_flops` per round.
  void allreduce(std::span<const int> ranks, std::size_t bytes,
                 double combine_flops, int ncols);

  /// Binomial-tree broadcast from ranks[0].
  void bcast(std::span<const int> ranks, std::size_t bytes);

  /// BLACS-style combine (DGSUM2D): binomial-tree reduce to ranks[0]
  /// followed by a binomial broadcast — 2 log2(P) rounds on the critical
  /// path, versus the butterfly allreduce's log2(P). ScaLAPACK's
  /// collectives behave like this; the paper's Section-IV model idealizes
  /// them as log2(P).
  void reduce_bcast(std::span<const int> ranks, std::size_t bytes,
                    double combine_flops, int ncols);

  /// All ranks wait for the latest of them (e.g. after a collective whose
  /// result synchronizes everyone).
  void synchronize(std::span<const int> ranks);

  double clock(int rank) const {
    return clock_[static_cast<std::size_t>(rank)];
  }
  double makespan() const;

  /// Seconds rank spent computing (as opposed to waiting on transfers).
  double compute_seconds(int rank) const {
    return compute_seconds_[static_cast<std::size_t>(rank)];
  }

  /// Mean over ranks of compute_time / makespan — how much of the grid
  /// the algorithm actually kept busy. Property 3's mechanism: this
  /// fraction rises toward 1 as M grows because the communication terms
  /// are independent of M.
  double compute_utilization() const;

  long long messages() const { return messages_; }
  long long messages_of(msg::LinkClass c) const {
    return messages_by_class_[static_cast<std::size_t>(c)];
  }
  long long bytes_of(msg::LinkClass c) const {
    return bytes_by_class_[static_cast<std::size_t>(c)];
  }

  /// Bytes this cluster pushed onto (pulled off) its wide-area uplink
  /// (downlink). Intra-cluster traffic never touches these counters; the
  /// two sums over clusters are equal — every WAN byte leaves one site and
  /// enters another. The job service uses them for per-site accounting.
  long long wan_egress_bytes(int cluster) const {
    return wan_egress_bytes_[static_cast<std::size_t>(cluster)];
  }
  long long wan_ingress_bytes(int cluster) const {
    return wan_ingress_bytes_[static_cast<std::size_t>(cluster)];
  }
  double total_flops() const { return total_flops_; }

  const GridTopology& topology() const { return *topology_; }
  const model::Roofline& roofline() const { return roofline_; }

  /// Attaches an activity log; every subsequent compute/transfer records
  /// a TraceEvent. Pass nullptr to stop tracing. The log must outlive the
  /// engine's use of it.
  void set_trace(TraceLog* trace) { trace_ = trace; }

  /// Aggregate capacity of each site's wide-area uplink. The measured
  /// Fig. 3(a) throughputs (78-102 Mb/s) are per TCP flow; the dark fiber
  /// backbone carries ~10 Gb/s, so concurrent inter-site flows contend
  /// only once their sum saturates the site uplink. Set to infinity to
  /// disable contention modeling.
  void set_wan_aggregate_Bps(double bps) { wan_aggregate_Bps_ = bps; }

  /// Earliest instant an inter-cluster transfer from (to) this cluster
  /// claimed the WAN channel, zero-byte transfers included; +infinity
  /// while the cluster has sent (received) nothing across the WAN. The
  /// job service's shared-WAN model activates each link's demand there:
  /// TSQR's compute prefix runs contention-free.
  double first_egress_s(int cluster) const {
    return first_egress_s_[static_cast<std::size_t>(cluster)];
  }
  double first_ingress_s(int cluster) const {
    return first_ingress_s_[static_cast<std::size_t>(cluster)];
  }

 private:
  /// Books the (possibly contended) channel for a transfer from `src`
  /// along `route` and returns the arrival time at the receiver; updates
  /// counters.
  double transfer(int src, const Route& route, std::size_t bytes);

  /// roofline_.rate_gflops(ncols), memoized for the last ncols asked.
  double rate_gflops(int ncols);

  const GridTopology* topology_;
  model::Roofline roofline_;
  RouteTable routes_;
  int rate_ncols_ = 0;
  double rate_gflops_ = 0.0;
  std::vector<double> clock_;
  std::vector<double> compute_seconds_;
  TraceLog* trace_ = nullptr;
  std::vector<double> egress_free_;   ///< per-cluster WAN uplink horizon
  std::vector<double> ingress_free_;  ///< per-cluster WAN downlink horizon
  std::vector<long long> wan_egress_bytes_;   ///< per-cluster WAN bytes out
  std::vector<long long> wan_ingress_bytes_;  ///< per-cluster WAN bytes in
  std::vector<double> first_egress_s_;   ///< per-cluster first WAN send
  std::vector<double> first_ingress_s_;  ///< per-cluster first WAN receive
  double wan_aggregate_Bps_ = 10e9 / 8.0;  ///< Grid'5000 dark fiber
  long long messages_ = 0;
  long long messages_by_class_[msg::kNumLinkClasses] = {0, 0, 0, 0};
  long long bytes_by_class_[msg::kNumLinkClasses] = {0, 0, 0, 0};
  double total_flops_ = 0.0;
};

}  // namespace qrgrid::simgrid
