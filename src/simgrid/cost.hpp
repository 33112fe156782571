// Bridges the grid topology into the message-passing runtime's virtual
// clocks: transfers cost latency + bytes/bandwidth on the link between the
// two ranks' locations, compute costs flops at the roofline rate of the
// rank's cluster. Both read the same immutable RouteTable and the same
// flop_seconds formula as the DES engine, so the two engines cannot drift
// apart; rank threads share the table without locks.
#pragma once

#include <memory>

#include "model/roofline.hpp"
#include "msg/cost_model.hpp"
#include "simgrid/route.hpp"
#include "simgrid/topology.hpp"

namespace qrgrid::simgrid {

class TopologyCostModel final : public msg::CostModel {
 public:
  TopologyCostModel(GridTopology topology, model::Roofline roofline)
      : topology_(std::move(topology)),
        roofline_(roofline),
        routes_(topology_) {}

  double transfer_seconds(int src, int dst, std::size_t) const override {
    // Wire part: the latency, overlappable across concurrent messages.
    if (src == dst) return 0.0;
    return routes_.route(src, dst).link.latency_s;
  }

  double serialization_seconds(int src, int dst,
                               std::size_t bytes) const override {
    // Byte part, charged at the receiver: back-to-back arrivals queue.
    if (src == dst) return 0.0;
    return static_cast<double>(bytes) /
           routes_.route(src, dst).link.bandwidth_Bps;
  }

  double flop_seconds(int rank, double flops, int ncols) const override {
    // Rate scaled by the cluster's peak relative to the calibration
    // baseline (the slowest cluster), so faster sites finish sooner.
    return simgrid::flop_seconds(flops, roofline_.rate_gflops(ncols),
                                 routes_.site(rank).scale);
  }

  msg::LinkClass link_class(int src, int dst) const override {
    return routes_.route(src, dst).cls;
  }

  const GridTopology& topology() const { return topology_; }
  const model::Roofline& roofline() const { return roofline_; }

 private:
  GridTopology topology_;
  model::Roofline roofline_;
  RouteTable routes_;
};

}  // namespace qrgrid::simgrid
