// Static flow→domain assignment for the conservative parallel engine.
//
// A sharded run splits one cell into N edge domains plus the core: the
// bottleneck (switch, qdisc, link, impairment stage, both netems) always
// runs on the core, and each flow's two endpoints (sender + receiver,
// with their pacing/RTO/delack/GRO timers) run together on one edge
// domain. Flows are dealt round-robin so same-group flows spread evenly.
//
// Flows at ids >= sharded_flows are core-resident: the workload engine
// creates flows dynamically in arrival order, driven by core events, so
// dynamic flows keep their endpoints on the core and never cross a
// domain boundary.
#pragma once

#include <cstdint>

namespace ccas {

struct ShardPlan {
  static constexpr int kCore = -1;

  int shards = 1;
  uint32_t sharded_flows = 0;  // flows [0, sharded_flows) are distributed

  [[nodiscard]] int domain_of(uint32_t flow_id) const {
    return flow_id < sharded_flows ? static_cast<int>(flow_id % shards) : kCore;
  }
};

}  // namespace ccas
