#include "vbatch/sim/scheduler.hpp"

#include <algorithm>
#include <cmath>

#include "vbatch/util/error.hpp"

namespace vbatch::sim {

double block_seconds(const DeviceSpec& spec, Precision prec, int resident,
                     const BlockCost& cost) {
  const double cycle = spec.cycle_seconds();
  if (cost.early_exit) return spec.block_exit_cycles * cycle;

  const int lanes = spec.lanes_per_sm(prec);
  // Lanes available to this block while `resident` blocks share the SM.
  const double lane_share =
      std::max(1.0, static_cast<double>(lanes) / std::max(1, resident));
  const double usable_lanes =
      std::min<double>(std::max(1, cost.active_threads), lane_share);

  double compute_cycles = cost.flops / (usable_lanes * spec.flops_per_lane_per_cycle);
  compute_cycles += cost.serial_ops * spec.serial_op_cycles;
  compute_cycles += cost.sync_steps * spec.sync_cost_cycles;
  compute_cycles += cost.latency_cycles;

  // Memory time uses this block's share of device bandwidth.
  const double active_blocks = static_cast<double>(std::max(1, resident * spec.num_sms));
  const double bw_share = spec.mem_bandwidth_gbps * 1e9 / active_blocks;
  const double mem_seconds = cost.bytes / bw_share;

  // Compute and global-memory traffic overlap (double-buffered pipelines);
  // the slower engine bounds the block.
  double seconds = std::max(compute_cycles * cycle, mem_seconds);

  // ETM-classic drag: idle-but-live threads replay the control skeleton on
  // every iteration, occupying warp-scheduler slots that delay both the
  // arithmetic and the memory pipelines of the working warps. The penalty
  // scales with the idle share of live threads; ETM-aggressive removes it
  // by terminating those threads at launch (§III-D1).
  const int idle = std::max(0, cost.live_threads - cost.active_threads);
  if (idle > 0 && cost.live_threads > 0) {
    const double idle_frac = static_cast<double>(idle) / cost.live_threads;
    seconds *= 1.0 + spec.idle_thread_drag * idle_frac;
  }
  return seconds;
}

KernelTiming schedule_kernel(const DeviceSpec& spec, const LaunchConfig& cfg,
                             const std::vector<BlockCost>& blocks,
                             bool include_launch_overhead, LaunchPlanCache* cache) {
  KernelTiming t;
  const BlockShape shape{cfg.block_threads, cfg.shared_mem};
  t.resident_per_sm =
      cache != nullptr ? cache->plan(spec, shape, cfg.precision).resident_per_sm
                       : blocks_per_sm(spec, shape);
  if (t.resident_per_sm == 0) {
    throw_error(Status::LaunchFailure,
                "kernel '" + cfg.name + "' cannot launch: block shape exceeds device limits");
  }
  t.slots = spec.num_sms * t.resident_per_sm;

  const double dispatch = spec.block_dispatch_cycles * spec.cycle_seconds();

  const int eff_resident = effective_residency(static_cast<std::int64_t>(blocks.size()),
                                               spec.num_sms, t.resident_per_sm);

  // Greedy list scheduling: each block goes to the earliest-free slot. A
  // grid smaller than the device only ever touches its first slots.
  SlotPool slots(static_cast<int>(std::min<std::int64_t>(t.slots, std::ssize(blocks))));
  for (const BlockCost& b : blocks) {
    const double dur = dispatch + block_seconds(spec, cfg.precision, eff_resident, b);
    slots.assign(dur);
    t.total_flops += b.flops;
    t.total_bytes += b.bytes;
    if (b.early_exit) ++t.early_exits;
  }
  t.exec_seconds = slots.makespan();
  t.seconds = t.exec_seconds;
  if (include_launch_overhead) t.seconds += spec.kernel_launch_overhead_us * 1e-6;
  return t;
}

}  // namespace vbatch::sim
