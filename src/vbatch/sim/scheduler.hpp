// The block-level SM scheduler: turns per-block cost reports into kernel
// execution time on a DeviceSpec.
//
// Model (DESIGN.md §2, §5):
//  * Occupancy gives `slots` = num_sms × blocks-resident-per-SM concurrent
//    block slots. Blocks are dispatched in grid order to the earliest-free
//    slot (greedy list scheduling). The makespan over slots is the kernel's
//    execution time — this is where load imbalance between differently
//    sized matrices, and hence the benefit of implicit sorting, appears.
//  * A block's duration combines
//      - compute: flops / (lane share), where the lane share is
//        min(active threads, per-SM lanes / resident blocks) — small
//        matrices cannot use many lanes (the parallelism deficiency that
//        motivates batching),
//      - an idle-thread drag for ETM-classic: idle-but-live threads replay
//        the control skeleton and consume issue bandwidth,
//      - serial dependency chains (sqrt/div in potf2),
//      - barrier/skeleton overhead per fused step,
//      - memory: bytes / (bandwidth share per resident block); compute and
//        memory overlap (double buffering, §III-D), so the block takes the
//        max of the two,
//      - ETM early exits cost `block_exit_cycles` only.
//  * The kernel pays a host launch overhead once.
#pragma once

#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "vbatch/sim/device_spec.hpp"
#include "vbatch/sim/kernel_launch.hpp"
#include "vbatch/sim/launch_plan.hpp"
#include "vbatch/sim/occupancy.hpp"

namespace vbatch::sim {

/// Result of scheduling one kernel.
struct KernelTiming {
  double seconds = 0.0;        ///< total kernel time including launch overhead
  double exec_seconds = 0.0;   ///< makespan of the block schedule only
  int slots = 0;               ///< concurrent block slots used
  int resident_per_sm = 0;     ///< occupancy result
  double total_flops = 0.0;
  double total_bytes = 0.0;
  int early_exits = 0;
};

/// Earliest-free-slot pool for greedy list scheduling: a min-heap over
/// (free time, slot index) pairs. Replaces the O(n·s) linear scan with
/// O(n log s) while replicating the scan's tie-breaking exactly (equal free
/// times resolve to the lowest slot index), so schedules — and hence
/// modelled times — are bit-identical to the scan's.
///
/// Callers size the pool to min(device slots, blocks to place). That is
/// exact: every slot still unused is free at time 0 and ties go to the
/// lowest index, so each claim takes either a used slot or the lowest
/// unused one. The used slots are always a prefix of the indices, and
/// `blocks` claims never reach an index of `blocks` or more.
class SlotPool {
 public:
  explicit SlotPool(int slots) {
    std::vector<std::pair<double, int>> init;
    init.reserve(static_cast<std::size_t>(slots));
    for (int s = 0; s < slots; ++s) init.emplace_back(0.0, s);
    heap_ = Heap(std::greater<>{}, std::move(init));
  }

  /// Claims the earliest-free slot for a block of duration `dur` that may
  /// not start before `not_before`; returns the block's end time.
  double assign(double dur, double not_before = 0.0) {
    auto [free_at, slot] = heap_.top();
    heap_.pop();
    const double end = std::max(free_at, not_before) + dur;
    heap_.emplace(end, slot);
    makespan_ = std::max(makespan_, end);
    return end;
  }

  /// Latest end time over every block assigned so far (0 when none).
  [[nodiscard]] double makespan() const noexcept { return makespan_; }

 private:
  using Heap = std::priority_queue<std::pair<double, int>, std::vector<std::pair<double, int>>,
                                   std::greater<>>;
  Heap heap_;
  double makespan_ = 0.0;
};

/// Residency a grid actually achieves: when the grid is smaller than the
/// device's slot capacity each SM hosts fewer blocks than the occupancy
/// limit, so every block enjoys a larger share of lanes and bandwidth.
/// Takes the grid size as 64-bit so huge pooled grids (streamed launches
/// summing many kernels) cannot overflow on platforms with 32-bit long.
[[nodiscard]] constexpr int effective_residency(std::int64_t grid_blocks, int num_sms,
                                                int resident_per_sm) noexcept {
  const std::int64_t waves = (grid_blocks + num_sms - 1) / num_sms;
  if (waves <= 1) return 1;
  if (waves >= resident_per_sm) return resident_per_sm;
  return static_cast<int>(waves);
}

/// Duration of a single block given the device and residency context.
[[nodiscard]] double block_seconds(const DeviceSpec& spec, Precision prec, int resident,
                                   const BlockCost& cost);

/// Greedy list-schedule of all blocks onto the device's slots. When `cache`
/// is given, the occupancy-derived launch plan is memoized there instead of
/// recomputed (Device::launch passes its per-device cache).
[[nodiscard]] KernelTiming schedule_kernel(const DeviceSpec& spec, const LaunchConfig& cfg,
                                           const std::vector<BlockCost>& blocks,
                                           bool include_launch_overhead = true,
                                           LaunchPlanCache* cache = nullptr);

}  // namespace vbatch::sim
