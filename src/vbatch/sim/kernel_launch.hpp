// Kernel launch descriptors and per-block cost reports.
//
// A simulated kernel is a grid of thread blocks described by a per-block
// cost functor: it returns a BlockCost describing what the block does —
// flops, global-memory traffic, how many threads have work, how many
// barriers it crosses, whether it exits through an early-termination
// mechanism — and the scheduler turns those reports into time. A launch
// computes nothing: the device prices blocks and the front computes, in one
// host numerics pass per call (docs/simulator.md, "The launch contract").
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "vbatch/util/types.hpp"

namespace vbatch::sim {

/// Whether a queue's fronts run their numerics pass or only launch. Full
/// mode is the default and is what the tests verify; TimingOnly lets the
/// benchmark harness sweep large batches without paying host time for
/// arithmetic whose cost is analytic anyway (DESIGN.md §5): its batches hold
/// no payload, only arena charges (SlabArrays).
enum class ExecMode : std::uint8_t { Full, TimingOnly };

/// What one thread block did during a kernel, as reported by its functor.
struct BlockCost {
  double flops = 0.0;        ///< useful floating-point operations
  double bytes = 0.0;        ///< global memory bytes moved (read + write)
  int active_threads = 0;    ///< threads with real work
  int live_threads = 0;      ///< threads alive to the end (>= active for ETM-classic)
  int sync_steps = 0;        ///< block-wide barriers crossed
  double serial_ops = 0.0;   ///< dependent scalar ops (sqrt/div chains)
  double latency_cycles = 0.0;  ///< exposed dependent-latency cycles (e.g. global
                                ///< round trips in unfused kernels) not hidden by
                                ///< other warps of this block
  bool early_exit = false;   ///< block terminated via an ETM before doing work
};

/// Static shape of a kernel launch.
struct LaunchConfig {
  std::string name;
  int grid_blocks = 0;
  int block_threads = 0;
  std::size_t shared_mem = 0;
  Precision precision = Precision::Double;
};

/// Cost functor: reports what block `block_id` of the grid does.
using BlockFn = std::function<BlockCost(int block_id)>;

}  // namespace vbatch::sim
