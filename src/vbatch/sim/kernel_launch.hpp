// Kernel launch descriptors and per-block cost reports.
//
// A simulated kernel is a grid of thread blocks. Each block is a callable
// that (a) performs the real numerical work on host memory when the device
// runs in ExecMode::Full, and (b) returns a BlockCost describing what it did
// — flops, global-memory traffic, how many threads had work, how many
// barriers it crossed, whether it exited through an early-termination
// mechanism. The scheduler turns those reports into time.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "vbatch/util/types.hpp"

namespace vbatch::sim {

/// Whether kernels execute their numerical payload or only report costs.
/// Full mode is the default and is what the tests verify; TimingOnly lets
/// the benchmark harness sweep large batches without paying host time for
/// arithmetic whose cost is analytic anyway (DESIGN.md §5).
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
  /// The functor only reports costs (the kernel's numerics run in a pass of
  /// their own after the launch), so the grid runs inline in every mode.
  bool cost_only = false;
};

/// Context handed to block functors.
struct ExecContext {
  ExecMode mode = ExecMode::Full;
  [[nodiscard]] bool full() const noexcept { return mode == ExecMode::Full; }
};

/// Block functor: executes block `block_id` of the grid and reports cost.
using BlockFn = std::function<BlockCost(const ExecContext&, int block_id)>;

}  // namespace vbatch::sim
