// The simulated GPU device: memory arena, kernel execution, streams, clock.
//
// Device is the substitution for the paper's Tesla K40c (DESIGN.md §2). It
// owns
//   * a capacity-checked memory arena standing in for the 12 GB of GDDR5
//     (the padding baseline of §IV-F genuinely runs out of it),
//   * a device clock advanced by the scheduler model for every launch,
//   * a timeline of kernel records,
//   * stream-based concurrent kernel execution (used by the streamed syrk
//     alternative of §III-E.3),
//   * a launch-plan cache memoizing occupancy per launch shape, and a
//     reusable per-launch BlockCost scratch buffer (docs/simulator.md,
//     "Execution engine").
//
// In ExecMode::Full, launches run every block functor (the real numerics)
// on the host — partitioned across the shared worker pool
// (vbatch::util::host_pool), which is safe because CUDA semantics already
// require grid blocks to be independent. Per-block results are merged in
// block-index order, so modelled times and factorized bits are identical
// for any worker count. In ExecMode::TimingOnly the functors are invoked
// with a context telling them to skip the math and only report costs;
// allocations are then virtual (tracked against capacity but not backed by
// host memory).
#pragma once

#include <cstddef>
#include <memory>
#include <unordered_map>
#include <vector>

#include "vbatch/sim/device_spec.hpp"
#include "vbatch/sim/kernel_launch.hpp"
#include "vbatch/sim/launch_plan.hpp"
#include "vbatch/sim/scheduler.hpp"
#include "vbatch/sim/timeline.hpp"

namespace vbatch::sim {

class Device {
 public:
  explicit Device(DeviceSpec spec = DeviceSpec::k40c(), ExecMode mode = ExecMode::Full);
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const DeviceSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] ExecMode mode() const noexcept { return mode_; }
  void set_mode(ExecMode mode) noexcept { mode_ = mode; }

  // --- Memory arena -------------------------------------------------------

  /// Allocates `bytes` of device memory. Throws Status::OutOfDeviceMemory
  /// when the arena capacity (spec().global_mem_bytes) is exceeded. In
  /// TimingOnly mode the returned pointer is a unique tag that must not be
  /// dereferenced (kernels skip their numerical payload in that mode).
  [[nodiscard]] void* device_malloc(std::size_t bytes);
  void device_free(void* p);

  template <typename T>
  [[nodiscard]] T* device_malloc_array(std::size_t count) {
    return static_cast<T*>(device_malloc(count * sizeof(T)));
  }

  [[nodiscard]] std::size_t mem_used() const noexcept { return mem_used_; }
  [[nodiscard]] std::size_t mem_capacity() const noexcept { return spec_.global_mem_bytes; }

  // --- Execution ----------------------------------------------------------

  /// Launches a kernel synchronously: runs all block functors (Full mode),
  /// schedules the reported costs, advances the device clock, records the
  /// kernel in the timeline. Returns the modelled kernel duration (s).
  double launch(const LaunchConfig& cfg, const BlockFn& fn);

  /// Launches `configs.size()` kernels distributed round-robin over
  /// `num_streams` streams with concurrent execution (the streamed syrk
  /// pattern): the host pays an enqueue overhead per kernel, kernels on
  /// different streams share the device's block slots. Returns total wall
  /// time from first enqueue to last completion.
  double launch_concurrent(const std::vector<LaunchConfig>& configs,
                           const std::vector<BlockFn>& fns, int num_streams);

  /// Charges a non-kernel interval to the device: appends a fault-flagged
  /// timeline record under `name` (zero useful flops) at the absolute clock
  /// interval [at, at + seconds). The fault-recovery machinery uses this to
  /// make wasted attempts, retry backoffs and watchdog stalls visible to
  /// the profiler and the energy integration, aligned with the virtual-time
  /// schedule even when chunks overlap on concurrent streams. The clock
  /// only moves forward.
  void charge_interval_at(const std::string& name, double at, double seconds);

  /// Remaps the records appended since `first_record` from the serial clock
  /// window starting at `base` into the scheduled stream slot: a record time
  /// t becomes start + (t - base) / rate (rate < 1 stretches the chunk, the
  /// modelled cost of contending for the device's stream slots). Records not
  /// yet stream-tagged get `stream` (>= 0); inner tags (e.g. the streamed
  /// syrk) are preserved. The clock advances to the latest retimed end but
  /// never moves backward — concurrent chunks may retime out of order.
  void retime_tail(std::size_t first_record, double base, double start, double rate, int stream);

  /// Appends a host↔device staging copy to the timeline's transfer lane at
  /// an absolute clock interval [at, at + seconds). Transfers overlap
  /// kernels by design (independent DMA engines), so the device clock only
  /// ratchets forward to the transfer's end — it never stalls compute.
  void record_transfer(TransferDir dir, int chunk, double bytes, double at, double seconds);

  /// Device-model clock in seconds since construction / last reset.
  [[nodiscard]] double time() const noexcept { return clock_; }
  void reset_time() noexcept { clock_ = 0.0; }

  [[nodiscard]] const Timeline& timeline() const noexcept { return timeline_; }
  void clear_timeline() { timeline_.clear(); }

  /// Memoized occupancy plans (diagnostic; see LaunchPlanCache).
  [[nodiscard]] const LaunchPlanCache& plan_cache() const noexcept { return plan_cache_; }

 private:
  /// Runs the grid (pool-parallel in Full mode for grids worth the
  /// dispatch) into cost_scratch_; the result is valid until the next
  /// launch on this device.
  const std::vector<BlockCost>& run_blocks(const LaunchConfig& cfg, const BlockFn& fn);

  DeviceSpec spec_;
  ExecMode mode_;
  std::size_t mem_used_ = 0;
  double clock_ = 0.0;
  Timeline timeline_;
  LaunchPlanCache plan_cache_;
  std::vector<BlockCost> cost_scratch_;
  // Real allocations (Full mode) and their sizes; TimingOnly allocations are
  // tag pointers tracked in fake_allocs_.
  std::unordered_map<void*, std::pair<std::unique_ptr<char[]>, std::size_t>> allocs_;
  std::unordered_map<void*, std::size_t> fake_allocs_;
  std::uintptr_t fake_next_ = 0x1000;
};

}  // namespace vbatch::sim
