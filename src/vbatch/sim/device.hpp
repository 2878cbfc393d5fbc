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
// The device models time only. Every launch runs its blocks' cost functors
// inline, in block order, schedules the reports, advances the clock and
// records the kernel; it computes nothing. The arithmetic is the fronts':
// each runs one host numerics pass per call in Full mode
// (docs/simulator.md, "The launch contract"). Arena allocations are
// host-backed (device_malloc) or virtual tags (device_reserve), as the
// allocating container decides.
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
  explicit Device(DeviceSpec spec = DeviceSpec::k40c());
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const DeviceSpec& spec() const noexcept { return spec_; }

  // --- Memory arena -------------------------------------------------------

  /// Allocates `bytes` of device memory, backed by host memory. Throws
  /// Status::OutOfDeviceMemory when the arena capacity
  /// (spec().global_mem_bytes) is exceeded.
  [[nodiscard]] void* device_malloc(std::size_t bytes);
  /// Allocates `bytes` of the arena without host backing (a TimingOnly
  /// batch's payload): same capacity rule, but the returned pointer is a
  /// unique tag that must not be dereferenced.
  [[nodiscard]] void* device_reserve(std::size_t bytes);
  /// Frees a device_malloc or device_reserve pointer.
  void device_free(void* p);

  /// Charges `bytes` against the arena without allocating anything: the
  /// residency of an array whose values live in a host shadow
  /// (DeviceVector's metadata arrays). Same capacity rule and
  /// OutOfDeviceMemory point as device_malloc (0 bytes count as 1).
  /// Returns the bytes charged, which release_memory takes back.
  [[nodiscard]] std::size_t charge_memory(std::size_t bytes);
  void release_memory(std::size_t bytes) noexcept { mem_used_ -= bytes; }

  [[nodiscard]] std::size_t mem_used() const noexcept { return mem_used_; }
  [[nodiscard]] std::size_t mem_capacity() const noexcept { return spec_.global_mem_bytes; }

  // --- Execution ----------------------------------------------------------

  /// Launches a kernel synchronously: runs every block's cost functor once,
  /// in block order, schedules the reports, advances the device clock and
  /// records the kernel in the timeline. Returns the modelled kernel
  /// duration (s).
  double launch(const LaunchConfig& cfg, const BlockFn& cost);

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

  /// Appends a kernel record at its own [start, end) on the device clock
  /// (the hetero executors place a dry run's records into the chunk's
  /// scheduled stream slot). The clock advances to the record's end but
  /// never moves backward — concurrent chunks may be placed out of order.
  void place_record(KernelRecord rec);

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
  /// Runs the grid's cost functors inline into cost_scratch_; the result is
  /// valid until the next launch on this device.
  const std::vector<BlockCost>& run_blocks(const LaunchConfig& cfg, const BlockFn& cost);

  DeviceSpec spec_;
  std::size_t mem_used_ = 0;
  double clock_ = 0.0;
  Timeline timeline_;
  LaunchPlanCache plan_cache_;
  std::vector<BlockCost> cost_scratch_;
  // Host-backed allocations and their sizes; device_reserve's tag pointers
  // are tracked in fake_allocs_.
  std::unordered_map<void*, std::pair<std::unique_ptr<char[]>, std::size_t>> allocs_;
  std::unordered_map<void*, std::size_t> fake_allocs_;
  std::uintptr_t fake_next_ = 0x1000;
};

}  // namespace vbatch::sim
