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
// Every launch runs its blocks' cost functors inline, in block order, and
// schedules the reports. In ExecMode::Full it then runs the numerics functor
// of every block that did not exit early — across the shared worker pool
// (vbatch::util::host_pool) for grids worth the dispatch, which is safe
// because CUDA semantics already require grid blocks to be independent —
// so modelled times and factorized bits are identical for any worker count.
// ExecMode::TimingOnly runs the cost functors and nothing else; allocations
// are then virtual (tracked against capacity but not backed by host memory).
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
#include "vbatch/util/thread_pool.hpp"

namespace vbatch::sim {

/// The numerics of grids below this many blocks run serially: pool dispatch
/// costs more than a few small blocks' arithmetic.
inline constexpr int kParallelGrainBlocks = 32;

/// The one grain rule of the Full-mode numerics: runs fn(0) … fn(count − 1)
/// serially when `work` (the blocks the items stand for) is below
/// kParallelGrainBlocks or the host pool has one worker, else across
/// util::host_pool(). Device::launch's per-block numerics and every numerics
/// pass of its own (lane groups, strips) use it. Items must write disjoint
/// data, so the result is the same for any worker count.
template <typename Fn>
void parallel_for_grained(int count, int work, Fn&& fn) {
  if (work < kParallelGrainBlocks || util::host_pool().size() == 1) {
    for (int k = 0; k < count; ++k) fn(k);
  } else {
    util::host_pool().parallel_for(count, fn);
  }
}

class Device {
 public:
  explicit Device(DeviceSpec spec = DeviceSpec::k40c(), ExecMode mode = ExecMode::Full);
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const DeviceSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] ExecMode mode() const noexcept { return mode_; }

  // --- Memory arena -------------------------------------------------------

  /// Allocates `bytes` of device memory. Throws Status::OutOfDeviceMemory
  /// when the arena capacity (spec().global_mem_bytes) is exceeded. In
  /// TimingOnly mode the returned pointer is a unique tag that must not be
  /// dereferenced (kernels skip their numerical payload in that mode).
  [[nodiscard]] void* device_malloc(std::size_t bytes);
  void device_free(void* p);

  /// Charges `bytes` against the arena without allocating anything: the
  /// residency of an array whose values live in a host shadow
  /// (DeviceVector's metadata arrays). Same capacity rule and
  /// OutOfDeviceMemory point as device_malloc (0 bytes count as 1).
  /// Returns the bytes charged, which release_memory takes back.
  [[nodiscard]] std::size_t charge_memory(std::size_t bytes);
  void release_memory(std::size_t bytes) noexcept { mem_used_ -= bytes; }

  template <typename T>
  [[nodiscard]] T* device_malloc_array(std::size_t count) {
    return static_cast<T*>(device_malloc(count * sizeof(T)));
  }

  [[nodiscard]] std::size_t mem_used() const noexcept { return mem_used_; }
  [[nodiscard]] std::size_t mem_capacity() const noexcept { return spec_.global_mem_bytes; }

  // --- Execution ----------------------------------------------------------

  /// Launches a kernel synchronously: runs every block's cost functor,
  /// schedules the reports, advances the device clock and records the kernel
  /// in the timeline; in Full mode it then runs `numerics(b)` for every block
  /// b whose report is not an early exit, with the grid as the grain.
  /// Returns the modelled kernel duration (s).
  double launch(const LaunchConfig& cfg, const BlockFn& cost, const NumericsFn& numerics = {});

  /// Launches `configs.size()` kernels distributed round-robin over
  /// `num_streams` streams with concurrent execution (the streamed syrk
  /// pattern): the host pays an enqueue overhead per kernel, kernels on
  /// different streams share the device's block slots. Cost functors only;
  /// the caller runs the numerics. Returns total wall time from first
  /// enqueue to last completion.
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
