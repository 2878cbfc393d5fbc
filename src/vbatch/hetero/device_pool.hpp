// DevicePool: the set of executors one heterogeneous vbatched call runs on.
//
// A pool owns its executors (simulated GPUs and/or the host CPU) and is the
// first argument of potrf_vbatched_hetero. Pools are built programmatically
// (add_gpu / add_cpu) or parsed from the CLI's comma-separated description,
// e.g. "cpu,k40c,p100" or "k40c,k40c" for a dual-GPU node.
//
// Environment knobs are read once, when the pool or executor is built:
// VBATCH_INJECT_FAULTS seeds the pool's fault plan here, VBATCH_ARENA_GB
// each GPU executor's default arena (executor.hpp). Calls on the pool never
// consult the environment, and an explicit set_faults / set_arena_* wins.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "vbatch/fault/fault_plan.hpp"
#include "vbatch/hetero/executor.hpp"

namespace vbatch::hetero {

class DevicePool {
 public:
  /// An empty pool whose fault plan is seeded from VBATCH_INJECT_FAULTS
  /// (unset or empty = fault-free); a malformed value throws
  /// Status::InvalidArgument.
  DevicePool();
  DevicePool(DevicePool&&) noexcept = default;
  DevicePool& operator=(DevicePool&&) noexcept = default;

  /// Adds a simulated GPU with its matching power preset. The executor name
  /// (`label`, defaulting to the spec name) gets a positional suffix so
  /// multi-GPU pools stay distinguishable in reports ("k40c#0", "k40c#1").
  Executor& add_gpu(const sim::DeviceSpec& spec, const energy::PowerModel& power,
                    std::string label = {});

  /// Adds the host CPU pool (at most one per pool).
  Executor& add_cpu(const cpu::CpuSpec& spec = cpu::CpuSpec::dual_e5_2670(),
                    const energy::PowerModel& power = energy::PowerModel::dual_e5_2670());

  /// Builds a pool from a comma-separated device list. Tokens: "k40c",
  /// "p100", "cpu" (surrounding whitespace is trimmed), each optionally
  /// suffixed ":Nstreams" (N >= 1) to give the executor N concurrent
  /// stream slots and/or ":Ngb" (N > 0, decimal GiB) to cap its staging
  /// arena for out-of-core streaming — "k40c:4streams:2gb,p100". Suffixes
  /// may appear in either order, each at most once. GPU stream counts above
  /// the device's max_concurrent_streams clamp silently (mirroring
  /// launch_concurrent); the CPU accepts only ":1streams" and no arena
  /// suffix (it works in host memory). Throws Status::InvalidArgument on
  /// unknown tokens, an empty list, an empty segment (stray / doubled
  /// comma), a repeated "cpu", or a malformed suffix (":streams",
  /// ":0streams", ":gb", ":0gb", non-numeric or duplicated values) — never
  /// silently builds a degenerate pool.
  [[nodiscard]] static DevicePool parse(const std::string& csv);

  /// Attaches a fault-injection spec (docs/robustness.md): every
  /// potrf_vbatched_hetero call on this pool runs under the given plan.
  /// Replaces whatever VBATCH_INJECT_FAULTS seeded at construction; an
  /// empty spec disables injection.
  void set_faults(fault::FaultSpec spec) { faults_ = fault::FaultPlan(std::move(spec)); }
  [[nodiscard]] const fault::FaultSpec& faults() const noexcept { return faults_.spec(); }
  /// The built injection oracle every call schedules against (pure, so
  /// sharing it across calls is safe).
  [[nodiscard]] const fault::FaultPlan& fault_plan() const noexcept { return faults_; }

  [[nodiscard]] int size() const noexcept { return static_cast<int>(executors_.size()); }
  [[nodiscard]] Executor& executor(int i) noexcept { return *executors_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] const Executor& executor(int i) const noexcept {
    return *executors_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] int gpu_count() const noexcept;
  [[nodiscard]] bool has_cpu() const noexcept;

  /// The device hetero fronts pin their options against: the first GPU
  /// executor's spec, else a K40c — the spec of CpuExecutor's numerics
  /// queue, so a CPU-only pool pins what its kernels actually run on.
  [[nodiscard]] const sim::DeviceSpec& reference_spec() const noexcept;

  /// Sum of the executors' nominal peaks in Gflop/s — the capacity seed of
  /// the service admission layer (docs/service.md, "Overload & admission").
  [[nodiscard]] double peak_gflops(Precision prec) const noexcept;

  /// "k40c#0:4streams:2gb + k40c#1 + cpu" — for logs and JSON labels (the
  /// stream suffix appears only for multi-stream executors, the arena
  /// suffix only for explicitly capped ones).
  [[nodiscard]] std::string describe() const;

 private:
  std::vector<std::unique_ptr<Executor>> executors_;
  fault::FaultPlan faults_;
};

}  // namespace vbatch::hetero
