// Executor: the unit of heterogeneity in the multi-device runtime.
//
// The paper's title promises *heterogeneous parallel architectures*; this
// layer delivers the abstraction that makes a simulated GPU queue and the
// host CPU pool interchangeable targets for one variable-size batch. An
// Executor accepts nb-aligned chunks of a size-sorted batch and provides
//   * an exact cost estimate per chunk (a timing-only dry run of the very
//     same driver the chunk would execute — the partitioner's input), and
//   * chunk execution: numerics (Full mode) plus modelled seconds.
//
// Numerics are device-independent by construction: every executor runs the
// identical pinned single-device driver (same path, same blocking), so a
// matrix factors to the same bits no matter which executor the partitioner
// or the work-stealing scheduler hands it to. Only the *time* differs:
//   * GpuExecutor charges its own sim::Device clock (occupancy, launch
//     overheads, roofline — everything the simulator models);
//   * CpuExecutor charges the calibrated one-core-per-matrix dynamic
//     schedule of cpu::CpuSpec (the paper's best CPU competitor, §IV-F)
//     while still running the shared kernel math for the payload.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "vbatch/core/queue.hpp"
#include "vbatch/cpu/perf_model.hpp"
#include "vbatch/energy/energy_meter.hpp"
#include "vbatch/energy/power_model.hpp"
#include "vbatch/hetero/stream_slot.hpp"

namespace vbatch::hetero {

/// One chunk of a vbatched problem, ready for any executor. The metadata
/// spans view chunk-local gathered arrays owned by the hetero driver; `run`
/// is the pinned single-device driver bound to those arrays — calling it on
/// a queue executes the chunk there (numerics follow the queue's ExecMode)
/// and returns the modelled device seconds.
struct ChunkWork {
  std::span<const int> n;    ///< gathered per-matrix orders (descending)
  double flops = 0.0;        ///< useful flops of the chunk
  int max_n = 0;             ///< largest order in the chunk
  Precision prec = Precision::Double;
  double bytes = 0.0;        ///< staged footprint each way (stored columns, lda × n)
  /// Runs the chunk's driver on `q`, writing statuses into `info` (sized
  /// like `n`). The same closure serves execution and dry-run estimation.
  std::function<double(Queue& q, std::span<int> info)> run;
};

/// What an executor predicts for one chunk: the exact serial seconds (a
/// dry run of the same driver) plus the chunk's modelled device occupancy —
/// the fraction of the device's block slots its launches keep busy. Low
/// occupancy is the headroom multi-stream overlap exploits; occupancy 1.0
/// (the CPU executor, or a device-filling chunk) leaves none.
struct ChunkEstimate {
  double seconds = 0.0;
  double occupancy = 1.0;
};

class Executor {
 public:
  Executor(std::string name, energy::PowerModel power) noexcept
      : name_(std::move(name)), power_(power) {}
  virtual ~Executor() = default;
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const energy::PowerModel& power() const noexcept { return power_; }
  [[nodiscard]] virtual bool is_gpu() const noexcept = 0;

  /// Nominal peak throughput of this executor in Gflop/s — the capacity
  /// currency of the service admission layer (a GPU reports its spec
  /// roofline, the CPU its all-core peak). Nominal, not achieved: callers
  /// calibrate against observed launches.
  [[nodiscard]] virtual double peak_gflops(Precision prec) const noexcept = 0;

  /// The queue numerics run through. For a GPU executor this is also the
  /// timing authority; the CPU executor uses it only to host the shared
  /// kernel math (its clock is ignored in favour of the CPU model).
  [[nodiscard]] virtual Queue& queue() noexcept = 0;

  /// Aligns the executor with the caller's execution mode and marks the
  /// start of a hetero call (energy slicing, busy accounting).
  virtual void begin_call(sim::ExecMode mode);

  /// Concurrent stream slots the scheduler may keep in flight here. Values
  /// above max_streams() clamp silently (mirroring launch_concurrent's
  /// device-limit clamp); k < 1 throws Status::InvalidArgument.
  void set_streams(int k);
  [[nodiscard]] int streams() const noexcept { return streams_; }
  /// Device stream limit: the GPU spec's max_concurrent_streams; the CPU
  /// executor's one-core-per-matrix model already uses every core, so 1.
  [[nodiscard]] virtual int max_streams() const noexcept = 0;

  /// Staging-arena budget for out-of-core streaming (docs/heterogeneous.md,
  /// "Out-of-core streaming"). A GPU executor defaults to VBATCH_ARENA_GB
  /// (read once, at construction; a malformed value throws) or else its
  /// spec's global memory; when the batch footprint exceeds the budget the
  /// hetero driver stages chunks through the arena instead of assuming
  /// residency. The CPU executor works in host memory — it has no arena,
  /// and setting one throws Status::InvalidArgument. Budgets must be
  /// positive.
  void set_arena_gb(double gb);
  void set_arena_bytes(double bytes);
  [[nodiscard]] double arena_bytes() const noexcept { return arena_bytes_; }
  /// True once a caller pinned the budget (parse suffix, --arena-gb);
  /// describe() then prints it.
  [[nodiscard]] bool arena_explicit() const noexcept { return arena_explicit_; }

  /// Exact modelled cost of the chunk here: serial seconds from a
  /// timing-only dry run of the same driver `execute` uses, plus the
  /// chunk's modelled device occupancy (the overlap headroom).
  [[nodiscard]] virtual ChunkEstimate estimate(const ChunkWork& work) = 0;

  /// Executes the chunk (numerics in Full mode) into `info` and places its
  /// timeline records into the scheduled stream slot; returns the serial
  /// modelled seconds of the chunk.
  virtual double execute(const ChunkWork& work, std::span<int> info, const StreamSlot& slot) = 0;

  /// Charges a fault-recovery interval (a wasted faulted attempt, a retry
  /// backoff, a watchdog stall) to this executor's timing authority. GPU
  /// executors append a fault-flagged record to their device timeline so
  /// the profiler and the energy integration see the wasted time; the CPU
  /// executor's model has no timeline — its wasted seconds are carried by
  /// the schedule's busy accounting instead. `start` pins the record at
  /// its schedule position (relative to begin_call).
  virtual void charge_fault(const std::string& what, double seconds, double start);

  /// ∫P dt of this executor's busy interval since begin_call. GPU executors
  /// integrate their timeline slice; the CPU executor integrates the given
  /// busy interval at the utilisation implied by `flops`.
  [[nodiscard]] virtual energy::EnergyResult call_energy(Precision prec, double busy_seconds,
                                                         double flops) const = 0;

 protected:
  /// GpuExecutor seeds the default budget here without marking it explicit.
  void init_arena_bytes(double bytes) noexcept { arena_bytes_ = bytes; }

 private:
  std::string name_;
  energy::PowerModel power_;
  int streams_ = 1;
  double arena_bytes_ = 0.0;
  bool arena_explicit_ = false;
};

/// A simulated GPU device (K40c, P100, ...) wrapped in a core::Queue.
class GpuExecutor final : public Executor {
 public:
  GpuExecutor(std::string name, const sim::DeviceSpec& spec, const energy::PowerModel& power);
  ~GpuExecutor() override;

  [[nodiscard]] bool is_gpu() const noexcept override { return true; }
  [[nodiscard]] Queue& queue() noexcept override { return queue_; }
  [[nodiscard]] const sim::DeviceSpec& spec() const noexcept { return queue_.spec(); }
  [[nodiscard]] double peak_gflops(Precision prec) const noexcept override {
    return spec().peak_gflops(prec);
  }

  void begin_call(sim::ExecMode mode) override;
  [[nodiscard]] int max_streams() const noexcept override;
  [[nodiscard]] ChunkEstimate estimate(const ChunkWork& work) override;
  double execute(const ChunkWork& work, std::span<int> info, const StreamSlot& slot) override;
  void charge_fault(const std::string& what, double seconds, double start) override;
  [[nodiscard]] energy::EnergyResult call_energy(Precision prec, double busy_seconds,
                                                 double flops) const override;

 private:
  Queue queue_;    ///< the executor device (numerics + timing authority)
  Queue scratch_;  ///< same spec, pinned TimingOnly — the dry-run estimator
  std::vector<int> scratch_info_;
  double call_t0_ = 0.0;  ///< device clock at begin_call (energy slice start)
  std::size_t call_first_record_ = 0;  ///< timeline record count at begin_call
};

/// The host CPU pool as a first-class executor: numerics run through the
/// shared kernel math (bit-identical to every other executor); time follows
/// cpu::per_core_makespan's dynamic one-core-per-matrix schedule.
class CpuExecutor final : public Executor {
 public:
  CpuExecutor(std::string name, const cpu::CpuSpec& spec, const energy::PowerModel& power);
  ~CpuExecutor() override;

  [[nodiscard]] bool is_gpu() const noexcept override { return false; }
  [[nodiscard]] Queue& queue() noexcept override { return numerics_; }
  [[nodiscard]] const cpu::CpuSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] double peak_gflops(Precision prec) const noexcept override {
    return spec_.total_peak_gflops(prec);
  }

  [[nodiscard]] int max_streams() const noexcept override { return 1; }
  [[nodiscard]] ChunkEstimate estimate(const ChunkWork& work) override;
  double execute(const ChunkWork& work, std::span<int> info, const StreamSlot& slot) override;
  [[nodiscard]] energy::EnergyResult call_energy(Precision prec, double busy_seconds,
                                                 double flops) const override;

 private:
  cpu::CpuSpec spec_;
  /// Hosts the shared kernel math so CPU-executed matrices factor to the
  /// same bits as GPU-executed ones; its modelled clock is never reported.
  Queue numerics_;
};

}  // namespace vbatch::hetero
