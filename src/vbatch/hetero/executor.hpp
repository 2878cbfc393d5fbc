// Executor: the unit of heterogeneity in the multi-device runtime.
//
// The paper's title promises *heterogeneous parallel architectures*; this
// layer delivers the abstraction that makes a simulated GPU queue and the
// host CPU pool interchangeable targets for one variable-size batch. An
// Executor accepts nb-aligned chunks of a size-sorted batch and provides
//   * an exact cost estimate per chunk (a timing-only dry run of the very
//     same pinned driver — the partitioner's input), and
//   * chunk execution at commit: the estimate's modelled time placed at the
//     chunk's scheduled stream slot.
//
// Executors model time only. The numerics of a call run once, after the
// schedule, in one pass over every committed chunk's matrices (the hetero
// front's, see run_chunked.hpp), so a matrix factors to the same bits no
// matter which executor the partitioner or the work-stealing scheduler
// hands it to. Only the *time* differs:
//   * GpuExecutor charges its own sim::Device clock (occupancy, launch
//     overheads, roofline — everything the simulator models), simulating
//     each distinct chunk once: its estimates are memoized, records
//     included, and execute replays them;
//   * CpuExecutor charges the calibrated one-core-per-matrix dynamic
//     schedule of cpu::CpuSpec (the paper's best CPU competitor, §IV-F).
#pragma once

#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "vbatch/core/queue.hpp"
#include "vbatch/cpu/perf_model.hpp"
#include "vbatch/energy/energy_meter.hpp"
#include "vbatch/energy/power_model.hpp"
#include "vbatch/hetero/stream_slot.hpp"

namespace vbatch::hetero {

/// One chunk of a vbatched problem, ready for any executor. The metadata
/// spans view gathered arrays owned by the hetero driver; `run` is the
/// pinned single-device driver bound to those arrays — calling it on a
/// TimingOnly queue dry-runs the chunk there and returns the modelled
/// device seconds.
struct ChunkWork {
  std::span<const int> n;    ///< gathered per-matrix orders (descending)
  double flops = 0.0;        ///< useful flops of the chunk
  int max_n = 0;             ///< largest order in the chunk
  Precision prec = Precision::Double;
  double bytes = 0.0;        ///< staged footprint each way (stored columns, lda × n)
  /// Runs the chunk's driver on `q`, writing statuses into `info` (sized
  /// like `n`).
  std::function<double(Queue& q, std::span<int> info)> run;
  /// Estimate-memo key: packs everything a dry run of `run` reads — the
  /// pinned plan and driver options, the uplo and scalar type, the chunk's
  /// max_n and its exact sorted orders — and nothing else (not the
  /// pointers, not lda). Equal keys mean equal dry runs on one executor.
  /// Empty = not memoized: every estimate dry-runs.
  std::string key;
};

/// One kernel record of a dry run, as estimates carry it: the fields of
/// sim::KernelRecord a launch sets, timed from clock 0, with the kernel's
/// name as an index into the estimating executor's name table. A dry run
/// holds a few distinct names; whole KernelRecords, a name string each,
/// would take 1.8x the memo's memory.
struct DryRecord {
  double start = 0.0;
  double end = 0.0;
  double flops = 0.0;
  double bytes = 0.0;
  std::size_t shared_mem = 0;
  int grid_blocks = 0;
  int block_threads = 0;
  int resident_per_sm = 0;
  int early_exits = 0;
  int stream = -1;
  int name = 0;
};

/// What an executor predicts for one chunk: the exact serial seconds (a
/// dry run of the same driver) plus the chunk's modelled device occupancy —
/// the fraction of the device's block slots its launches keep busy. Low
/// occupancy is the headroom multi-stream overlap exploits; occupancy 1.0
/// (the CPU executor, or a device-filling chunk) leaves none.
struct ChunkEstimate {
  double seconds = 0.0;
  double occupancy = 1.0;
  /// The dry run's kernel records, which execute places at the chunk's
  /// stream slot. Shared with the executor's memo; null for the CPU model,
  /// which has no timeline.
  std::shared_ptr<const std::vector<DryRecord>> records;
  bool memo_hit = false;  ///< answered from the executor's estimate memo
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

  /// The executor's queue: the front's metadata sweep runs on executor 0's.
  /// For a GPU executor it is also the timing authority whose timeline
  /// execute fills; the CPU executor's clock is unused in favour of the CPU
  /// model.
  [[nodiscard]] virtual Queue& queue() noexcept = 0;

  /// Marks the start of a hetero call (energy slicing, busy accounting). It
  /// also drops the previous call's records: the queue's timeline holds only
  /// the latest call, while its clock keeps running.
  virtual void begin_call();

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
  /// timing-only dry run of the chunk's driver, plus the chunk's modelled
  /// device occupancy (the overlap headroom).
  [[nodiscard]] virtual ChunkEstimate estimate(const ChunkWork& work) = 0;

  /// Commits a chunk this executor estimated as `est`: a GPU executor
  /// appends the estimate's records at the scheduled stream slot and the
  /// slot's staging copies on its transfer lane. It simulates nothing and
  /// computes nothing (the call's numerics pass does). The CPU model has
  /// no timeline: the schedule's busy accounting carries its time.
  virtual void execute(const ChunkEstimate& est, const StreamSlot& slot);

  /// Charges a fault-recovery interval (a wasted faulted attempt, a retry
  /// backoff, a watchdog stall) to this executor's timing authority. GPU
  /// executors append a fault-flagged record to their device timeline so
  /// the profiler and the energy integration see the wasted time; the CPU
  /// executor's model has no timeline — its wasted seconds are carried by
  /// the schedule's busy accounting instead. `start` pins the record at
  /// its schedule position (relative to begin_call).
  virtual void charge_fault(const std::string& what, double seconds, double start);

  /// ∫P dt of this executor's busy interval since begin_call. GPU executors
  /// integrate their timeline, which holds this call alone; the CPU
  /// executor integrates the given busy interval at the utilisation implied
  /// by `flops`.
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

  /// Distinct chunk keys the estimate memo holds at most; the least
  /// recently used entry is evicted beyond it.
  static constexpr std::size_t kEstimateMemoCapacity = 512;

  void begin_call() override;
  [[nodiscard]] int max_streams() const noexcept override;
  /// A keyed chunk whose key is memoized returns the stored estimate
  /// (memo_hit set); otherwise the chunk is dry-run and, when keyed, stored.
  [[nodiscard]] ChunkEstimate estimate(const ChunkWork& work) override;
  void execute(const ChunkEstimate& est, const StreamSlot& slot) override;
  void charge_fault(const std::string& what, double seconds, double start) override;
  [[nodiscard]] energy::EnergyResult call_energy(Precision prec, double busy_seconds,
                                                 double flops) const override;

  /// Entries the estimate memo holds now (at most kEstimateMemoCapacity).
  [[nodiscard]] std::size_t memo_size() const noexcept { return memo_.size(); }
  /// The kernel name a DryRecord of this executor's estimates stands for.
  [[nodiscard]] const std::string& kernel_name(int name) const {
    return kernel_names_[static_cast<std::size_t>(name)];
  }

 private:
  [[nodiscard]] ChunkEstimate dry_run(const ChunkWork& work);

  Queue queue_;    ///< the executor device (timing authority)
  Queue scratch_;  ///< same spec, pinned TimingOnly — the dry-run estimator
  std::vector<int> scratch_info_;
  std::vector<std::string> kernel_names_;  ///< DryRecord::name → kernel name
  /// The estimate memo, most recently used first, indexed by key (the
  /// views point into the list's own keys).
  std::list<std::pair<std::string, ChunkEstimate>> memo_;
  std::unordered_map<std::string_view, decltype(memo_)::iterator> memo_index_;
  double call_t0_ = 0.0;  ///< device clock at begin_call (energy slice start)
};

/// The host CPU pool as a first-class executor: time follows
/// cpu::per_core_makespan's dynamic one-core-per-matrix schedule.
class CpuExecutor final : public Executor {
 public:
  CpuExecutor(std::string name, const cpu::CpuSpec& spec, const energy::PowerModel& power);
  ~CpuExecutor() override;

  [[nodiscard]] bool is_gpu() const noexcept override { return false; }
  [[nodiscard]] Queue& queue() noexcept override { return sweep_; }
  [[nodiscard]] const cpu::CpuSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] double peak_gflops(Precision prec) const noexcept override {
    return spec_.total_peak_gflops(prec);
  }

  [[nodiscard]] int max_streams() const noexcept override { return 1; }
  [[nodiscard]] ChunkEstimate estimate(const ChunkWork& work) override;
  [[nodiscard]] energy::EnergyResult call_energy(Precision prec, double busy_seconds,
                                                 double flops) const override;

 private:
  cpu::CpuSpec spec_;
  /// Hosts plan_potrf's metadata sweep when the CPU is executor 0; its
  /// modelled clock is never reported.
  Queue sweep_;
};

}  // namespace vbatch::hetero
