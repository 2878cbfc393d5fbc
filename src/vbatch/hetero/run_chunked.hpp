// run_chunked: the type-independent half of a heterogeneous vbatched call.
//
// A hetero front (potrf_vbatched_hetero) validates its arguments, pins the
// routine's options, cuts the size-sorted batch into chunks, binds one
// ChunkWork dry-run closure per chunk and one numerics pass for the call.
// Everything after that seam depends neither on the element type nor on the
// routine: estimating every (executor, chunk) pair, the out-of-core staging
// decision, the static partition, the fault plan, the work-stealing
// schedule (whose commits place each chunk's estimated records), fault
// charging, the numerics pass over the committed chunks, and the report.
// That is run_chunked, compiled once for every routine and precision.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "vbatch/core/potrf_vbatched.hpp"
#include "vbatch/hetero/device_pool.hpp"
#include "vbatch/hetero/partition.hpp"
#include "vbatch/hetero/scheduler.hpp"

namespace vbatch::hetero {

struct HeteroOptions {
  PotrfOptions potrf;  ///< forwarded to the per-chunk drivers (path pinned globally)
  Partition partition = Partition::CostModel;
  StealPolicy steal = StealPolicy::MostLoaded;
  bool work_stealing = true;
  /// Static chunks per executor: more chunks = finer rebalancing, more
  /// per-chunk launch overhead. 4 balances the two for the paper's batches.
  int chunks_per_executor = 4;
  std::uint64_t steal_seed = 2016;
  /// Retry/backoff/watchdog bounds for fault recovery (docs/robustness.md).
  /// Only consulted when the pool carries a fault spec.
  fault::RetryPolicy retry;

  /// Out-of-core staging policy (docs/heterogeneous.md, "Out-of-core
  /// streaming"). Auto streams a GPU executor exactly when the batch
  /// footprint exceeds its arena budget; Streamed forces every GPU executor
  /// through the chunked pipeline (the testing/bench mode); Resident keeps
  /// the classic everything-fits schedule and throws if it doesn't.
  enum class Staging : std::uint8_t { Auto, Streamed, Resident };
  Staging staging = Staging::Auto;
  /// Double-buffered chunk prefetch on streaming executors: chunk k+1's H2D
  /// overlaps chunk k's compute. false = synchronous staging (the
  /// measurement baseline).
  bool prefetch = true;
};

/// Per-executor slice of a heterogeneous run: the scheduler's record plus
/// what only the pool knows.
struct ExecutorReport : ExecutorSchedule {
  std::string name;
  double flops = 0.0;           ///< useful flops of the chunks it ran
  double joules = 0.0;          ///< active ∫P dt (idle tails are in the total)
  int matrices = 0;
  double transfer_joules = 0.0; ///< DMA/PHY energy of the staging copies
};

struct HeteroResult {
  double seconds = 0.0;  ///< pool makespan (max executor finish time)
  double flops = 0.0;
  PotrfPath path_taken = PotrfPath::Auto;
  int chunks = 0;
  int steals = 0;
  energy::EnergyResult energy;  ///< pool total: active + idle tails, over makespan
  std::vector<ExecutorReport> executors;
  double h2d_bytes = 0.0;       ///< pool-wide bytes staged host→device
  double d2h_bytes = 0.0;       ///< pool-wide bytes written back
  /// GPU estimates answered from the executors' memos / that dry-ran the
  /// chunk (GpuExecutor::estimate; the CPU model counts in neither).
  int estimate_memo_hits = 0;
  int estimate_memo_misses = 0;

  // --- Fault-recovery ledger (all zero/empty on a fault-free run) --------
  int retries = 0;              ///< transient attempts wasted pool-wide
  int hangs = 0;                ///< hung attempts the watchdog converted
  int executors_lost = 0;       ///< executors permanently lost mid-batch
  int chunks_poisoned = 0;      ///< chunks no survivor could complete
  /// Summed nominal peak of the executors that survived the call, in
  /// Gflop/s — the fault layer's capacity signal to the service admission
  /// controller (equals the pool peak on a fault-free run).
  double surviving_peak_gflops = 0.0;
  double backoff_seconds = 0.0; ///< total virtual retry backoff
  std::vector<fault::FaultEvent> fault_events;  ///< ordered recovery log

  [[nodiscard]] double gflops() const noexcept {
    return seconds > 0.0 ? flops / seconds * 1e-9 : 0.0;
  }
};

/// The call's numerics: factors every matrix of the listed chunks (indices
/// into the call's chunk list, ascending) and writes their statuses.
using ChunkNumerics = std::function<void(std::span<const int> committed)>;

/// Runs the chunks on the pool (begin_call already issued by the front).
/// `info` holds the statuses in size-sorted order, so chunk c owns
/// info[chunks[c].begin, chunks[c].end). After the schedule, `numerics`
/// (when set, i.e. in Full mode) runs once over every completed chunk; a
/// chunk no survivor could complete is never computed — its matrices keep
/// their input bits and its statuses read kInfoChunkLost. `sweep_seconds`
/// is what executor 0 already spent before the first chunk. Fills
/// everything but `flops` and `path_taken`, which belong to the front.
[[nodiscard]] HeteroResult run_chunked(DevicePool& pool, std::span<const Chunk> chunks,
                                       std::span<const ChunkWork> work, std::span<int> info,
                                       const HeteroOptions& opts, double sweep_seconds,
                                       const ChunkNumerics& numerics);

}  // namespace vbatch::hetero
