// Execution timeline: a record of the kernels the simulated device ran, with
// timing and cost detail. Tests use it to assert scheduling invariants; the
// energy meter integrates power over it; benches can dump it for inspection.
//
// Retention: a device's timeline is append-only until clear(). A plain
// Queue keeps every launch of its life; a hetero pool executor keeps one
// call (Executor::begin_call clears it), so a long-running service holds
// one call's records per executor, not its whole history.
#pragma once

#include <string>
#include <vector>

namespace vbatch::sim {

struct KernelRecord {
  std::string name;
  double start = 0.0;   ///< device-clock seconds
  double end = 0.0;
  int grid_blocks = 0;
  int block_threads = 0;
  std::size_t shared_mem = 0;
  int resident_per_sm = 0;
  double flops = 0.0;
  double bytes = 0.0;
  int early_exits = 0;
  /// Stream the kernel actually ran on (−1 for plain synchronous launches).
  /// launch_concurrent clamps the requested stream count to the device limit
  /// and to the kernel count; this records the post-clamp assignment so
  /// profiles report real concurrency, not the requested number.
  int stream = -1;
  /// True for intervals charged by the fault-recovery machinery (a wasted
  /// faulted attempt, a retry backoff, a watchdog stall) rather than a real
  /// kernel: zero useful flops, but the device was occupied — the energy
  /// integration and the profiler's fault column both count them.
  bool fault = false;
};

/// Direction of a host↔device staging copy.
enum class TransferDir : unsigned char { H2D, D2H };

[[nodiscard]] constexpr const char* to_string(TransferDir d) noexcept {
  return d == TransferDir::H2D ? "h2d" : "d2h";
}

/// One modelled host↔device chunk copy on the device's DMA lane — the
/// out-of-core streaming pipeline's record (hetero/scheduler.hpp). Lives in
/// a separate timeline lane: transfers overlap kernels by design, so they
/// must not perturb the kernel-record invariants tests and the energy
/// integration rely on.
struct TransferRecord {
  std::string name;  ///< e.g. "h2d.chunk" — profile aggregation key
  TransferDir dir = TransferDir::H2D;
  double bytes = 0.0;
  double start = 0.0;  ///< device-clock seconds
  double end = 0.0;
  int chunk = -1;  ///< hetero chunk index (-1 when unknown)
};

class Timeline {
 public:
  void add(KernelRecord rec) { records_.push_back(std::move(rec)); }
  void add_transfer(TransferRecord rec) { transfers_.push_back(std::move(rec)); }
  void clear() {
    records_.clear();
    transfers_.clear();
  }

  [[nodiscard]] const std::vector<KernelRecord>& records() const noexcept { return records_; }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }

  /// Total busy time (sum of kernel durations; kernels on streams may
  /// overlap, in which case busy time can exceed wall time).
  [[nodiscard]] double busy_seconds() const noexcept;

  /// Total useful flops across all kernels.
  [[nodiscard]] double total_flops() const noexcept;

  /// Total launches whose name matches `prefix`.
  [[nodiscard]] std::size_t count_with_prefix(const std::string& prefix) const noexcept;

  /// Number of distinct streams that actually carried kernels (0 when no
  /// stream-tagged record exists). This is the post-clamp figure benches
  /// should report instead of the stream count they requested.
  [[nodiscard]] int streams_used() const noexcept;

  /// Fault-recovery intervals (records with the fault flag): count and
  /// total wasted seconds. Tests assert retries are visible here.
  [[nodiscard]] std::size_t fault_count() const noexcept;
  [[nodiscard]] double fault_seconds() const noexcept;

  // --- Transfer lane (out-of-core staging copies) -------------------------
  [[nodiscard]] const std::vector<TransferRecord>& transfers() const noexcept {
    return transfers_;
  }
  /// Total bytes / busy seconds moved in the given direction.
  [[nodiscard]] double transfer_bytes(TransferDir dir) const noexcept;
  [[nodiscard]] double transfer_seconds(TransferDir dir) const noexcept;

 private:
  std::vector<KernelRecord> records_;
  std::vector<TransferRecord> transfers_;
};

}  // namespace vbatch::sim
