// CPU batched Cholesky baselines (paper §IV-F):
//   * multithreaded: "all cores to factorize one matrix at a time" — the
//     strategy the paper shows lagging for small matrices;
//   * one-core-per-matrix with static assignment (round-robin, causing the
//     oscillations the paper observes);
//   * one-core-per-matrix with dynamic scheduling (the "best competitor").
//
// Numerics run for real on the host pool when `execute` is set; the
// reported seconds come from CpuSpec's calibrated model so the comparison
// against the simulated GPU is internally consistent (DESIGN.md §2).
#pragma once

#include <span>

#include "vbatch/cpu/perf_model.hpp"
#include "vbatch/util/matrix_view.hpp"
#include "vbatch/util/types.hpp"

namespace vbatch::cpu {

enum class Schedule : std::uint8_t { Static, Dynamic };

struct CpuBatchResult {
  double seconds = 0.0;  ///< modelled makespan
  double flops = 0.0;
  [[nodiscard]] double gflops() const noexcept {
    return seconds > 0.0 ? flops / seconds * 1e-9 : 0.0;
  }
};

/// Modelled makespan of the one-core-per-matrix schedule over `n` (the
/// timing half of potrf_batched_per_core, shared with the heterogeneous
/// runtime's CPU executor): per-matrix single-core seconds + dispatch
/// overhead, list-scheduled over the modelled cores.
[[nodiscard]] double per_core_makespan(const CpuSpec& spec, Schedule schedule, Precision prec,
                                       std::span<const int> n);

/// The host numerics of every per-matrix Cholesky: one blas::potrf per
/// matrix, info[i] for matrix i, on the worker pool (vbatch::util::host_pool,
/// sized to the host, not to a modelled CPU) through
/// kernels::parallel_for_grained, a matrix of order n counting as its ⌈n/16⌉
/// 16-wide column steps. Matrices are independent, so the bits do not
/// depend on the worker count.
template <typename T>
void potrf_each(Uplo uplo, std::span<const int> n, T* const* a, std::span<const int> lda,
                std::span<int> info);

/// One core per matrix; `schedule` picks static round-robin or dynamic
/// (work-queue) assignment. `a` is the per-matrix pointer array.
template <typename T>
CpuBatchResult potrf_batched_per_core(const CpuSpec& spec, Schedule schedule, Uplo uplo,
                                      std::span<const int> n, T* const* a,
                                      std::span<const int> lda, std::span<int> info,
                                      bool execute);

/// All cores cooperate on one matrix at a time, in sequence.
template <typename T>
CpuBatchResult potrf_batched_multithreaded(const CpuSpec& spec, Uplo uplo,
                                           std::span<const int> n, T* const* a,
                                           std::span<const int> lda, std::span<int> info,
                                           bool execute);

}  // namespace vbatch::cpu
