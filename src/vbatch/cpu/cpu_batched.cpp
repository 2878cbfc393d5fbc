#include "vbatch/cpu/cpu_batched.hpp"

#include <algorithm>
#include <vector>

#include "vbatch/blas/blas.hpp"
#include "vbatch/kernels/common.hpp"
#include "vbatch/util/flops.hpp"

namespace vbatch::cpu {

template <typename T>
void potrf_each(Uplo uplo, std::span<const int> n, T* const* a, std::span<const int> lda,
                std::span<int> info) {
  const int count = static_cast<int>(n.size());
  int steps = 0;
  for (int ni : n) steps += (ni + 15) / 16;
  kernels::parallel_for_grained(count, steps, [&](int i) {
    const auto k = static_cast<std::size_t>(i);
    info[k] = blas::potrf<T>(uplo, MatrixView<T>(a[i], n[k], n[k], lda[k]));
  });
}

double per_core_makespan(const CpuSpec& spec, Schedule schedule, Precision prec,
                         std::span<const int> n) {
  const int count = static_cast<int>(n.size());
  // Per-matrix modelled task times (single core + dispatch overhead).
  std::vector<double> task(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int ni = n[static_cast<std::size_t>(i)];
    task[static_cast<std::size_t>(i)] =
        spec.core_seconds(prec, ni, flops::potrf(ni)) + spec.task_overhead_us * 1e-6;
  }

  // Makespan of the chosen schedule over the modelled 16 cores.
  std::vector<double> core_time(static_cast<std::size_t>(spec.cores), 0.0);
  if (schedule == Schedule::Static) {
    for (int i = 0; i < count; ++i)
      core_time[static_cast<std::size_t>(i % spec.cores)] += task[static_cast<std::size_t>(i)];
  } else {
    // Dynamic: each matrix goes to the earliest-available core, in batch
    // order — list scheduling, the behaviour of an OpenMP dynamic loop.
    for (int i = 0; i < count; ++i) {
      auto it = std::min_element(core_time.begin(), core_time.end());
      *it += task[static_cast<std::size_t>(i)];
    }
  }
  return *std::max_element(core_time.begin(), core_time.end());
}

template <typename T>
CpuBatchResult potrf_batched_per_core(const CpuSpec& spec, Schedule schedule, Uplo uplo,
                                      std::span<const int> n, T* const* a,
                                      std::span<const int> lda, std::span<int> info,
                                      bool execute) {
  CpuBatchResult result;
  result.flops = flops::potrf_batch(n);
  result.seconds = per_core_makespan(spec, schedule, precision_v<T>, n);

  if (execute) potrf_each<T>(uplo, n, a, lda, info);
  return result;
}

template <typename T>
CpuBatchResult potrf_batched_multithreaded(const CpuSpec& spec, Uplo uplo,
                                           std::span<const int> n, T* const* a,
                                           std::span<const int> lda, std::span<int> info,
                                           bool execute) {
  const int count = static_cast<int>(n.size());
  CpuBatchResult result;
  result.flops = flops::potrf_batch(n);
  for (int i = 0; i < count; ++i) {
    const int ni = n[static_cast<std::size_t>(i)];
    result.seconds += spec.multithreaded_seconds(precision_v<T>, ni, flops::potrf(ni));
  }
  if (execute) potrf_each<T>(uplo, n, a, lda, info);
  return result;
}

#define VBATCH_INSTANTIATE_POTRF_EACH(T)                                                     \
  template void potrf_each<T>(Uplo, std::span<const int>, T* const*, std::span<const int>,  \
                              std::span<int>);
VBATCH_INSTANTIATE_POTRF_EACH(float)
VBATCH_INSTANTIATE_POTRF_EACH(double)
VBATCH_INSTANTIATE_POTRF_EACH(std::complex<float>)
VBATCH_INSTANTIATE_POTRF_EACH(std::complex<double>)
#undef VBATCH_INSTANTIATE_POTRF_EACH

template CpuBatchResult potrf_batched_per_core<float>(const CpuSpec&, Schedule, Uplo,
                                                      std::span<const int>, float* const*,
                                                      std::span<const int>, std::span<int>,
                                                      bool);
template CpuBatchResult potrf_batched_per_core<double>(const CpuSpec&, Schedule, Uplo,
                                                       std::span<const int>, double* const*,
                                                       std::span<const int>, std::span<int>,
                                                       bool);
template CpuBatchResult potrf_batched_multithreaded<float>(const CpuSpec&, Uplo,
                                                           std::span<const int>, float* const*,
                                                           std::span<const int>, std::span<int>,
                                                           bool);
template CpuBatchResult potrf_batched_multithreaded<double>(const CpuSpec&, Uplo,
                                                            std::span<const int>,
                                                            double* const*,
                                                            std::span<const int>,
                                                            std::span<int>, bool);

}  // namespace vbatch::cpu
