#include "vbatch/core/potrf_classic.hpp"

#include <algorithm>

#include "vbatch/cpu/cpu_batched.hpp"
#include "vbatch/kernels/aux_kernels.hpp"
#include "vbatch/kernels/classic_kernels.hpp"
#include "vbatch/kernels/gemm_vbatched.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/flops.hpp"

namespace vbatch {

template <typename T>
PotrfResult potrf_batched_classic(Queue& q, Uplo uplo, Batch<T>& batch,
                                  const ClassicOptions& opts) {
  sim::Device& dev = q.device();
  auto prob = batch.problem();
  const int batch_count = prob.count();
  for (int i = 0; i < batch_count; ++i) prob.info[static_cast<std::size_t>(i)] = 0;

  PotrfResult result;
  result.path_taken = PotrfPath::Separated;
  result.flops = flops::potrf_batch(prob.n);
  const int max_n = kernels::imax_reduce(dev, prob.n);
  if (max_n == 0) return result;

  int nb = opts.nb;
  if (nb <= 0) nb = std::clamp((max_n / 8) / 8 * 8, 8, 64);
  // Full mode: the call's math first, one blas::potrf per matrix, so every
  // launch reads final info.
  if (q.full()) cpu::potrf_each<T>(uplo, prob.n, prob.ptrs, prob.lda, prob.info);

  std::vector<int> trail(static_cast<std::size_t>(batch_count));
  std::vector<int> kdim(static_cast<std::size_t>(batch_count));

  double seconds = 0.0;
  for (int j = 0; j < max_n; j += nb) {
    seconds += kernels::launch_classic_potf2<T>(dev, {prob.n, j, nb, prob.info});
    const int max_m2 = max_n - j - nb;
    if (max_m2 <= 0) continue;
    seconds += kernels::launch_classic_trsm<T>(dev, {prob.n, j, nb, prob.info});

    // Trailing update through the generic large-tile syrk, with the usual
    // aux kernels for size arithmetic and pointer displacement — none of
    // the customization the fused kernel applies (§III-D). The syrk reads
    // no info: a failed matrix's trailing launch blocks still run.
    seconds += kernels::shift_sizes(dev, prob.n, trail, j + nb);
    int live = 0;
    for (int i = 0; i < batch_count; ++i) {
      kdim[static_cast<std::size_t>(i)] = trail[static_cast<std::size_t>(i)] > 0 ? nb : 0;
      if (trail[static_cast<std::size_t>(i)] > 0) ++live;
    }
    if (live == 0) break;

    // The sub-panel and trailing-matrix pointer displacements.
    for (int d = 0; d < 2; ++d) kernels::displace_ptrs(dev, batch_count);
    kernels::SyrkVbatchedArgs<T> syrk;
    syrk.uplo = uplo;
    syrk.n = trail;
    syrk.k = kdim;
    syrk.max_n = max_m2;
    seconds += kernels::launch_syrk_vbatched<T>(dev, syrk);
  }
  result.seconds = seconds;
  return result;
}

template PotrfResult potrf_batched_classic<float>(Queue&, Uplo, Batch<float>&,
                                                  const ClassicOptions&);
template PotrfResult potrf_batched_classic<double>(Queue&, Uplo, Batch<double>&,
                                                   const ClassicOptions&);

}  // namespace vbatch
