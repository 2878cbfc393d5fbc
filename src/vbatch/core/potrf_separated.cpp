// Approach 2 driver: separated vbatched BLAS kernels (paper §III-E, §III-F).
//
// The "factorization driver" runs on the host and controls the launches of
// the vbatched building blocks for a right-looking blocked Cholesky:
//   potf2 (NB panel, the fused step on the panel's diagonal blocks) → trsm
//   (trtri of 32×32 diagonal blocks + gemm sweeps) → syrk trailing update
//   (vbatched grid or streamed per-matrix kernels).
// The launches are the modelled cost; the host numerics take host-shaped
// forms of the same work. The panel factors its diagonal tiles in lane
// groups, the trsm solves each panel with one blas::trsm (the inverted
// blocks are never formed), and the syrk updates each trailing matrix in
// column strips, a pack-once blas::syrk of the strip's diagonal block plus
// one blas::gemm beside it. No step reads the triangle LAPACK leaves
// unreferenced.
// Between steps, auxiliary kernels shift the size arrays and displace the
// pointer arrays so fully factorized matrices are ignored without
// out-of-bound accesses.
#include <vector>

#include "vbatch/core/potrf_vbatched.hpp"
#include "vbatch/kernels/aux_kernels.hpp"
#include "vbatch/kernels/gemm_vbatched.hpp"
#include "vbatch/kernels/potf2_panel.hpp"
#include "vbatch/kernels/trsm_vbatched.hpp"
#include "vbatch/util/error.hpp"

namespace vbatch::detail {

/// Panel blocking for the separated path: the largest square panel the
/// potf2 kernel can stage, rounded to the trtri block quantum.
int default_separated_nb(std::size_t elem_size) noexcept {
  return elem_size == sizeof(double) ? 64 : 96;
}

template <typename T>
double potrf_separated_run(Queue& q, Uplo uplo, const VbatchedProblem<T>& prob, int max_n,
                           int NB, bool streamed_syrk, int num_streams) {
  require(max_n >= 1, "potrf_separated: max_n must be positive");
  if (NB <= 0) NB = default_separated_nb(sizeof(T));
  const int batch = prob.count();
  sim::Device& dev = q.device();
  double seconds = 0.0;

  std::vector<int> trail_m(static_cast<std::size_t>(batch));
  std::vector<int> trail_ib(static_cast<std::size_t>(batch));
  // Displaced-pointer scratch and the panel's sub-batch mirrors, reused
  // across panel steps (one buffer per operand for the whole call instead
  // of allocations per step).
  std::vector<T*> diag_ptrs, sub_ptrs, trail_ptrs;
  kernels::PanelScratch<T> panel_scratch;

  for (int j = 0; j < max_n; j += NB) {
    // §III-F: the driver checks whether any matrix still has work; fully
    // factorized matrices are ignored from here on.
    if (kernels::count_live(dev, prob.n, j) == 0) break;

    kernels::Potf2PanelArgs<T> panel;
    panel.batch = {prob.ptrs, prob.n, prob.lda};
    panel.uplo = uplo;
    panel.offset = j;
    panel.NB = NB;
    panel.nb_inner = 16;
    panel.info = prob.info;
    panel.scratch = &panel_scratch;
    seconds += kernels::launch_potf2_panel(dev, panel);

    const int max_m2 = max_n - j - NB;
    if (max_m2 <= 0) continue;

    // Trailing extents: only matrices with n_i > j + NB have a trailing
    // part, and for those the panel is exactly NB wide.
    seconds += kernels::shift_sizes(dev, prob.n, trail_m, j + NB);
    int live_trailing = 0;
    for (int i = 0; i < batch; ++i) {
      trail_ib[static_cast<std::size_t>(i)] = trail_m[static_cast<std::size_t>(i)] > 0 ? NB : 0;
      if (trail_m[static_cast<std::size_t>(i)] > 0) ++live_trailing;
    }
    if (live_trailing == 0) continue;

    std::span<T* const> base{prob.ptrs, static_cast<std::size_t>(batch)};
    kernels::displace_ptrs<T>(dev, base, prob.lda, j, j, diag_ptrs);
    if (uplo == Uplo::Lower) {
      kernels::displace_ptrs<T>(dev, base, prob.lda, j + NB, j, sub_ptrs);
    } else {
      kernels::displace_ptrs<T>(dev, base, prob.lda, j, j + NB, sub_ptrs);
    }
    kernels::displace_ptrs<T>(dev, base, prob.lda, j + NB, j + NB, trail_ptrs);

    kernels::TrsmVbatchedArgs<T> trsm;
    trsm.uplo = uplo;
    trsm.a = diag_ptrs.data();
    trsm.lda = prob.lda;
    trsm.ib = trail_ib;
    trsm.b = sub_ptrs.data();
    trsm.ldb = prob.lda;
    trsm.m = trail_m;
    trsm.max_ib = NB;
    trsm.max_m = max_m2;
    seconds += kernels::launch_trsm_vbatched(dev, trsm);

    kernels::SyrkVbatchedArgs<T> syrk;
    syrk.uplo = uplo;
    syrk.trans = uplo == Uplo::Lower ? Trans::NoTrans : Trans::Trans;
    syrk.n = trail_m;
    syrk.k = trail_ib;
    syrk.max_n = max_m2;
    syrk.alpha = T(-1);
    syrk.beta = T(1);
    syrk.a = sub_ptrs.data();
    syrk.lda = prob.lda;
    syrk.c = trail_ptrs.data();
    syrk.ldc = prob.lda;
    if (streamed_syrk) {
      seconds += kernels::launch_syrk_streamed(dev, syrk, num_streams);
    } else {
      seconds += kernels::launch_syrk_vbatched(dev, syrk);
    }
  }
  return seconds;
}

template double potrf_separated_run<float>(Queue&, Uplo, const VbatchedProblem<float>&, int,
                                           int, bool, int);
template double potrf_separated_run<double>(Queue&, Uplo, const VbatchedProblem<double>&, int,
                                            int, bool, int);
template double potrf_separated_run<std::complex<float>>(
    Queue&, Uplo, const VbatchedProblem<std::complex<float>>&, int, int, bool, int);
template double potrf_separated_run<std::complex<double>>(
    Queue&, Uplo, const VbatchedProblem<std::complex<double>>&, int, int, bool, int);

}  // namespace vbatch::detail
