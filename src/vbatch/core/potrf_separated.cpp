// Approach 2 driver: separated vbatched BLAS kernels (paper §III-E, §III-F).
//
// The "factorization driver" runs on the host and controls the launches of
// the vbatched building blocks for a right-looking blocked Cholesky:
//   potf2 (NB panel, the fused step on the panel's diagonal blocks) → trsm
//   (trtri of 32×32 diagonal blocks + gemm sweeps) → syrk trailing update
//   (vbatched grid or streamed per-matrix kernels).
// Between steps, auxiliary kernels shift the size arrays and displace the
// pointer arrays so fully factorized matrices are ignored without
// out-of-bound accesses.
//
// That launch sequence is the modelled cost, and each of its launches is a
// cost pass only. The numerics run matrix-major instead, once per call
// before the launches (detail::potrf_numerics): one item per matrix factors
// it from its first column to its last with the recursive blas::potrf
// (cpu::potrf_each), while its data is hot. The panel costs then read each
// matrix's final info and exit once an inner step has passed the failing
// column, as step-major numerics would have made them.
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

  for (int j = 0; j < max_n; j += NB) {
    // §III-F: the driver checks whether any matrix still has work; fully
    // factorized matrices are ignored from here on.
    if (kernels::count_live(dev, prob.n, j) == 0) break;

    kernels::Potf2PanelArgs panel;
    panel.n = prob.n;
    panel.offset = j;
    panel.NB = NB;
    panel.nb_inner = 16;
    panel.info = prob.info;
    seconds += kernels::launch_potf2_panel<T>(dev, panel);

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

    // The diagonal-block, sub-panel and trailing-matrix pointer
    // displacements; the trsm and syrk launches read only extents.
    for (int d = 0; d < 3; ++d) kernels::displace_ptrs(dev, batch);

    kernels::TrsmVbatchedArgs trsm;
    trsm.ib = trail_ib;
    trsm.m = trail_m;
    trsm.max_ib = NB;
    trsm.max_m = max_m2;
    seconds += kernels::launch_trsm_vbatched<T>(dev, trsm);

    kernels::SyrkVbatchedArgs<T> syrk;
    syrk.uplo = uplo;
    syrk.n = trail_m;
    syrk.k = trail_ib;
    syrk.max_n = max_m2;
    seconds += streamed_syrk ? kernels::launch_syrk_streamed(dev, syrk, num_streams)
                             : kernels::launch_syrk_vbatched(dev, syrk);
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
