#include "vbatch/core/getrf_vbatched.hpp"

#include <algorithm>

#include "vbatch/blas/blas.hpp"
#include "vbatch/kernels/aux_kernels.hpp"
#include "vbatch/kernels/getrf_kernels.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/flops.hpp"

namespace vbatch {

template <typename T>
FactorResult getrf_vbatched(Queue& q, Batch<T>& batch, PivotArrays& ipiv,
                            const GetrfOptions& opts) {
  sim::Device& dev = q.device();
  auto prob = batch.problem();
  ipiv.require_min_extents("getrf_vbatched: ipiv", prob.n, prob.n);
  const int batch_count = prob.count();
  const int NB = std::max(8, opts.panel_nb);
  for (int i = 0; i < batch_count; ++i) prob.info[static_cast<std::size_t>(i)] = 0;

  // Full mode: the call's math first, one blas::getrf per matrix; no
  // launch below reads what it writes.
  if (q.full())
    kernels::getrf_numerics<T>(prob.ptrs, prob.lda, prob.n, NB, ipiv.ptrs(), prob.info);

  FactorResult result;
  result.flops = flops::getrf_batch(prob.n, prob.n);
  const int max_n = kernels::imax_reduce(dev, prob.n);
  if (max_n == 0) return result;

  std::vector<int> trail(static_cast<std::size_t>(batch_count));
  std::vector<int> full_nb(static_cast<std::size_t>(batch_count));

  double seconds = 0.0;
  for (int j = 0; j < max_n; j += NB) {
    if (kernels::count_live(dev, prob.n, j) == 0) break;
    const int jb_max = std::min(NB, max_n - j);
    seconds += kernels::launch_getrf_panel<T>(dev, {prob.n, prob.n, j, NB});
    // Row interchanges left of the panel.
    if (j > 0) seconds += kernels::launch_laswp<T>(dev, {prob.n, prob.n, j, j + jb_max, 0, j, j});

    const int max_t = max_n - j - NB;
    if (max_t <= 0) continue;

    // Row interchanges right of the panel, then the U12 solve and the
    // trailing gemm update — only matrices with n_i > j + NB participate.
    seconds += kernels::launch_laswp<T>(dev, {prob.n, prob.n, j, j + NB, j + NB, max_n, max_t});
    seconds += kernels::shift_sizes(dev, prob.n, trail, j + NB);
    for (int i = 0; i < batch_count; ++i)
      full_nb[static_cast<std::size_t>(i)] = trail[static_cast<std::size_t>(i)] > 0 ? NB : 0;

    // The L11, U12, L21 and A22 pointer displacements.
    for (int d = 0; d < 4; ++d) kernels::displace_ptrs(dev, batch_count);
    seconds += kernels::launch_lu_trsm<T>(dev, {full_nb, trail, max_t});
    kernels::GemmVbatchedArgs<T> update;
    update.m = trail;
    update.n = trail;
    update.k = full_nb;
    update.max_m = max_t;
    update.max_n = max_t;
    seconds += kernels::launch_gemm_vbatched<T>(dev, update);
  }
  result.seconds = seconds;
  return result;
}

template <typename T>
FactorResult getrs_vbatched(Queue& q, Batch<T>& factors, const PivotArrays& ipiv,
                            RectBatch<T>& rhs) {
  require(factors.count() == rhs.count(), "getrs_vbatched: batch count mismatch");
  auto fsizes = factors.sizes();
  auto fldas = factors.ldas();
  T** fptrs = factors.device_ptrs();
  auto rcols = rhs.cols();
  auto rldas = rhs.ldas();
  T** rptrs = rhs.device_ptrs();
  int* const* piv = ipiv.ptrs();

  FactorResult result;
  for (int i = 0; i < factors.count(); ++i) {
    const auto k = static_cast<std::size_t>(i);
    require(fsizes[k] == rhs.rows()[k], "getrs_vbatched: rhs rows != matrix order");
    result.flops += 2.0 * flops::trsm(fsizes[k], rcols[k], true);
  }
  ipiv.require_min_extents("getrs_vbatched: ipiv", fsizes, fsizes);

  // One fused kernel block per (matrix, rhs strip): apply the row
  // interchanges, then the unit-lower and upper triangular sweeps. The
  // numerics pass follows the launch.
  const kernels::RhsStrips grid(fsizes, fsizes, rcols, factors.info());
  result.seconds = kernels::launch_rhs_strips<T>(
      q.device(), "vbatched_getrs", grid, [&](const kernels::RhsStrip& s, sim::BlockCost& cost) {
        const index_t n = fsizes[static_cast<std::size_t>(s.i)];
        cost.flops = 2.0 * flops::trsm(n, s.nc, true);
        cost.bytes = static_cast<double>(n * n + 2 * n * s.nc) * sizeof(T);
        cost.sync_steps = static_cast<int>(2 * n);
        cost.serial_ops = static_cast<double>(n);  // upper sweep reciprocal chain
      });
  if (!q.full()) return result;
  kernels::rhs_strips_numerics(grid, [&](const kernels::RhsStrip& s) {
    const auto k = static_cast<std::size_t>(s.i);
    const index_t n = fsizes[k];
    const index_t ldb = rldas[k];
    ConstMatrixView<T> lu(fptrs[s.i], n, n, fldas[k]);
    MatrixView<T> b(rptrs[s.i] + s.c0 * ldb, n, s.nc, ldb);
    std::span<const int> pv{piv[s.i], static_cast<std::size_t>(n)};
    blas::laswp<T>(b, pv, 0, n);
    blas::trsm<T>(Side::Left, Uplo::Lower, Trans::NoTrans, Diag::Unit, T(1), lu, b);
    blas::trsm<T>(Side::Left, Uplo::Upper, Trans::NoTrans, Diag::NonUnit, T(1), lu, b);
  });
  return result;
}

template FactorResult getrf_vbatched<float>(Queue&, Batch<float>&, PivotArrays&,
                                            const GetrfOptions&);
template FactorResult getrf_vbatched<double>(Queue&, Batch<double>&, PivotArrays&,
                                             const GetrfOptions&);
template FactorResult getrs_vbatched<float>(Queue&, Batch<float>&, const PivotArrays&,
                                            RectBatch<float>&);
template FactorResult getrs_vbatched<double>(Queue&, Batch<double>&, const PivotArrays&,
                                             RectBatch<double>&);

}  // namespace vbatch
