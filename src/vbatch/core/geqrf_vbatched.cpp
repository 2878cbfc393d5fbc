#include "vbatch/core/geqrf_vbatched.hpp"

#include <algorithm>

#include "vbatch/blas/blas.hpp"
#include "vbatch/kernels/aux_kernels.hpp"
#include "vbatch/kernels/common.hpp"
#include "vbatch/kernels/geqrf_kernels.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/flops.hpp"

namespace vbatch {

template <typename T>
FactorResult geqrf_vbatched(Queue& q, RectBatch<T>& batch, TauArrays<T>& tau,
                            const GeqrfOptions& opts) {
  sim::Device& dev = q.device();
  const int count = batch.count();
  const int NB = std::max(8, opts.panel_nb);
  const auto m = batch.rows();
  const auto n = batch.cols();
  tau.require_min_extents("geqrf_vbatched: tau", m, n);

  // Full mode: the call's math first; no launch below reads the payload.
  if (q.full())
    kernels::geqrf_numerics<T>(batch.device_ptrs(), batch.ldas(), m, n, NB, tau.ptrs());

  FactorResult result;
  result.flops = flops::geqrf_batch(m, n);

  std::vector<int> mn(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    mn[static_cast<std::size_t>(i)] =
        std::min(m[static_cast<std::size_t>(i)], n[static_cast<std::size_t>(i)]);
  // Both maxima come from one metadata sweep instead of two back-to-back
  // reduction launches; the empty third span reads no bytes.
  const auto maxima = kernels::imax_reduce3(dev, mn, m, {});
  const int max_mn = maxima[0], max_m = maxima[1];
  if (max_mn == 0) return result;

  double seconds = 0.0;
  for (int j = 0; j < max_mn; j += NB) {
    if (kernels::count_live(dev, mn, j) == 0) break;

    seconds += kernels::launch_geqrf_panel<T>(dev, {m, n, j, NB});

    // The update covers each live panel's trailing columns, n_i − j − jb_i:
    // wider than n_i − j − NB when a wide matrix's last panel is narrow.
    int width = 0;
    for (int i = 0; i < count; ++i) {
      const auto k = static_cast<std::size_t>(i);
      const int jb = std::min(NB, mn[k] - j);
      if (jb > 0) width = std::max(width, n[k] - j - jb);
    }
    if (width > 0)
      seconds += kernels::launch_larfb_update<T>(dev, {m, n, j, NB, max_m, width});
  }
  result.seconds = seconds;
  return result;
}

namespace {

// Shared kernel for ormqr (apply Qᵀ) with an optional fused R-backsolve
// (the geqrs case). One block per (matrix, rhs strip); the numerics pass
// follows the launch.
template <typename T>
FactorResult apply_qt_kernel(Queue& q, RectBatch<T>& factors, const TauArrays<T>& tau,
                             RectBatch<T>& rhs, bool backsolve, const char* name) {
  require(factors.count() == rhs.count(), "ormqr/geqrs: batch count mismatch");
  auto frows = factors.rows();
  auto fcols = factors.cols();
  auto fldas = factors.ldas();
  T** fptrs = factors.device_ptrs();
  auto rcols = rhs.cols();
  auto rldas = rhs.ldas();
  T** rptrs = rhs.device_ptrs();
  T* const* tptrs = tau.ptrs();

  FactorResult result;
  for (int i = 0; i < factors.count(); ++i) {
    const auto k = static_cast<std::size_t>(i);
    const int mi = frows[k];
    const int ni = fcols[k];
    require(mi >= ni, "ormqr/geqrs: requires m >= n");
    require(rhs.rows()[k] == mi, "ormqr/geqrs: rhs rows != m");
    result.flops += 4.0 * mi * ni * rcols[k];  // reflector applications
    if (backsolve) result.flops += flops::trsm(ni, rcols[k], true);
  }
  tau.require_min_extents(backsolve ? "geqrs_vbatched: tau" : "ormqr_vbatched: tau", frows,
                          fcols);

  const kernels::RhsStrips grid(frows, fcols, rcols, {});
  result.seconds = kernels::launch_rhs_strips<T>(
      q.device(), name, grid, [&](const kernels::RhsStrip& s, sim::BlockCost& cost) {
        const auto k = static_cast<std::size_t>(s.i);
        const index_t m = frows[k];
        const index_t n = fcols[k];
        const index_t nc = s.nc;
        cost.flops = 4.0 * static_cast<double>(m) * static_cast<double>(n) *
                     static_cast<double>(nc);
        cost.bytes = static_cast<double>(m * n + 2 * m * nc) * sizeof(T);
        cost.sync_steps = static_cast<int>(2 * n);  // per-reflector dot + axpy
        cost.serial_ops = static_cast<double>(n);
        if (backsolve) {
          cost.flops += flops::trsm(n, nc, true);
          cost.sync_steps += static_cast<int>(n);
          cost.serial_ops += static_cast<double>(n);
        }
      });
  if (!q.full()) return result;
  kernels::rhs_strips_numerics(grid, [&](const kernels::RhsStrip& s) {
    const auto k = static_cast<std::size_t>(s.i);
    const index_t m = frows[k];
    const index_t n = fcols[k];
    const index_t nc = s.nc;
    const index_t lda = fldas[k];
    const index_t ldb = rldas[k];
    const T* A = fptrs[s.i];
    T* B = rptrs[s.i] + s.c0 * ldb;
    const T* tv = tptrs[s.i];
    // Apply H(0) … H(n-1) to the strip: Qᵀ = H(n-1)…H(0) applied in
    // ascending order.
    for (index_t kk = 0; kk < n; ++kk) {
      const T tk = tv[kk];
      if (tk == T(0)) continue;
      const T* v = A + kk + kk * lda;  // v(0) implicit 1
      for (index_t c = 0; c < nc; ++c) {
        T* col = B + c * ldb;
        T w = col[kk];
        for (index_t r = kk + 1; r < m; ++r) w += v[r - kk] * col[r];
        w *= tk;
        col[kk] -= w;
        for (index_t r = kk + 1; r < m; ++r) col[r] -= v[r - kk] * w;
      }
    }
    if (backsolve) {
      ConstMatrixView<T> R(A, n, n, lda);
      MatrixView<T> x(B, n, nc, ldb);
      blas::trsm<T>(Side::Left, Uplo::Upper, Trans::NoTrans, Diag::NonUnit, T(1), R, x);
    }
  });
  return result;
}

}  // namespace

template <typename T>
FactorResult ormqr_vbatched(Queue& q, RectBatch<T>& factors, const TauArrays<T>& tau,
                            RectBatch<T>& c) {
  return apply_qt_kernel<T>(q, factors, tau, c, false, "vbatched_ormqr");
}

template <typename T>
FactorResult geqrs_vbatched(Queue& q, RectBatch<T>& factors, const TauArrays<T>& tau,
                            RectBatch<T>& rhs) {
  return apply_qt_kernel<T>(q, factors, tau, rhs, true, "vbatched_geqrs");
}

template FactorResult geqrf_vbatched<float>(Queue&, RectBatch<float>&, TauArrays<float>&,
                                            const GeqrfOptions&);
template FactorResult geqrf_vbatched<double>(Queue&, RectBatch<double>&, TauArrays<double>&,
                                             const GeqrfOptions&);
template FactorResult ormqr_vbatched<float>(Queue&, RectBatch<float>&, const TauArrays<float>&,
                                            RectBatch<float>&);
template FactorResult ormqr_vbatched<double>(Queue&, RectBatch<double>&,
                                             const TauArrays<double>&, RectBatch<double>&);
template FactorResult geqrs_vbatched<float>(Queue&, RectBatch<float>&, const TauArrays<float>&,
                                            RectBatch<float>&);
template FactorResult geqrs_vbatched<double>(Queue&, RectBatch<double>&,
                                             const TauArrays<double>&, RectBatch<double>&);

}  // namespace vbatch
