#include "vbatch/core/potrs_vbatched.hpp"

#include <algorithm>

#include "vbatch/blas/blas.hpp"
#include "vbatch/kernels/common.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/flops.hpp"

namespace vbatch {

template <typename T>
FactorResult potrs_vbatched(Queue& q, Uplo uplo, Batch<T>& factors, RectBatch<T>& rhs) {
  require(factors.count() == rhs.count(), "potrs_vbatched: batch count mismatch");
  auto fsizes = factors.sizes();
  auto fldas = factors.ldas();
  T** fptrs = factors.device_ptrs();
  auto rcols = rhs.cols();
  auto rldas = rhs.ldas();
  T** rptrs = rhs.device_ptrs();

  FactorResult result;
  for (int i = 0; i < factors.count(); ++i) {
    const auto k = static_cast<std::size_t>(i);
    require(fsizes[k] == rhs.rows()[k], "potrs_vbatched: rhs rows != matrix order");
    result.flops += flops::potrs(fsizes[k], rcols[k]);
  }

  // One block per (matrix, rhs strip): the two triangular sweeps are fused
  // into a single kernel, the rhs strip staged through shared memory. The
  // numerics pass follows the launch.
  const kernels::RhsStrips grid(fsizes, fsizes, rcols, factors.info());
  result.seconds = kernels::launch_rhs_strips<T>(
      q.device(), "vbatched_potrs", grid, [&](const kernels::RhsStrip& s, sim::BlockCost& cost) {
        const index_t n = fsizes[static_cast<std::size_t>(s.i)];
        cost.flops = flops::potrs(n, s.nc);
        cost.bytes = static_cast<double>(n * n / 2 + 2 * n * s.nc) * sizeof(T);
        cost.sync_steps = static_cast<int>(2 * n);  // forward + backward column sweeps
        cost.serial_ops = static_cast<double>(2 * n);
      });
  if (!q.full()) return result;
  kernels::rhs_strips_numerics(grid, [&](const kernels::RhsStrip& s) {
    const auto k = static_cast<std::size_t>(s.i);
    const index_t n = fsizes[k];
    ConstMatrixView<T> a(fptrs[s.i], n, n, fldas[k]);
    MatrixView<T> b(rptrs[s.i] + s.c0 * rldas[k], n, s.nc, rldas[k]);
    blas::potrs<T>(uplo, a, b);
  });
  return result;
}

template <typename T>
FactorResult posv_vbatched(Queue& q, Uplo uplo, Batch<T>& a, RectBatch<T>& rhs,
                           const PotrfOptions& opts) {
  const PotrfResult fac = potrf_vbatched<T>(q, uplo, a, opts);
  const FactorResult sol = potrs_vbatched<T>(q, uplo, a, rhs);
  FactorResult result;
  result.seconds = fac.seconds + sol.seconds;
  result.flops = fac.flops + sol.flops;
  return result;
}

template <typename T>
FactorResult potri_vbatched(Queue& q, Uplo uplo, Batch<T>& factors) {
  sim::Device& dev = q.device();
  const int count = factors.count();

  int max_n = 0;
  double total_flops = 0.0;
  for (int i = 0; i < count; ++i) {
    const int n = factors.sizes()[static_cast<std::size_t>(i)];
    max_n = std::max(max_n, n);
    total_flops += 2.0 * flops::trtri(n);  // trtri + the lauum product
  }

  FactorResult result;
  result.flops = total_flops;
  if (max_n == 0) return result;

  const int threads = kernels::round_up_warp(dev.spec(), std::min(max_n, 512));
  const sim::LaunchConfig cfg{
      "vbatched_potri", count, threads,
      std::min<std::size_t>(static_cast<std::size_t>(std::min(max_n, 256)) * 16 * sizeof(T),
                            dev.spec().shared_mem_per_block),
      precision_v<T>};
  auto sizes = factors.sizes();
  auto ldas = factors.ldas();
  auto info = factors.info();
  T** ptrs = factors.device_ptrs();

  // The cost reads info[i], which the numerics pass after the launch writes.
  auto cost_of = [&, threads](int i) {
    const index_t n = sizes[static_cast<std::size_t>(i)];
    sim::BlockCost cost;
    cost.live_threads = threads;
    if (n == 0 || info[static_cast<std::size_t>(i)] != 0) {
      cost.early_exit = true;
      return cost;
    }
    cost.active_threads = static_cast<int>(std::min<index_t>(n, threads));
    cost.flops = 2.0 * flops::trtri(n);
    cost.bytes = static_cast<double>(2 * n * n) * sizeof(T);
    cost.sync_steps = static_cast<int>(2 * n);
    cost.serial_ops = static_cast<double>(n);  // the trtri reciprocal chain
    return cost;
  };
  result.seconds = dev.launch(cfg, cost_of);
  if (!q.full()) return result;
  kernels::parallel_for_grained(count, count, [&](int i) {
    const auto k = static_cast<std::size_t>(i);
    if (sizes[k] == 0 || info[k] != 0) return;
    const int local = blas::potri<T>(uplo, MatrixView<T>(ptrs[i], sizes[k], sizes[k], ldas[k]));
    if (local != 0) info[k] = local;
  });
  return result;
}

template FactorResult potri_vbatched<float>(Queue&, Uplo, Batch<float>&);
template FactorResult potri_vbatched<double>(Queue&, Uplo, Batch<double>&);

template FactorResult potrs_vbatched<float>(Queue&, Uplo, Batch<float>&, RectBatch<float>&);
template FactorResult potrs_vbatched<double>(Queue&, Uplo, Batch<double>&, RectBatch<double>&);
template FactorResult posv_vbatched<float>(Queue&, Uplo, Batch<float>&, RectBatch<float>&,
                                           const PotrfOptions&);
template FactorResult posv_vbatched<double>(Queue&, Uplo, Batch<double>&, RectBatch<double>&,
                                            const PotrfOptions&);
template FactorResult potrs_vbatched<std::complex<float>>(Queue&, Uplo,
                                                          Batch<std::complex<float>>&,
                                                          RectBatch<std::complex<float>>&);
template FactorResult potrs_vbatched<std::complex<double>>(Queue&, Uplo,
                                                           Batch<std::complex<double>>&,
                                                           RectBatch<std::complex<double>>&);
template FactorResult potri_vbatched<std::complex<float>>(Queue&, Uplo,
                                                          Batch<std::complex<float>>&);
template FactorResult potri_vbatched<std::complex<double>>(Queue&, Uplo,
                                                           Batch<std::complex<double>>&);
template FactorResult posv_vbatched<std::complex<float>>(Queue&, Uplo,
                                                         Batch<std::complex<float>>&,
                                                         RectBatch<std::complex<float>>&,
                                                         const PotrfOptions&);
template FactorResult posv_vbatched<std::complex<double>>(Queue&, Uplo,
                                                          Batch<std::complex<double>>&,
                                                          RectBatch<std::complex<double>>&,
                                                          const PotrfOptions&);

}  // namespace vbatch
