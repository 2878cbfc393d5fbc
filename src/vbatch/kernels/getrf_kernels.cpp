#include "vbatch/kernels/getrf_kernels.hpp"

#include <algorithm>
#include <tuple>

#include "vbatch/blas/blas.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/flops.hpp"

namespace vbatch::kernels {

template <typename T>
double launch_getrf_panel(sim::Device& dev, const GetrfPanelArgs<T>& args) {
  const int batch = args.batch.count();
  require(batch > 0, "getrf_panel: empty batch");

  int max_rows = 0;
  for (int i = 0; i < batch; ++i)
    max_rows = std::max(max_rows, args.m[static_cast<std::size_t>(i)] - args.offset);
  if (max_rows <= 0) return 0.0;

  sim::LaunchConfig cfg;
  cfg.name = "vbatched_getrf_panel";
  cfg.grid_blocks = batch;
  cfg.block_threads = round_up_warp(dev.spec(), std::min(max_rows, dev.spec().max_threads_per_block));
  cfg.shared_mem = static_cast<std::size_t>(std::min(max_rows, 512)) * args.NB * sizeof(T);
  cfg.shared_mem = std::min(cfg.shared_mem, dev.spec().shared_mem_per_block);
  cfg.precision = precision_v<T>;

  // The cost reads info[i]; only block i's numerics write it, after the cost pass.
  const auto& a = args.batch;
  const index_t j = args.offset;
  auto cost_of = [&args, &a, j, threads = cfg.block_threads](int i) {
    sim::BlockCost cost;
    cost.live_threads = threads;
    const index_t rows = args.m[static_cast<std::size_t>(i)] - j;
    const index_t jb = std::min<index_t>(args.NB, a.n[static_cast<std::size_t>(i)] - j);
    if (rows <= 0 || jb <= 0 || args.info[static_cast<std::size_t>(i)] < 0) {
      cost.early_exit = true;
      return cost;
    }

    cost.active_threads = static_cast<int>(std::min<index_t>(rows, threads));
    cost.flops = flops::getrf(rows, jb);
    cost.bytes = static_cast<double>(2 * rows * jb) * sizeof(T);
    cost.sync_steps = static_cast<int>(2 * jb);           // pivot search + swap per column
    cost.serial_ops = static_cast<double>(2 * jb);        // max-reduce + reciprocal chains
    return cost;
  };
  auto math = [&args, &a, j](int i) {
    const auto k = static_cast<std::size_t>(i);
    const index_t jb = std::min<index_t>(args.NB, a.n[k] - j);
    MatrixView<T> panel(a.ptrs[i] + j + j * a.lda[k], args.m[k] - j, jb, a.lda[k]);
    std::span<int> piv{args.ipiv[i] + j, static_cast<std::size_t>(jb)};
    const int local = blas::getf2<T>(panel, piv);
    // Globalize pivot rows.
    for (int& p : piv) p += static_cast<int>(j);
    if (local != 0 && args.info[k] == 0) args.info[k] = static_cast<int>(j) + local;
  };
  return dev.launch(cfg, cost_of, math);
}

template <typename T>
double launch_laswp(sim::Device& dev, const LaswpArgs<T>& args) {
  const int batch = args.batch.count();
  require(batch > 0, "laswp: empty batch");
  if (args.col1 <= args.col0 || args.k2 <= args.k1) return 0.0;

  const int cols_per_block = 64;
  const int strips = std::max(1, (args.max_cols + cols_per_block - 1) / cols_per_block);

  sim::LaunchConfig cfg;
  cfg.name = "vbatched_laswp";
  cfg.grid_blocks = batch * strips;
  cfg.block_threads = 128;
  cfg.shared_mem = 0;
  cfg.precision = precision_v<T>;

  // Block → (matrix, columns [c0, c1) of its strip).
  const auto& a = args.batch;
  auto strip_of = [&args, &a, strips](int block) {
    const int i = block / strips;
    const index_t c0 = args.col0 + static_cast<index_t>(block % strips) * 64;
    const index_t c1 = std::min<index_t>({args.col1, a.n[static_cast<std::size_t>(i)], c0 + 64});
    return std::tuple{i, c0, c1};
  };
  auto cost_of = [&args, strip_of](int block) {
    const auto [i, c0, c1] = strip_of(block);
    sim::BlockCost cost;
    cost.live_threads = 128;
    if (c0 >= c1 || args.m[static_cast<std::size_t>(i)] <= args.k1) {
      cost.early_exit = true;
      return cost;
    }

    const index_t ncols = c1 - c0;
    const index_t swaps = args.k2 - args.k1;
    cost.active_threads = static_cast<int>(std::min<index_t>(ncols * 2, 128));
    cost.bytes = static_cast<double>(4 * swaps * ncols) * sizeof(T);  // 2 reads + 2 writes
    cost.sync_steps = static_cast<int>(swaps);
    return cost;
  };
  auto math = [&args, &a, strip_of](int block) {
    const auto [i, c0, c1] = strip_of(block);
    const auto k = static_cast<std::size_t>(i);
    MatrixView<T> cols(a.ptrs[i] + c0 * a.lda[k], args.m[k], c1 - c0, a.lda[k]);
    std::span<const int> piv{args.ipiv[i], static_cast<std::size_t>(args.k2)};
    blas::laswp<T>(cols, piv, args.k1, std::min<index_t>(args.k2, a.n[k]));
  };
  return dev.launch(cfg, cost_of, math);
}

template <typename T>
double launch_lu_trsm(sim::Device& dev, const LuTrsmArgs<T>& args) {
  const int batch = static_cast<int>(args.ib.size());
  require(batch > 0, "lu_trsm: empty batch");
  if (args.max_n2 <= 0) return 0.0;

  const GemmTiling& t = args.tiling;
  const int strips = (args.max_n2 + t.tn - 1) / t.tn;

  sim::LaunchConfig cfg;
  cfg.name = "vbatched_lu_trsm";
  cfg.grid_blocks = batch * strips;
  cfg.block_threads = t.threads;
  cfg.shared_mem = t.shared_mem(sizeof(T));
  cfg.precision = precision_v<T>;

  // Block → (matrix, columns [c0, c0 + tn) of its strip).
  auto strip_of = [&args, strips, &t](int block) {
    const int i = block / strips;
    const index_t c0 = static_cast<index_t>(block % strips) * t.tn;
    return std::tuple{i, c0, std::min<index_t>(t.tn, args.n2[static_cast<std::size_t>(i)] - c0)};
  };
  auto cost_of = [&args, &t, strip_of](int block) {
    const auto [i, c0, tn] = strip_of(block);
    const index_t ibi = args.ib[static_cast<std::size_t>(i)];
    sim::BlockCost cost;
    cost.live_threads = t.threads;
    if (ibi <= 0 || tn <= 0) {
      cost.early_exit = true;
      return cost;
    }

    cost.active_threads = std::max(32, static_cast<int>(t.threads * tn / t.tn));
    cost.flops = flops::trsm(ibi, tn, true);
    cost.bytes = static_cast<double>(ibi * ibi / 2 + 2 * ibi * tn) * sizeof(T);
    cost.sync_steps = static_cast<int>(ibi + 2);
    return cost;
  };
  auto math = [&args, strip_of](int block) {
    const auto [i, c0, tn] = strip_of(block);
    const auto k = static_cast<std::size_t>(i);
    ConstMatrixView<T> l11(args.l11[i], args.ib[k], args.ib[k], args.lda[k]);
    MatrixView<T> tile(args.b[i] + c0 * args.ldb[k], args.ib[k], tn, args.ldb[k]);
    blas::trsm<T>(Side::Left, Uplo::Lower, Trans::NoTrans, Diag::Unit, T(1), l11, tile);
  };
  return dev.launch(cfg, cost_of, math);
}

template double launch_getrf_panel<float>(sim::Device&, const GetrfPanelArgs<float>&);
template double launch_getrf_panel<double>(sim::Device&, const GetrfPanelArgs<double>&);
template double launch_laswp<float>(sim::Device&, const LaswpArgs<float>&);
template double launch_laswp<double>(sim::Device&, const LaswpArgs<double>&);
template double launch_lu_trsm<float>(sim::Device&, const LuTrsmArgs<float>&);
template double launch_lu_trsm<double>(sim::Device&, const LuTrsmArgs<double>&);

}  // namespace vbatch::kernels
