#include "vbatch/kernels/getrf_kernels.hpp"

#include <algorithm>

#include "vbatch/blas/blas.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/flops.hpp"

namespace vbatch::kernels {

template <typename T>
double launch_getrf_panel(sim::Device& dev, const GetrfPanelArgs<T>& args) {
  const int batch = static_cast<int>(args.n.size());
  require(batch > 0, "getrf_panel: empty batch");

  int max_rows = 0;
  for (int i = 0; i < batch; ++i)
    max_rows = std::max(max_rows, args.m[static_cast<std::size_t>(i)] - args.offset);
  if (max_rows <= 0) return 0.0;

  const int threads =
      round_up_warp(dev.spec(), std::min(max_rows, dev.spec().max_threads_per_block));
  const sim::LaunchConfig cfg{
      "vbatched_getrf_panel", batch, threads,
      std::min(static_cast<std::size_t>(std::min(max_rows, 512)) * args.NB * sizeof(T),
               dev.spec().shared_mem_per_block),
      precision_v<T>};
  return dev.launch(cfg, [&args, threads](int i) {
    // Block i: rows from the diagonal down, the panel's columns.
    const auto k = static_cast<std::size_t>(i);
    const index_t rows = args.m[k] - args.offset;
    const index_t jb = std::min<index_t>(args.NB, args.n[k] - args.offset);
    sim::BlockCost cost;
    cost.live_threads = threads;
    if (rows <= 0 || jb <= 0) {
      cost.early_exit = true;
      return cost;
    }
    cost.active_threads = static_cast<int>(std::min<index_t>(rows, threads));
    cost.flops = flops::getrf(rows, jb);
    cost.bytes = static_cast<double>(2 * rows * jb) * sizeof(T);
    cost.sync_steps = static_cast<int>(2 * jb);           // pivot search + swap per column
    cost.serial_ops = static_cast<double>(2 * jb);        // max-reduce + reciprocal chains
    return cost;
  });
}

template <typename T>
double launch_laswp(sim::Device& dev, const LaswpArgs<T>& args) {
  const int batch = static_cast<int>(args.n.size());
  require(batch > 0, "laswp: empty batch");
  if (args.col1 <= args.col0 || args.k2 <= args.k1) return 0.0;

  const int strips = std::max(1, (args.max_cols + 63) / 64);
  const sim::LaunchConfig cfg{"vbatched_laswp", batch * strips, 128, 0, precision_v<T>};
  return dev.launch(cfg, [&args, strips](int block) {
    // Block → (matrix, columns [c0, c1) of its 64-wide strip).
    const int i = block / strips;
    const index_t c0 = args.col0 + static_cast<index_t>(block % strips) * 64;
    const index_t c1 =
        std::min<index_t>({args.col1, args.n[static_cast<std::size_t>(i)], c0 + 64});
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
  });
}

template <typename T>
double launch_lu_trsm(sim::Device& dev, const LuTrsmArgs<T>& args) {
  const int batch = static_cast<int>(args.ib.size());
  require(batch > 0, "lu_trsm: empty batch");
  if (args.max_n2 <= 0) return 0.0;

  const GemmTiling& t = args.tiling;
  const int strips = (args.max_n2 + t.tn - 1) / t.tn;
  const sim::LaunchConfig cfg{"vbatched_lu_trsm", batch * strips, t.threads,
                              t.shared_mem(sizeof(T)), precision_v<T>};
  return dev.launch(cfg, [&args, &t, strips](int block) {
    // Block → (matrix, columns [c0, c0 + tn) of its strip).
    const auto k = static_cast<std::size_t>(block / strips);
    const index_t c0 = static_cast<index_t>(block % strips) * t.tn;
    const index_t tn = std::min<index_t>(t.tn, args.n2[k] - c0);
    const index_t ibi = args.ib[k];
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
  });
}

template <typename T>
void getrf_numerics(T* const* a, std::span<const int> lda, std::span<const int> n, int NB,
                    int* const* ipiv, std::span<int> info) {
  int steps = 0;
  for (int ni : n) steps += (ni + NB - 1) / NB;
  parallel_for_grained(static_cast<int>(n.size()), steps, [&](int i) {
    const auto k = static_cast<std::size_t>(i);
    info[k] = blas::getrf<T>(MatrixView<T>(a[i], n[k], n[k], lda[k]),
                             {ipiv[i], static_cast<std::size_t>(n[k])}, NB);
  });
}

#define VBATCH_INSTANTIATE_GETRF(T)                                                     \
  template double launch_getrf_panel<T>(sim::Device&, const GetrfPanelArgs<T>&);      \
  template double launch_laswp<T>(sim::Device&, const LaswpArgs<T>&);                 \
  template double launch_lu_trsm<T>(sim::Device&, const LuTrsmArgs<T>&);              \
  template void getrf_numerics<T>(T* const*, std::span<const int>, std::span<const int>, int, \
                                  int* const*, std::span<int>);
VBATCH_INSTANTIATE_GETRF(float)
VBATCH_INSTANTIATE_GETRF(double)
#undef VBATCH_INSTANTIATE_GETRF

}  // namespace vbatch::kernels
