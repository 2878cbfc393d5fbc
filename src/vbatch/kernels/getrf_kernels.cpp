#include "vbatch/kernels/getrf_kernels.hpp"

#include <algorithm>
#include <tuple>

#include "vbatch/blas/blas.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/flops.hpp"

namespace vbatch::kernels {

namespace {

// Block i's panel extents (rows from the diagonal down, width); the block
// exits when either is empty, or on a negative info, which no numerics write.
template <typename T>
std::tuple<index_t, index_t, bool> panel_of(const GetrfPanelArgs<T>& args, int i) {
  const auto k = static_cast<std::size_t>(i);
  const index_t rows = args.m[k] - args.offset;
  const index_t jb = std::min<index_t>(args.NB, args.batch.n[k] - args.offset);
  return {rows, jb, rows <= 0 || jb <= 0 || args.info[k] < 0};
}

// lu_trsm block → (matrix, columns [c0, c0 + tn) of its strip).
template <typename T>
std::tuple<int, index_t, index_t> lu_trsm_strip(const LuTrsmArgs<T>& args, int strips,
                                                int block) {
  const int i = block / strips;
  const index_t c0 = static_cast<index_t>(block % strips) * args.tiling.tn;
  return {i, c0, std::min<index_t>(args.tiling.tn, args.n2[static_cast<std::size_t>(i)] - c0)};
}

}  // namespace

template <typename T>
double launch_getrf_panel(sim::Device& dev, const GetrfPanelArgs<T>& args) {
  const int batch = args.batch.count();
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
    const auto [rows, jb, exits] = panel_of(args, i);
    sim::BlockCost cost;
    cost.live_threads = threads;
    if (exits) {
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
void getrf_panel_numerics(const GetrfPanelArgs<T>& args) {
  const int batch = args.batch.count();
  parallel_for_grained(batch, batch, [&args](int i) {
    const auto [rows, jb, exits] = panel_of(args, i);
    if (exits) return;
    const auto k = static_cast<std::size_t>(i);
    const index_t j = args.offset;
    const BatchArgs<T>& a = args.batch;
    std::span<int> piv{args.ipiv[i] + j, static_cast<std::size_t>(jb)};
    const int local = blas::getf2<T>(a.view(i, args.m[k], a.n[k]).block(j, j, rows, jb), piv);
    for (int& p : piv) p += static_cast<int>(j);  // global pivot rows
    if (local != 0 && args.info[k] == 0) args.info[k] = static_cast<int>(j) + local;
  });
}

template <typename T>
double launch_laswp(sim::Device& dev, const LaswpArgs<T>& args) {
  const int batch = args.batch.count();
  require(batch > 0, "laswp: empty batch");
  if (args.col1 <= args.col0 || args.k2 <= args.k1) return 0.0;

  const int strips = std::max(1, (args.max_cols + 63) / 64);
  const sim::LaunchConfig cfg{"vbatched_laswp", batch * strips, 128, 0, precision_v<T>};
  return dev.launch(cfg, [&args, strips](int block) {
    // Block → (matrix, columns [c0, c1) of its 64-wide strip).
    const int i = block / strips;
    const index_t c0 = args.col0 + static_cast<index_t>(block % strips) * 64;
    const index_t c1 =
        std::min<index_t>({args.col1, args.batch.n[static_cast<std::size_t>(i)], c0 + 64});
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
void laswp_numerics(const LaswpArgs<T>& args) {
  if (args.col1 <= args.col0 || args.k2 <= args.k1) return;
  // Swaps copy exactly, so one call per matrix gives its strips' bits.
  const int batch = args.batch.count();
  parallel_for_grained(batch, batch, [&args](int i) {
    const auto k = static_cast<std::size_t>(i);
    const BatchArgs<T>& a = args.batch;
    const index_t c1 = std::min<index_t>(args.col1, a.n[k]);
    if (args.col0 >= c1 || args.m[k] <= args.k1) return;
    std::span<const int> piv{args.ipiv[i], static_cast<std::size_t>(args.k2)};
    blas::laswp<T>(a.view(i, args.m[k], a.n[k]).block(0, args.col0, args.m[k], c1 - args.col0),
                   piv, args.k1, std::min<index_t>(args.k2, a.n[k]));
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
    const auto [i, c0, tn] = lu_trsm_strip(args, strips, block);
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
  });
}

template <typename T>
void lu_trsm_numerics(const LuTrsmArgs<T>& args) {
  if (args.max_n2 <= 0) return;
  const int strips = (args.max_n2 + args.tiling.tn - 1) / args.tiling.tn;
  const int grid = static_cast<int>(args.ib.size()) * strips;
  parallel_for_grained(grid, grid, [&args, strips](int block) {
    const auto [i, c0, tn] = lu_trsm_strip(args, strips, block);
    const auto k = static_cast<std::size_t>(i);
    if (args.ib[k] <= 0 || tn <= 0) return;
    ConstMatrixView<T> l11(args.l11[i], args.ib[k], args.ib[k], args.lda[k]);
    MatrixView<T> tile(args.b[i] + c0 * args.ldb[k], args.ib[k], tn, args.ldb[k]);
    blas::trsm<T>(Side::Left, Uplo::Lower, Trans::NoTrans, Diag::Unit, T(1), l11, tile);
  });
}

template <typename T>
void getrf_numerics(const BatchArgs<T>& batch, int NB, int* const* ipiv, std::span<int> info) {
  int steps = 0;
  for (int n : batch.n) steps += (n + NB - 1) / NB;
  parallel_for_grained(batch.count(), steps, [&](int i) {
    // Matrix i as a batch of one, stepped as the driver steps the batch.
    const auto k = static_cast<std::size_t>(i);
    const int n = batch.n[k];
    const std::span<const int> n1 = batch.n.subspan(k, 1), ld = batch.lda.subspan(k, 1);
    const BatchArgs<T> one{batch.ptrs + i, n1, ld};
    for (int j = 0; j < n; j += NB) {
      const int k2 = std::min(j + NB, n), trail = n - j - NB;
      getrf_panel_numerics<T>({one, n1, j, NB, ipiv + i, info.subspan(k, 1)});
      laswp_numerics<T>({one, n1, j, k2, 0, j, j, ipiv + i});  // left of the panel
      if (trail <= 0) continue;
      laswp_numerics<T>({one, n1, j, k2, j + NB, n, trail, ipiv + i});
      // The U12 solve and the trailing update, in the launches' strips and
      // tiles.
      T* const l11 = batch.ptrs[i] + j + j * static_cast<index_t>(ld[0]);
      T* const u12 = l11 + NB * static_cast<index_t>(ld[0]);
      T* const l21 = l11 + NB;
      T* const a22 = u12 + NB;
      const std::span<const int> ib{&NB, 1}, t{&trail, 1};
      lu_trsm_numerics<T>({&l11, ld, ib, &u12, ld, t, trail});
      gemm_vbatched_numerics<T>({Trans::NoTrans, Trans::NoTrans, t, t, ib, trail, trail, T(-1),
                                 T(1), &l21, ld, &u12, ld, &a22, ld});
    }
  });
}

#define VBATCH_INSTANTIATE_GETRF(T)                                                    \
  template double launch_getrf_panel<T>(sim::Device&, const GetrfPanelArgs<T>&);     \
  template void getrf_panel_numerics<T>(const GetrfPanelArgs<T>&);                   \
  template double launch_laswp<T>(sim::Device&, const LaswpArgs<T>&);                \
  template void laswp_numerics<T>(const LaswpArgs<T>&);                              \
  template double launch_lu_trsm<T>(sim::Device&, const LuTrsmArgs<T>&);             \
  template void lu_trsm_numerics<T>(const LuTrsmArgs<T>&);                           \
  template void getrf_numerics<T>(const BatchArgs<T>&, int, int* const*, std::span<int>);
VBATCH_INSTANTIATE_GETRF(float)
VBATCH_INSTANTIATE_GETRF(double)
#undef VBATCH_INSTANTIATE_GETRF

}  // namespace vbatch::kernels
