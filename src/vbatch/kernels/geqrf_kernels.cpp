#include "vbatch/kernels/geqrf_kernels.hpp"

#include <algorithm>

#include "vbatch/blas/blas.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/flops.hpp"

namespace vbatch::kernels {

template <typename T>
double launch_geqrf_panel(sim::Device& dev, const GeqrfPanelArgs<T>& args) {
  const int batch = static_cast<int>(args.m.size());
  require(batch > 0, "geqrf_panel: empty batch");

  int max_rows = 0;
  for (int i = 0; i < batch; ++i)
    max_rows = std::max(max_rows, args.m[static_cast<std::size_t>(i)] - args.offset);
  if (max_rows <= 0) return 0.0;

  const int threads =
      round_up_warp(dev.spec(), std::min(max_rows, dev.spec().max_threads_per_block));
  const sim::LaunchConfig cfg{
      "vbatched_geqrf_panel", batch, threads,
      std::min(static_cast<std::size_t>(std::min(max_rows, 512)) * args.NB * sizeof(T),
               dev.spec().shared_mem_per_block),
      precision_v<T>};
  return dev.launch(cfg, [&args, threads](int i) {
    // Block i: rows from the diagonal down, reflectors of this panel.
    const auto k = static_cast<std::size_t>(i);
    const index_t rows = args.m[k] - args.offset;
    const index_t jb = std::min<index_t>(args.NB, std::min(args.m[k], args.n[k]) - args.offset);
    sim::BlockCost cost;
    cost.live_threads = threads;
    if (rows <= 0 || jb <= 0) {
      cost.early_exit = true;
      return cost;
    }

    cost.active_threads = static_cast<int>(std::min<index_t>(rows, threads));
    cost.flops = flops::geqrf(rows, jb);
    cost.bytes = static_cast<double>(2 * rows * jb) * sizeof(T);
    cost.sync_steps = static_cast<int>(3 * jb);          // norm, scale, update per column
    cost.serial_ops = static_cast<double>(3 * jb);       // norm reduce + sqrt + reciprocal
    return cost;
  });
}

template <typename T>
double launch_larfb_update(sim::Device& dev, const LarfbArgs<T>& args) {
  const int batch = static_cast<int>(args.m.size());
  require(batch > 0, "larfb_update: empty batch");
  const GemmTiling& t = args.tiling;
  const int strips = std::max(1, (args.max_n + t.tn - 1) / t.tn);
  if (args.max_m - args.offset <= 0) return 0.0;

  const sim::LaunchConfig cfg{"vbatched_larfb", batch * strips, t.threads,
                              t.shared_mem(sizeof(T)), precision_v<T>};
  return dev.launch(cfg, [&args, &t, strips](int block) {
    // Block → (matrix, reflectors of the panel, columns [c0, c0 + tn) of
    // its strip of the trailing matrix).
    const auto k = static_cast<std::size_t>(block / strips);
    const index_t j = args.offset;
    const index_t rows = args.m[k] - j;
    const index_t jb = std::min<index_t>(args.NB, std::min(args.m[k], args.n[k]) - j);
    const index_t c0 = j + jb + static_cast<index_t>(block % strips) * t.tn;
    const index_t tn = std::min<index_t>(t.tn, args.n[k] - c0);
    sim::BlockCost cost;
    cost.live_threads = t.threads;
    if (rows <= 0 || jb <= 0 || tn <= 0) {
      cost.early_exit = true;
      return cost;
    }

    cost.active_threads = std::max(32, static_cast<int>(t.threads * tn / t.tn));
    // Applying jb reflectors of length `rows` to tn columns: 4·rows·jb·tn.
    cost.flops = 4.0 * static_cast<double>(rows) * static_cast<double>(jb) *
                 static_cast<double>(tn);
    cost.bytes = static_cast<double>(rows * jb + 2 * rows * tn) * sizeof(T);
    cost.sync_steps = static_cast<int>(2 * jb);
    return cost;
  });
}

template <typename T>
void geqrf_numerics(T* const* a, std::span<const int> lda, std::span<const int> m,
                    std::span<const int> n, int NB, T* const* tau) {
  int steps = 0;
  for (std::size_t k = 0; k < m.size(); ++k) steps += (std::min(m[k], n[k]) + NB - 1) / NB;
  parallel_for_grained(static_cast<int>(m.size()), steps, [&](int i) {
    const auto k = static_cast<std::size_t>(i);
    blas::geqrf<T>(MatrixView<T>(a[i], m[k], n[k], lda[k]),
                   {tau[i], static_cast<std::size_t>(std::min(m[k], n[k]))}, NB);
  });
}

#define VBATCH_INSTANTIATE_GEQRF(T)                                                     \
  template double launch_geqrf_panel<T>(sim::Device&, const GeqrfPanelArgs<T>&);      \
  template double launch_larfb_update<T>(sim::Device&, const LarfbArgs<T>&);          \
  template void geqrf_numerics<T>(T* const*, std::span<const int>, std::span<const int>, \
                                  std::span<const int>, int, T* const*);
VBATCH_INSTANTIATE_GEQRF(float)
VBATCH_INSTANTIATE_GEQRF(double)
#undef VBATCH_INSTANTIATE_GEQRF

}  // namespace vbatch::kernels
