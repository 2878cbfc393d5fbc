#include "vbatch/kernels/geqrf_kernels.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

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

  sim::LaunchConfig cfg;
  cfg.name = "vbatched_geqrf_panel";
  cfg.grid_blocks = batch;
  cfg.block_threads =
      round_up_warp(dev.spec(), std::min(max_rows, dev.spec().max_threads_per_block));
  cfg.shared_mem = static_cast<std::size_t>(std::min(max_rows, 512)) * args.NB * sizeof(T);
  cfg.shared_mem = std::min(cfg.shared_mem, dev.spec().shared_mem_per_block);
  cfg.precision = precision_v<T>;

  // Block → (rows from the diagonal down, reflectors of this panel).
  const index_t j = args.offset;
  auto panel_of = [&args, j](int i) {
    const auto k = static_cast<std::size_t>(i);
    const index_t mi = args.m[k];
    return std::pair{mi - j, std::min<index_t>(args.NB, std::min<index_t>(mi, args.n[k]) - j)};
  };
  auto cost_of = [panel_of, threads = cfg.block_threads](int i) {
    const auto [rows, jb] = panel_of(i);
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
  };
  auto math = [&args, j, panel_of](int i) {
    const auto [rows, jb] = panel_of(i);
    const index_t lda = args.lda[static_cast<std::size_t>(i)];
    MatrixView<T> panel(args.a[i] + j + j * lda, rows, jb, lda);
    blas::geqr2<T>(panel, std::span<T>{args.tau[i] + j, static_cast<std::size_t>(jb)});
  };
  return dev.launch(cfg, cost_of, math);
}

template <typename T>
double launch_larfb_update(sim::Device& dev, const LarfbArgs<T>& args) {
  const int batch = static_cast<int>(args.m.size());
  require(batch > 0, "larfb_update: empty batch");
  const GemmTiling& t = args.tiling;
  const int strips = std::max(1, (args.max_n + t.tn - 1) / t.tn);
  if (args.max_m - args.offset <= 0) return 0.0;

  sim::LaunchConfig cfg;
  cfg.name = "vbatched_larfb";
  cfg.grid_blocks = batch * strips;
  cfg.block_threads = t.threads;
  cfg.shared_mem = t.shared_mem(sizeof(T));
  cfg.precision = precision_v<T>;

  // Block → (matrix, reflectors of the panel, columns [c0, c0 + tn) of its
  // strip of the trailing matrix).
  const index_t j = args.offset;
  auto strip_of = [&args, strips, &t, j](int block) {
    const int i = block / strips;
    const auto k = static_cast<std::size_t>(i);
    const index_t ni = args.n[k];
    const index_t jb = std::min<index_t>(args.NB, std::min<index_t>(args.m[k], ni) - j);
    const index_t c0 = j + jb + static_cast<index_t>(block % strips) * t.tn;
    return std::tuple{i, jb, c0, std::min<index_t>(t.tn, ni - c0)};
  };
  auto cost_of = [&args, &t, j, strip_of](int block) {
    const auto [i, jb, c0, tn] = strip_of(block);
    const index_t rows = args.m[static_cast<std::size_t>(i)] - j;
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
  };
  auto math = [&args, j, strip_of](int block) {
    const auto [i, jb, c0, tn] = strip_of(block);
    const index_t lda = args.lda[static_cast<std::size_t>(i)];
    // Apply H(j) … H(j+jb-1) one reflector at a time to the strip.
    for (index_t k = 0; k < jb; ++k) {
      const index_t col = j + k;
      const T tk = args.tau[i][col];
      if (tk == T(0)) continue;
      const T* v = args.a[i] + col + col * lda;  // v(0) implicit 1, rest below diag
      T* strip_base = args.a[i] + col + c0 * lda;
      const index_t vm = args.m[static_cast<std::size_t>(i)] - col;
      for (index_t c = 0; c < tn; ++c) {
        T* cptr = strip_base + c * lda;
        T w = cptr[0];
        for (index_t r = 1; r < vm; ++r) w += v[r] * cptr[r];
        w *= tk;
        cptr[0] -= w;
        for (index_t r = 1; r < vm; ++r) cptr[r] -= v[r] * w;
      }
    }
  };
  return dev.launch(cfg, cost_of, math);
}

template double launch_geqrf_panel<float>(sim::Device&, const GeqrfPanelArgs<float>&);
template double launch_geqrf_panel<double>(sim::Device&, const GeqrfPanelArgs<double>&);
template double launch_larfb_update<float>(sim::Device&, const LarfbArgs<float>&);
template double launch_larfb_update<double>(sim::Device&, const LarfbArgs<double>&);

}  // namespace vbatch::kernels
