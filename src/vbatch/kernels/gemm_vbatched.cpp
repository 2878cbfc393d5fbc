#include "vbatch/kernels/gemm_vbatched.hpp"

#include <algorithm>

#include "vbatch/blas/blas.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/flops.hpp"

namespace vbatch::kernels {

namespace {

// Cost of one live TM×TN tile-block computing a tm×tn clip with inner dim k.
sim::BlockCost tile_cost(const GemmTiling& t, index_t tm, index_t tn, index_t k,
                         std::size_t elem_size, bool triangular_tile = false) {
  sim::BlockCost cost;
  cost.live_threads = t.threads;
  // Work is distributed over the tile; a clipped tile keeps proportionally
  // fewer threads busy (never below one warp).
  const double frac =
      static_cast<double>(tm * tn) / (static_cast<double>(t.tm) * static_cast<double>(t.tn));
  cost.active_threads = std::max(32, static_cast<int>(t.threads * frac));
  double fl = flops::gemm(tm, tn, k);
  if (triangular_tile) fl *= 0.5;
  cost.flops = fl;
  cost.bytes = static_cast<double>((tm + tn) * k + 2 * tm * tn) * elem_size;
  cost.sync_steps = static_cast<int>((k + t.tk - 1) / t.tk) + 2;
  return cost;
}

// The gemm grid: batch × tiles(max_m) × tiles(max_n), block → (matrix,
// clip [r0, r0 + tm) × [c0, c0 + tn) of its C tile); an empty clip is a
// tile past the matrix. The launch and the numerics pass share it.
struct TileClip {
  int i;
  index_t r0, c0, tm, tn;
};

template <typename T>
struct GemmGrid {
  const GemmVbatchedArgs<T>& args;
  int tiles_m, tiles_n;

  explicit GemmGrid(const GemmVbatchedArgs<T>& a)
      : args(a),
        tiles_m((a.max_m + a.tiling.tm - 1) / a.tiling.tm),
        tiles_n((a.max_n + a.tiling.tn - 1) / a.tiling.tn) {
    require(!a.m.empty(), "gemm_vbatched: empty batch");
    require(a.max_m > 0 && a.max_n > 0, "gemm_vbatched: max dims not set");
  }
  [[nodiscard]] int blocks() const noexcept {
    return static_cast<int>(args.m.size()) * tiles_m * tiles_n;
  }
  [[nodiscard]] TileClip clip(int block) const noexcept {
    const GemmTiling& t = args.tiling;
    const int i = block / (tiles_m * tiles_n);
    const int tile = block % (tiles_m * tiles_n);
    const index_t r0 = static_cast<index_t>(tile % tiles_m) * t.tm;
    const index_t c0 = static_cast<index_t>(tile / tiles_m) * t.tn;
    return TileClip{i, r0, c0, std::min<index_t>(t.tm, args.m[static_cast<std::size_t>(i)] - r0),
                    std::min<index_t>(t.tn, args.n[static_cast<std::size_t>(i)] - c0)};
  }
};

}  // namespace

template <typename T>
double launch_gemm_vbatched(sim::Device& dev, const GemmVbatchedArgs<T>& args) {
  const GemmGrid<T> grid(args);
  const GemmTiling& t = args.tiling;
  const sim::LaunchConfig cfg{"vbatched_gemm", grid.blocks(), t.threads,
                              t.shared_mem(sizeof(T)), precision_v<T>};
  return dev.launch(cfg, [&args, &t, &grid](int block) {
    const TileClip c = grid.clip(block);
    if (c.tm <= 0 || c.tn <= 0) {
      sim::BlockCost cost;
      cost.live_threads = t.threads;
      cost.early_exit = true;  // ETM-classic
      return cost;
    }
    return tile_cost(t, c.tm, c.tn, args.k[static_cast<std::size_t>(c.i)], sizeof(T));
  });
}

template <typename T>
void gemm_vbatched_numerics(const GemmVbatchedArgs<T>& args) {
  const GemmGrid<T> grid(args);
  parallel_for_grained(grid.blocks(), grid.blocks(), [&args, &grid](int block) {
    const auto [i, r0, c0, tm, tn] = grid.clip(block);
    const auto k = static_cast<std::size_t>(i);
    const index_t ki = args.k[k];
    if (tm <= 0 || tn <= 0 || ki < 0) return;
    const index_t lda = args.lda[k];
    const index_t ldb = args.ldb[k];
    const index_t ldc = args.ldc[k];
    // op(A) is mi×ki, op(B) is ki×ni; slice the tile's operands.
    ConstMatrixView<T> a_tile =
        args.trans_a == Trans::NoTrans
            ? ConstMatrixView<T>(args.a[i] + r0, tm, ki, lda)
            : ConstMatrixView<T>(args.a[i] + r0 * lda, ki, tm, lda);
    ConstMatrixView<T> b_tile =
        args.trans_b == Trans::NoTrans
            ? ConstMatrixView<T>(args.b[i] + c0 * ldb, ki, tn, ldb)
            : ConstMatrixView<T>(args.b[i] + c0, tn, ki, ldb);
    MatrixView<T> c_tile(args.c[i] + r0 + c0 * ldc, tm, tn, ldc);
    blas::gemm<T>(args.trans_a, args.trans_b, args.alpha, a_tile, b_tile, args.beta, c_tile);
  });
}

namespace {

// Cost of one syrk tile block (used by both the vbatched grid and the
// streamed per-matrix kernels).
template <typename T>
sim::BlockCost syrk_tile_block(const SyrkVbatchedArgs<T>& args, int i, index_t ti, index_t tj) {
  const GemmTiling& t = args.tiling;
  const index_t ni = args.n[static_cast<std::size_t>(i)];
  const index_t ki = args.k[static_cast<std::size_t>(i)];

  const index_t r0 = ti * t.tm;
  const index_t c0 = tj * t.tn;

  // Decision layer (§III-E3): blocks strictly outside the target triangle
  // terminate, as do blocks beyond this matrix's size.
  const bool outside_matrix = r0 >= ni || c0 >= ni || ni == 0;
  const bool wrong_side = args.uplo == Uplo::Lower ? (c0 > r0 + t.tm - 1) : (r0 > c0 + t.tn - 1);
  if (outside_matrix || wrong_side) {
    sim::BlockCost cost;
    cost.live_threads = t.threads;
    cost.early_exit = true;
    return cost;
  }

  const index_t tm = std::min<index_t>(t.tm, ni - r0);
  const index_t tn = std::min<index_t>(t.tn, ni - c0);
  return tile_cost(t, tm, tn, ki, sizeof(T), ti == tj);
}

}  // namespace

// One item per (matrix, kSyrkStripCols-wide column strip of its C), each
// the blas::syrk of the strip's diagonal block plus one blas::gemm of the
// rectangle below it (Lower) or above it (Upper). Strips write disjoint
// parts of the triangle and the split is fixed, so the bits depend only on
// the matrix. The grain is the block count of the launch's grid.
template <typename T>
void syrk_vbatched_numerics(const SyrkVbatchedArgs<T>& args) {
  const int batch = static_cast<int>(args.n.size());
  const int strips = (args.max_n + kSyrkStripCols - 1) / kSyrkStripCols;
  const int tiles = (args.max_n + args.tiling.tm - 1) / args.tiling.tm;
  const int grid = batch * tiles * tiles;
  const Trans ta = args.trans == Trans::NoTrans ? Trans::NoTrans : Trans::Trans;
  const Trans tb = args.trans == Trans::NoTrans ? Trans::Trans : Trans::NoTrans;
  parallel_for_grained(batch * strips, grid, [&](int item) {
    const auto i = static_cast<std::size_t>(item / strips);
    const index_t c0 = static_cast<index_t>(item % strips) * kSyrkStripCols;
    const index_t ni = args.n[i];
    if (c0 >= ni) return;
    const index_t w = std::min<index_t>(kSyrkStripCols, ni - c0);
    const index_t ki = args.k[i];
    const index_t lda = args.lda[i];
    // op(A) rows [r, r + len) as an operand in its stored orientation.
    auto rows_of = [&](index_t r, index_t len) {
      return args.trans == Trans::NoTrans ? ConstMatrixView<T>(args.a[i] + r, len, ki, lda)
                                          : ConstMatrixView<T>(args.a[i] + r * lda, ki, len, lda);
    };
    MatrixView<T> c(args.c[i], ni, ni, args.ldc[i]);
    blas::syrk<T>(args.uplo, args.trans, args.alpha, rows_of(c0, w), args.beta,
                  c.block(c0, c0, w, w));
    if (args.uplo == Uplo::Lower) {
      const index_t below = ni - c0 - w;
      if (below > 0)
        blas::gemm<T>(ta, tb, args.alpha, rows_of(c0 + w, below), rows_of(c0, w), args.beta,
                      c.block(c0 + w, c0, below, w));
    } else if (c0 > 0) {
      blas::gemm<T>(ta, tb, args.alpha, rows_of(0, c0), rows_of(c0, w), args.beta,
                    c.block(0, c0, c0, w));
    }
  });
}

template <typename T>
double launch_syrk_vbatched(sim::Device& dev, const SyrkVbatchedArgs<T>& args) {
  const int batch = static_cast<int>(args.n.size());
  require(batch > 0, "syrk_vbatched: empty batch");
  require(args.max_n > 0, "syrk_vbatched: max_n not set");

  const GemmTiling& t = args.tiling;
  const int tiles = (args.max_n + t.tm - 1) / t.tm;
  const sim::LaunchConfig cfg{"vbatched_syrk", batch * tiles * tiles, t.threads,
                              t.shared_mem(sizeof(T)), precision_v<T>};
  return dev.launch(cfg, [&args, tiles](int block) {
    const int per_matrix = tiles * tiles;
    const int i = block / per_matrix;
    const int tile = block % per_matrix;
    return syrk_tile_block(args, i, tile % tiles, tile / tiles);
  });
}

template <typename T>
double launch_syrk_streamed(sim::Device& dev, const SyrkVbatchedArgs<T>& args, int num_streams) {
  const int batch = static_cast<int>(args.n.size());
  require(batch > 0, "syrk_streamed: empty batch");
  const GemmTiling& t = args.tiling;

  std::vector<sim::LaunchConfig> configs;
  std::vector<sim::BlockFn> fns;
  configs.reserve(static_cast<std::size_t>(batch));
  fns.reserve(static_cast<std::size_t>(batch));

  for (int i = 0; i < batch; ++i) {
    const int ni = args.n[static_cast<std::size_t>(i)];
    if (ni <= 0) continue;  // host-side skip: one kernel per live matrix
    const int tiles = (ni + t.tm - 1) / t.tm;
    configs.push_back(
        {"streamed_syrk", tiles * tiles, t.threads, t.shared_mem(sizeof(T)), precision_v<T>});
    fns.push_back([&args, i, tiles](int block) {
      return syrk_tile_block(args, i, block % tiles, block / tiles);
    });
  }
  if (configs.empty()) return 0.0;
  return dev.launch_concurrent(configs, fns, num_streams);
}

#define VBATCH_INSTANTIATE_GEMM(T)                                                         \
  template double launch_gemm_vbatched<T>(sim::Device&, const GemmVbatchedArgs<T>&);     \
  template void gemm_vbatched_numerics<T>(const GemmVbatchedArgs<T>&);                   \
  template double launch_syrk_vbatched<T>(sim::Device&, const SyrkVbatchedArgs<T>&);     \
  template void syrk_vbatched_numerics<T>(const SyrkVbatchedArgs<T>&);                   \
  template double launch_syrk_streamed<T>(sim::Device&, const SyrkVbatchedArgs<T>&, int);
VBATCH_INSTANTIATE_GEMM(float)
VBATCH_INSTANTIATE_GEMM(double)
VBATCH_INSTANTIATE_GEMM(std::complex<float>)
VBATCH_INSTANTIATE_GEMM(std::complex<double>)
#undef VBATCH_INSTANTIATE_GEMM

}  // namespace vbatch::kernels
