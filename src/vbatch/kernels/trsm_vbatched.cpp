#include "vbatch/kernels/trsm_vbatched.hpp"

#include <algorithm>
#include <vector>

#include "vbatch/blas/blas.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/flops.hpp"

namespace vbatch::kernels {

namespace {

// Thread-local staging tile for the sweep: the strip is copied here so the
// multiply with the inverted block can write its product straight back.
// Grows to the largest strip the thread has seen, like the engine's pack
// buffers.
template <typename T>
std::vector<T>& strip_stage() {
  static thread_local std::vector<T> buf;
  return buf;
}

// One sweep kernel per 32-wide diagonal block k: each grid block owns a
// TM-long strip of the panel and performs the rank-update against already
// solved strips followed by the multiply with the inverted diagonal block.
// This mirrors the custom gemm variants MAGMA's batched trsm launches. The
// inverted block is dense (zeros in its unused triangle, see trtri_diag),
// so both steps are gemm calls on the packed engine.
template <typename T>
double launch_sweep(sim::Device& dev, const TrsmVbatchedArgs<T>& args, int k0) {
  const int batch = static_cast<int>(args.ib.size());
  const GemmTiling& t = args.tiling;
  const int strips = (args.max_m + t.tm - 1) / t.tm;

  sim::LaunchConfig cfg;
  cfg.name = "vbatched_trsm_sweep";
  cfg.grid_blocks = batch * strips;
  cfg.block_threads = t.threads;
  cfg.shared_mem = t.shared_mem(sizeof(T));
  cfg.precision = precision_v<T>;

  return dev.launch(cfg, [&args, k0, strips, &t](const sim::ExecContext& ctx,
                                                 int block) -> sim::BlockCost {
    const int i = block / strips;
    const index_t strip = block % strips;
    const index_t mi = args.m[static_cast<std::size_t>(i)];
    const index_t ibi = args.ib[static_cast<std::size_t>(i)];
    const index_t kb = std::clamp<index_t>(ibi - k0, 0, kTrtriBlock);
    const index_t r0 = strip * t.tm;

    sim::BlockCost cost;
    cost.live_threads = t.threads;
    if (mi <= 0 || kb <= 0 || r0 >= mi) {
      cost.early_exit = true;  // ETM-classic
      return cost;
    }

    const index_t tm = std::min<index_t>(t.tm, mi - r0);
    const double frac = static_cast<double>(tm) / t.tm;
    cost.active_threads = std::max(32, static_cast<int>(t.threads * frac));
    cost.flops = flops::gemm(tm, kb, k0) + static_cast<double>(tm * kb * kb);
    cost.bytes = static_cast<double>(tm * k0 + kb * k0 + 2 * tm * kb + kb * kb / 2) * sizeof(T);
    cost.sync_steps = static_cast<int>((k0 + t.tk - 1) / t.tk + kb + 2);

    if (ctx.full()) {
      const index_t lda = args.lda[static_cast<std::size_t>(i)];
      const index_t ldb = args.ldb[static_cast<std::size_t>(i)];
      ConstMatrixView<T> invk(args.inv[i] + k0 + k0 * static_cast<index_t>(args.inv_ld), kb, kb,
                              args.inv_ld);
      const bool lower = args.uplo == Uplo::Lower;
      MatrixView<T> tile = lower
                               ? MatrixView<T>(args.b[i] + r0 + static_cast<index_t>(k0) * ldb,
                                               tm, kb, ldb)
                               : MatrixView<T>(args.b[i] + k0 + r0 * ldb, kb, tm, ldb);
      if (k0 > 0) {
        if (lower) {
          // W = B - X(:, 0:k0)·L(k0:, 0:k0)ᵀ
          ConstMatrixView<T> solved(args.b[i] + r0, tm, k0, ldb);
          ConstMatrixView<T> lrow(args.a[i] + k0, kb, k0, lda);
          blas::gemm<T>(Trans::NoTrans, Trans::Trans, T(-1), solved, lrow, T(1), tile);
        } else {
          // W = B - U(0:k0, k0:)ᵀ·X(0:k0, :)
          ConstMatrixView<T> ucol(args.a[i] + static_cast<index_t>(k0) * lda, k0, kb, lda);
          ConstMatrixView<T> solved(args.b[i] + r0 * ldb, k0, tm, ldb);
          blas::gemm<T>(Trans::Trans, Trans::NoTrans, T(-1), ucol, solved, T(1), tile);
        }
      }
      // X = W·invAᵀ (Lower) or invAᵀ·W (Upper), with W staged so the
      // product can overwrite the strip.
      std::vector<T>& stage = strip_stage<T>();
      const auto need = static_cast<std::size_t>(tm * kb);
      if (stage.size() < need) stage.resize(need);
      MatrixView<T> w(stage.data(), tile.rows(), tile.cols(), tile.rows());
      for (index_t c = 0; c < tile.cols(); ++c)
        for (index_t r = 0; r < tile.rows(); ++r) w(r, c) = tile(r, c);
      if (lower) {
        blas::gemm<T>(Trans::NoTrans, Trans::Trans, T(1), w, invk, T(0), tile);
      } else {
        blas::gemm<T>(Trans::Trans, Trans::NoTrans, T(1), invk, w, T(0), tile);
      }
    }
    return cost;
  });
}

}  // namespace

template <typename T>
double launch_trsm_vbatched(sim::Device& dev, const TrsmVbatchedArgs<T>& args) {
  require(args.max_ib > 0, "trsm_vbatched: max_ib not set");
  require(args.inv != nullptr, "trsm_vbatched: inverse workspace missing");
  if (args.max_m <= 0) return 0.0;

  double seconds = 0.0;

  // Stage 1: invert the diagonal 32×32 blocks.
  TrtriDiagArgs<T> tri;
  tri.uplo = args.uplo;
  tri.a = args.a;
  tri.lda = args.lda;
  tri.ib = args.ib;
  tri.NB = args.max_ib;
  tri.inv = args.inv;
  tri.inv_ld = args.inv_ld;
  seconds += launch_trtri_diag(dev, tri);

  // Stage 2: sweep the panel one diagonal block at a time.
  for (int k0 = 0; k0 < args.max_ib; k0 += kTrtriBlock) {
    seconds += launch_sweep(dev, args, k0);
  }
  return seconds;
}

template double launch_trsm_vbatched<float>(sim::Device&, const TrsmVbatchedArgs<float>&);
template double launch_trsm_vbatched<double>(sim::Device&, const TrsmVbatchedArgs<double>&);
template double launch_trsm_vbatched<std::complex<float>>(
    sim::Device&, const TrsmVbatchedArgs<std::complex<float>>&);
template double launch_trsm_vbatched<std::complex<double>>(
    sim::Device&, const TrsmVbatchedArgs<std::complex<double>>&);

namespace {

// Shared launcher for the general triangular solve/multiply: strips run
// along B's free dimension (columns for Left, rows for Right).
template <typename T, bool Solve>
double launch_triangular_general(sim::Device& dev, const TriangularVbatchedArgs<T>& args) {
  const int batch = static_cast<int>(args.m.size());
  require(batch > 0, "triangular_vbatched: empty batch");
  const bool left = args.side == Side::Left;
  const int free_max = left ? args.max_n : args.max_m;
  const int ka_max = left ? args.max_m : args.max_n;
  if (free_max <= 0 || ka_max <= 0) return 0.0;

  constexpr int kStrip = 16;
  const int strips = (free_max + kStrip - 1) / kStrip;

  sim::LaunchConfig cfg;
  cfg.name = Solve ? "vbatched_trsm_general" : "vbatched_trmm_general";
  cfg.grid_blocks = batch * strips;
  cfg.block_threads = round_up_warp(dev.spec(), std::min(ka_max, 512));
  cfg.shared_mem =
      std::min<std::size_t>(static_cast<std::size_t>(ka_max) * kStrip * sizeof(T),
                            dev.spec().shared_mem_per_block);
  cfg.precision = precision_v<T>;

  return dev.launch(cfg, [&args, strips, left, threads = cfg.block_threads](
                             const sim::ExecContext& ctx, int block) -> sim::BlockCost {
    const int i = block / strips;
    const index_t strip = block % strips;
    const index_t mi = args.m[static_cast<std::size_t>(i)];
    const index_t ni = args.n[static_cast<std::size_t>(i)];
    const index_t free_dim = left ? ni : mi;
    const index_t ka = left ? mi : ni;
    const index_t f0 = strip * kStrip;

    sim::BlockCost cost;
    cost.live_threads = threads;
    if (mi <= 0 || ni <= 0 || f0 >= free_dim) {
      cost.early_exit = true;  // ETM-classic
      return cost;
    }

    const index_t fw = std::min<index_t>(kStrip, free_dim - f0);
    cost.active_threads = static_cast<int>(std::min<index_t>(ka, threads));
    cost.flops = left ? flops::trsm(ka, fw, true) : flops::trsm(fw, ka, false);
    cost.bytes = static_cast<double>(ka * ka / 2 + 2 * ka * fw) * sizeof(T);
    cost.sync_steps = static_cast<int>(ka + 2);
    cost.serial_ops = args.diag == Diag::NonUnit ? static_cast<double>(ka) : 0.0;

    if (ctx.full()) {
      const index_t lda = args.lda[static_cast<std::size_t>(i)];
      const index_t ldb = args.ldb[static_cast<std::size_t>(i)];
      ConstMatrixView<T> tri(args.a[i], ka, ka, lda);
      MatrixView<T> strip_view = left
                                     ? MatrixView<T>(args.b[i] + f0 * ldb, mi, fw, ldb)
                                     : MatrixView<T>(args.b[i] + f0, fw, ni, ldb);
      if constexpr (Solve) {
        blas::trsm<T>(args.side, args.uplo, args.trans, args.diag, args.alpha, tri, strip_view);
      } else {
        blas::trmm<T>(args.side, args.uplo, args.trans, args.diag, args.alpha, tri, strip_view);
      }
    }
    return cost;
  });
}

}  // namespace

template <typename T>
double launch_trsm_general(sim::Device& dev, const TriangularVbatchedArgs<T>& args) {
  return launch_triangular_general<T, true>(dev, args);
}

template <typename T>
double launch_trmm_general(sim::Device& dev, const TriangularVbatchedArgs<T>& args) {
  return launch_triangular_general<T, false>(dev, args);
}

template double launch_trsm_general<float>(sim::Device&, const TriangularVbatchedArgs<float>&);
template double launch_trsm_general<double>(sim::Device&,
                                            const TriangularVbatchedArgs<double>&);
template double launch_trmm_general<float>(sim::Device&, const TriangularVbatchedArgs<float>&);
template double launch_trmm_general<double>(sim::Device&,
                                            const TriangularVbatchedArgs<double>&);
template double launch_trsm_general<std::complex<float>>(
    sim::Device&, const TriangularVbatchedArgs<std::complex<float>>&);
template double launch_trsm_general<std::complex<double>>(
    sim::Device&, const TriangularVbatchedArgs<std::complex<double>>&);
template double launch_trmm_general<std::complex<float>>(
    sim::Device&, const TriangularVbatchedArgs<std::complex<float>>&);
template double launch_trmm_general<std::complex<double>>(
    sim::Device&, const TriangularVbatchedArgs<std::complex<double>>&);

}  // namespace vbatch::kernels
