#include "vbatch/kernels/trsm_vbatched.hpp"

#include <algorithm>

#include "vbatch/blas/blas.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/flops.hpp"

namespace vbatch::kernels {

namespace {

constexpr int kTrtriBlock = 32;

// §III-E2: the vbatched trsm starts "by inverting the diagonal blocks of
// size typically 32×32 using a vbatched trtri routine": one grid block per
// 32×32 diagonal sub-block of one matrix's NB-wide panel; blocks at or past
// ib exit through ETM-classic (the threads of a live block stay in sync, so
// aggressive is not applicable). Cost only, like every launch of the
// composite solve.
template <typename T>
double launch_trtri(sim::Device& dev, std::span<const int> ib, int NB) {
  const int batch = static_cast<int>(ib.size());
  require(batch > 0, "trsm_vbatched: empty batch");
  const int blocks_per_matrix = (NB + kTrtriBlock - 1) / kTrtriBlock;

  const sim::LaunchConfig cfg{"vbatched_trtri_diag", batch * blocks_per_matrix, 128,
                              static_cast<std::size_t>(kTrtriBlock) * kTrtriBlock * sizeof(T),
                              precision_v<T>};
  return dev.launch(cfg, [ib, blocks_per_matrix](int block) -> sim::BlockCost {
    const int i = block / blocks_per_matrix;
    const int t = block % blocks_per_matrix;
    const index_t ibi = ib[static_cast<std::size_t>(i)];
    const index_t off = static_cast<index_t>(t) * kTrtriBlock;

    sim::BlockCost cost;
    cost.live_threads = 128;
    if (off >= ibi) {
      cost.early_exit = true;  // ETM-classic
      return cost;
    }

    const index_t tb = std::min<index_t>(kTrtriBlock, ibi - off);
    cost.active_threads = static_cast<int>(std::min<index_t>(tb * 4, 128));
    cost.flops = flops::trtri(tb);
    cost.bytes = static_cast<double>(tb * tb) * sizeof(T);  // read triangle, write inverse
    cost.sync_steps = static_cast<int>(tb);
    cost.serial_ops = static_cast<double>(tb);  // reciprocal chain
    return cost;
  });
}

// One sweep kernel per 32-wide diagonal block k: each grid block owns a
// TM-long strip of the panel and performs the rank-update against already
// solved strips followed by the multiply with the inverted diagonal block,
// mirroring the custom gemm variants MAGMA's batched trsm launches.
template <typename T>
double launch_sweep(sim::Device& dev, const TrsmVbatchedArgs& args, int k0) {
  const int batch = static_cast<int>(args.ib.size());
  const GemmTiling& t = args.tiling;
  const int strips = (args.max_m + t.tm - 1) / t.tm;

  const sim::LaunchConfig cfg{"vbatched_trsm_sweep", batch * strips, t.threads,
                              t.shared_mem(sizeof(T)), precision_v<T>};
  return dev.launch(cfg, [&args, k0, strips, &t](int block) -> sim::BlockCost {
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
    return cost;
  });
}

}  // namespace

template <typename T>
double launch_trsm_vbatched(sim::Device& dev, const TrsmVbatchedArgs& args) {
  require(args.max_ib > 0, "trsm_vbatched: max_ib not set");
  if (args.max_m <= 0) return 0.0;

  // The paper's launch sequence: invert the diagonal 32×32 blocks, then
  // sweep the panel one diagonal block at a time.
  double seconds = launch_trtri<T>(dev, args.ib, args.max_ib);
  for (int k0 = 0; k0 < args.max_ib; k0 += kTrtriBlock)
    seconds += launch_sweep<T>(dev, args, k0);
  return seconds;
}

template double launch_trsm_vbatched<float>(sim::Device&, const TrsmVbatchedArgs&);
template double launch_trsm_vbatched<double>(sim::Device&, const TrsmVbatchedArgs&);
template double launch_trsm_vbatched<std::complex<float>>(sim::Device&,
                                                         const TrsmVbatchedArgs&);
template double launch_trsm_vbatched<std::complex<double>>(sim::Device&,
                                                          const TrsmVbatchedArgs&);

namespace {

// Strip width of the general triangular launch: one block (and one item of
// its numerics pass) per kTriStrip-wide strip of B's free dimension.
constexpr int kTriStrip = 16;

// Strips per matrix of the general launch (columns of B for Left, rows for
// Right); 0 when the batch has no free or no triangle extent (no launch).
template <typename T>
int triangular_strips(const TriangularVbatchedArgs<T>& args) {
  require(!args.m.empty(), "triangular_vbatched: empty batch");
  const bool left = args.side == Side::Left;
  const int free_max = left ? args.max_n : args.max_m;
  const int ka_max = left ? args.max_m : args.max_n;
  if (free_max <= 0 || ka_max <= 0) return 0;
  return (free_max + kTriStrip - 1) / kTriStrip;
}

// The general launch's cost pass: the cost reads only sizes.
template <typename T, bool Solve>
double launch_triangular_general(sim::Device& dev, const TriangularVbatchedArgs<T>& args) {
  const int strips = triangular_strips(args);
  if (strips == 0) return 0.0;
  const bool left = args.side == Side::Left;
  const int ka_max = left ? args.max_m : args.max_n;

  const int threads = round_up_warp(dev.spec(), std::min(ka_max, 512));
  const sim::LaunchConfig cfg{
      Solve ? "vbatched_trsm_general" : "vbatched_trmm_general",
      static_cast<int>(args.m.size()) * strips, threads,
      std::min<std::size_t>(static_cast<std::size_t>(ka_max) * kTriStrip * sizeof(T),
                            dev.spec().shared_mem_per_block),
      precision_v<T>};
  return dev.launch(cfg, [&args, strips, left, threads](int block) -> sim::BlockCost {
    const int i = block / strips;
    const index_t strip = block % strips;
    const index_t mi = args.m[static_cast<std::size_t>(i)];
    const index_t ni = args.n[static_cast<std::size_t>(i)];
    const index_t free_dim = left ? ni : mi;
    const index_t ka = left ? mi : ni;
    const index_t f0 = strip * kTriStrip;

    sim::BlockCost cost;
    cost.live_threads = threads;
    if (mi <= 0 || ni <= 0 || f0 >= free_dim) {
      cost.early_exit = true;  // ETM-classic
      return cost;
    }

    const index_t fw = std::min<index_t>(kTriStrip, free_dim - f0);
    cost.active_threads = static_cast<int>(std::min<index_t>(ka, threads));
    cost.flops = left ? flops::trsm(ka, fw, true) : flops::trsm(fw, ka, false);
    cost.bytes = static_cast<double>(ka * ka / 2 + 2 * ka * fw) * sizeof(T);
    cost.sync_steps = static_cast<int>(ka + 2);
    cost.serial_ops = args.diag == Diag::NonUnit ? static_cast<double>(ka) : 0.0;
    return cost;
  });
}

// The general launch's numerics: one item per (matrix, strip), each a host
// blas::trsm / blas::trmm of the strip against the whole triangle. Strips
// are independent columns (Left) or rows (Right) of B, so the bits depend
// only on the matrix. The launch's block count is the grain.
template <typename T, bool Solve>
void triangular_general_numerics(const TriangularVbatchedArgs<T>& args) {
  const int strips = triangular_strips(args);
  const int grid = static_cast<int>(args.m.size()) * strips;
  const bool left = args.side == Side::Left;
  parallel_for_grained(grid, grid, [&args, strips, left](int item) {
    const auto i = static_cast<std::size_t>(item / strips);
    const index_t f0 = static_cast<index_t>(item % strips) * kTriStrip;
    const index_t mi = args.m[i];
    const index_t ni = args.n[i];
    const index_t free_dim = left ? ni : mi;
    if (mi <= 0 || ni <= 0 || f0 >= free_dim) return;
    const index_t fw = std::min<index_t>(kTriStrip, free_dim - f0);
    const index_t ka = left ? mi : ni;
    const index_t ldb = args.ldb[i];
    ConstMatrixView<T> tri(args.a[i], ka, ka, args.lda[i]);
    MatrixView<T> strip = left ? MatrixView<T>(args.b[i] + f0 * ldb, mi, fw, ldb)
                               : MatrixView<T>(args.b[i] + f0, fw, ni, ldb);
    if constexpr (Solve) {
      blas::trsm<T>(args.side, args.uplo, args.trans, args.diag, args.alpha, tri, strip);
    } else {
      blas::trmm<T>(args.side, args.uplo, args.trans, args.diag, args.alpha, tri, strip);
    }
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

template <typename T>
void trsm_general_numerics(const TriangularVbatchedArgs<T>& args) {
  triangular_general_numerics<T, true>(args);
}

template <typename T>
void trmm_general_numerics(const TriangularVbatchedArgs<T>& args) {
  triangular_general_numerics<T, false>(args);
}

#define VBATCH_INSTANTIATE_TRIANGULAR(T)                                                        \
  template double launch_trsm_general<T>(sim::Device&, const TriangularVbatchedArgs<T>&);    \
  template double launch_trmm_general<T>(sim::Device&, const TriangularVbatchedArgs<T>&);    \
  template void trsm_general_numerics<T>(const TriangularVbatchedArgs<T>&);                  \
  template void trmm_general_numerics<T>(const TriangularVbatchedArgs<T>&);
VBATCH_INSTANTIATE_TRIANGULAR(float)
VBATCH_INSTANTIATE_TRIANGULAR(double)
VBATCH_INSTANTIATE_TRIANGULAR(std::complex<float>)
VBATCH_INSTANTIATE_TRIANGULAR(std::complex<double>)
#undef VBATCH_INSTANTIATE_TRIANGULAR

}  // namespace vbatch::kernels
