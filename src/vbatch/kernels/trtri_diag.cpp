#include "vbatch/kernels/trtri_diag.hpp"

#include <algorithm>

#include "vbatch/blas/blas.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/flops.hpp"

namespace vbatch::kernels {

template <typename T>
double launch_trtri_diag(sim::Device& dev, const TrtriDiagArgs<T>& args) {
  const int batch = static_cast<int>(args.ib.size());
  require(batch > 0, "trtri_diag: empty batch");
  const int blocks_per_matrix = (args.NB + kTrtriBlock - 1) / kTrtriBlock;

  sim::LaunchConfig cfg;
  cfg.name = "vbatched_trtri_diag";
  cfg.grid_blocks = batch * blocks_per_matrix;
  cfg.block_threads = 128;
  cfg.shared_mem = static_cast<std::size_t>(kTrtriBlock) * kTrtriBlock * sizeof(T);
  cfg.precision = precision_v<T>;

  return dev.launch(cfg, [&args, blocks_per_matrix](const sim::ExecContext& ctx,
                                                    int block) -> sim::BlockCost {
    const int i = block / blocks_per_matrix;
    const int t = block % blocks_per_matrix;
    const index_t ibi = args.ib[static_cast<std::size_t>(i)];
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

    if (ctx.full()) {
      const index_t lda = args.lda[static_cast<std::size_t>(i)];
      ConstMatrixView<T> src(args.a[i] + off + off * lda, tb, tb, lda);
      MatrixView<T> dst(args.inv[i] + off + off * static_cast<index_t>(args.inv_ld), tb, tb,
                        args.inv_ld);
      // The block is stored dense: A's triangle, explicit zeros in the
      // other one, so the sweep can apply it as a plain gemm operand
      // without reading A's unreferenced triangle.
      const bool lower = args.uplo == Uplo::Lower;
      for (index_t c = 0; c < tb; ++c)
        for (index_t r = 0; r < tb; ++r) dst(r, c) = (lower ? r >= c : r <= c) ? src(r, c) : T(0);
      // trtri fails only on an exact zero diagonal, which a successful
      // panel never leaves; a matrix whose panel failed already carries its
      // info. The return code is therefore discarded.
      (void)blas::trtri<T>(args.uplo, Diag::NonUnit, dst);
    }
    return cost;
  });
}

template double launch_trtri_diag<float>(sim::Device&, const TrtriDiagArgs<float>&);
template double launch_trtri_diag<double>(sim::Device&, const TrtriDiagArgs<double>&);
template double launch_trtri_diag<std::complex<float>>(
    sim::Device&, const TrtriDiagArgs<std::complex<float>>&);
template double launch_trtri_diag<std::complex<double>>(
    sim::Device&, const TrtriDiagArgs<std::complex<double>>&);

}  // namespace vbatch::kernels
