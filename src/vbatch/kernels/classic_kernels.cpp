#include "vbatch/kernels/classic_kernels.hpp"

#include <algorithm>

#include "vbatch/blas/blas.hpp"
#include "vbatch/kernels/gemm_vbatched.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/flops.hpp"

namespace vbatch::kernels {

namespace {

// Trailing rows below the current tile for matrix i of a classic trsm step.
template <typename T>
int trailing_rows(const ClassicTrsmArgs<T>& args, int i) {
  const int n = args.batch.n[static_cast<std::size_t>(i)];
  const int ib = std::clamp(n - args.offset, 0, args.nb);
  return std::max(0, n - args.offset - ib);
}

}  // namespace

template <typename T>
double launch_classic_potf2(sim::Device& dev, const ClassicPotf2Args<T>& args) {
  const int batch = args.batch.count();
  require(batch > 0, "classic_potf2: empty batch");

  const int threads = round_up_warp(dev.spec(), args.nb);
  const sim::LaunchConfig cfg{"classic_potf2", batch, threads,
                              static_cast<std::size_t>(args.nb) * sizeof(T),  // column staging
                              precision_v<T>};
  // The cost reads the final info: the tile of a matrix that failed at an
  // earlier step exits.
  const auto& a = args.batch;
  const index_t j = args.offset;
  return dev.launch(cfg, [&args, &a, j, threads,
                          dev_global_latency = dev.spec().global_latency_cycles](int i) {
    sim::BlockCost cost;
    cost.live_threads = threads;
    const index_t ib = std::clamp<index_t>(a.n[static_cast<std::size_t>(i)] - j, 0, args.nb);
    const int info = args.info[static_cast<std::size_t>(i)];
    if (ib <= 0 || (info > 0 && info <= j)) {
      cost.early_exit = true;
      return cost;
    }
    cost.active_threads = static_cast<int>(ib);
    cost.flops = flops::potrf(ib);
    // Per-column global round trips: each of the ib columns re-reads the
    // processed part of the tile and writes itself back...
    cost.bytes = static_cast<double>(3 * ib * ib) * sizeof(T);
    cost.sync_steps = static_cast<int>(2 * ib);
    cost.serial_ops = static_cast<double>(2 * ib);  // sqrt + reciprocal chains
    // ...and the column recurrence is a dependent chain through global
    // memory (load → sqrt → scale → store), fully exposed because nothing
    // is staged in shared memory. This latency chain is the core cost the
    // fused kernel eliminates (§III-D).
    cost.latency_cycles = static_cast<double>(ib) * dev_global_latency;
    return cost;
  });
}

template <typename T>
double launch_classic_trsm(sim::Device& dev, const ClassicTrsmArgs<T>& args) {
  const int batch = args.batch.count();
  require(batch > 0, "classic_trsm: empty batch");

  int max_m2 = 0;
  for (int i = 0; i < batch; ++i) max_m2 = std::max(max_m2, trailing_rows(args, i));
  if (max_m2 <= 0) return 0.0;

  const int threads =
      round_up_warp(dev.spec(), std::min(max_m2, dev.spec().max_threads_per_block));
  const sim::LaunchConfig cfg{"classic_trsm", batch, threads,
                              static_cast<std::size_t>(args.nb) * args.nb * sizeof(T),
                              precision_v<T>};
  const auto& a = args.batch;
  const index_t j = args.offset;
  return dev.launch(cfg, [&args, &a, j, threads,
                          dev_global_latency = dev.spec().global_latency_cycles](int i) {
    sim::BlockCost cost;
    cost.live_threads = threads;
    const index_t ib = std::clamp<index_t>(a.n[static_cast<std::size_t>(i)] - j, 0, args.nb);
    const index_t m2 = trailing_rows(args, i);
    const int info = args.info[static_cast<std::size_t>(i)];
    if (ib <= 0 || m2 <= 0 || (info > 0 && info <= j + ib)) {
      cost.early_exit = true;
      return cost;
    }
    cost.active_threads = static_cast<int>(std::min<index_t>(m2, threads));
    cost.flops = flops::trsm(m2, ib, false);
    // Panel read + write + one extra pass (register pressure forces a
    // spill sweep), triangle read — all global memory.
    cost.bytes = static_cast<double>(3 * m2 * ib + ib * ib / 2.0) * sizeof(T);
    cost.sync_steps = static_cast<int>(ib);
    cost.serial_ops = static_cast<double>(ib);
    // The column recurrence round-trips global memory once per column; the
    // rows of the panel hide part of the latency, not all of it.
    cost.latency_cycles = static_cast<double>(ib) * dev_global_latency * 0.5;
    return cost;
  });
}

template <typename T>
void classic_potrf_numerics(Uplo uplo, const BatchArgs<T>& batch, int nb, std::span<int> info) {
  int steps = 0;
  for (int n : batch.n) steps += (n + nb - 1) / nb;
  const bool lower = uplo == Uplo::Lower;
  parallel_for_grained(batch.count(), steps, [&](int i) {
    const auto k = static_cast<std::size_t>(i);
    const int n = batch.n[k];
    MatrixView<T> A = batch.view(i, n, n);
    for (int j = 0; j < n; j += nb) {
      const int ib = std::min(nb, n - j);
      if (info[k] == 0) {
        const int local = blas::potf2<T>(uplo, A.block(j, j, ib, ib));
        if (local != 0) info[k] = j + local;
      }
      const int m2 = n - j - ib;
      if (m2 <= 0) continue;
      if (info[k] == 0) {
        if (lower) {
          blas::trsm<T>(Side::Right, Uplo::Lower, Trans::Trans, Diag::NonUnit, T(1),
                        A.block(j, j, ib, ib), A.block(j + ib, j, m2, ib));
        } else {
          blas::trsm<T>(Side::Left, Uplo::Upper, Trans::Trans, Diag::NonUnit, T(1),
                        A.block(j, j, ib, ib), A.block(j, j + ib, ib, m2));
        }
      }
      // The trailing update reads no info: a failed matrix still gets it,
      // through the syrk launch's strips on the matrix as a batch of one.
      T* const panel = lower ? &A(j + ib, j) : &A(j, j + ib);
      T* const trail = &A(j + ib, j + ib);
      const std::span<const int> ld = batch.lda.subspan(k, 1);
      syrk_vbatched_numerics<T>({uplo, lower ? Trans::NoTrans : Trans::Trans, {&m2, 1},
                                 {&ib, 1}, m2, T(-1), T(1), &panel, ld, &trail, ld});
    }
  });
}

#define VBATCH_INSTANTIATE_CLASSIC(T)                                                      \
  template double launch_classic_potf2<T>(sim::Device&, const ClassicPotf2Args<T>&);     \
  template double launch_classic_trsm<T>(sim::Device&, const ClassicTrsmArgs<T>&);       \
  template void classic_potrf_numerics<T>(Uplo, const BatchArgs<T>&, int, std::span<int>);
VBATCH_INSTANTIATE_CLASSIC(float)
VBATCH_INSTANTIATE_CLASSIC(double)
#undef VBATCH_INSTANTIATE_CLASSIC

}  // namespace vbatch::kernels
