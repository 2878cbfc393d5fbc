#include "vbatch/kernels/classic_kernels.hpp"

#include <algorithm>

#include "vbatch/blas/blas.hpp"
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

  sim::LaunchConfig cfg;
  cfg.name = "classic_potf2";
  cfg.grid_blocks = batch;
  cfg.block_threads = round_up_warp(dev.spec(), args.nb);
  cfg.shared_mem = static_cast<std::size_t>(args.nb) * sizeof(T);  // column staging only
  cfg.precision = precision_v<T>;

  // The cost reads info[i]; only block i's numerics write it, after the cost pass.
  const auto& a = args.batch;
  const index_t j = args.offset;
  auto cost_of = [&args, &a, j, threads = cfg.block_threads,
                  dev_global_latency = dev.spec().global_latency_cycles](int i) {
    sim::BlockCost cost;
    cost.live_threads = threads;
    const index_t ib = std::clamp<index_t>(a.n[static_cast<std::size_t>(i)] - j, 0, args.nb);
    if (ib <= 0 || args.info[static_cast<std::size_t>(i)] != 0) {
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
  };
  auto math = [&args, &a, j](int i) {
    const auto k = static_cast<std::size_t>(i);
    const int n = a.n[k];
    const index_t ib = std::clamp<index_t>(n - j, 0, args.nb);
    const int local = blas::potf2<T>(args.uplo, a.view(i, n, n).block(j, j, ib, ib));
    if (local != 0) args.info[k] = static_cast<int>(j) + local;
  };
  return dev.launch(cfg, cost_of, math);
}

template <typename T>
double launch_classic_trsm(sim::Device& dev, const ClassicTrsmArgs<T>& args) {
  const int batch = args.batch.count();
  require(batch > 0, "classic_trsm: empty batch");

  int max_m2 = 0;
  for (int i = 0; i < batch; ++i) max_m2 = std::max(max_m2, trailing_rows(args, i));
  if (max_m2 <= 0) return 0.0;

  sim::LaunchConfig cfg;
  cfg.name = "classic_trsm";
  cfg.grid_blocks = batch;
  cfg.block_threads = round_up_warp(dev.spec(), std::min(max_m2, dev.spec().max_threads_per_block));
  cfg.shared_mem = static_cast<std::size_t>(args.nb) * args.nb * sizeof(T);
  cfg.precision = precision_v<T>;

  const auto& a = args.batch;
  const index_t j = args.offset;
  auto cost_of = [&args, &a, j, threads = cfg.block_threads,
                  dev_global_latency = dev.spec().global_latency_cycles](int i) {
    sim::BlockCost cost;
    cost.live_threads = threads;
    const index_t ib = std::clamp<index_t>(a.n[static_cast<std::size_t>(i)] - j, 0, args.nb);
    const index_t m2 = trailing_rows(args, i);
    if (ib <= 0 || m2 <= 0 || args.info[static_cast<std::size_t>(i)] != 0) {
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
  };
  auto math = [&args, &a, j](int i) {
    const int n = a.n[static_cast<std::size_t>(i)];
    const index_t ib = std::clamp<index_t>(n - j, 0, args.nb);
    const index_t m2 = trailing_rows(args, i);
    MatrixView<T> A = a.view(i, n, n);
    if (args.uplo == Uplo::Lower) {
      blas::trsm<T>(Side::Right, Uplo::Lower, Trans::Trans, Diag::NonUnit, T(1),
                    A.block(j, j, ib, ib), A.block(j + ib, j, m2, ib));
    } else {
      blas::trsm<T>(Side::Left, Uplo::Upper, Trans::Trans, Diag::NonUnit, T(1),
                    A.block(j, j, ib, ib), A.block(j, j + ib, ib, m2));
    }
  };
  return dev.launch(cfg, cost_of, math);
}

template double launch_classic_potf2<float>(sim::Device&, const ClassicPotf2Args<float>&);
template double launch_classic_potf2<double>(sim::Device&, const ClassicPotf2Args<double>&);
template double launch_classic_trsm<float>(sim::Device&, const ClassicTrsmArgs<float>&);
template double launch_classic_trsm<double>(sim::Device&, const ClassicTrsmArgs<double>&);

}  // namespace vbatch::kernels
