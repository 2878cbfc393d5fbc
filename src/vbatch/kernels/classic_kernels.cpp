#include "vbatch/kernels/classic_kernels.hpp"

#include <algorithm>

#include "vbatch/util/error.hpp"
#include "vbatch/util/flops.hpp"

namespace vbatch::kernels {

namespace {

// Trailing rows below the current tile for matrix i of a classic trsm step.
template <typename T>
int trailing_rows(const ClassicTrsmArgs<T>& args, int i) {
  const int n = args.n[static_cast<std::size_t>(i)];
  const int ib = std::clamp(n - args.offset, 0, args.nb);
  return std::max(0, n - args.offset - ib);
}

}  // namespace

template <typename T>
double launch_classic_potf2(sim::Device& dev, const ClassicPotf2Args<T>& args) {
  const int batch = static_cast<int>(args.n.size());
  require(batch > 0, "classic_potf2: empty batch");

  const int threads = round_up_warp(dev.spec(), args.nb);
  const sim::LaunchConfig cfg{"classic_potf2", batch, threads,
                              static_cast<std::size_t>(args.nb) * sizeof(T),  // column staging
                              precision_v<T>};
  // The cost reads the final info: the tile of a matrix that failed at an
  // earlier step exits.
  const index_t j = args.offset;
  return dev.launch(cfg, [&args, j, threads,
                          dev_global_latency = dev.spec().global_latency_cycles](int i) {
    sim::BlockCost cost;
    cost.live_threads = threads;
    const index_t ib = std::clamp<index_t>(args.n[static_cast<std::size_t>(i)] - j, 0, args.nb);
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
  const int batch = static_cast<int>(args.n.size());
  require(batch > 0, "classic_trsm: empty batch");

  int max_m2 = 0;
  for (int i = 0; i < batch; ++i) max_m2 = std::max(max_m2, trailing_rows(args, i));
  if (max_m2 <= 0) return 0.0;

  const int threads =
      round_up_warp(dev.spec(), std::min(max_m2, dev.spec().max_threads_per_block));
  const sim::LaunchConfig cfg{"classic_trsm", batch, threads,
                              static_cast<std::size_t>(args.nb) * args.nb * sizeof(T),
                              precision_v<T>};
  const index_t j = args.offset;
  return dev.launch(cfg, [&args, j, threads,
                          dev_global_latency = dev.spec().global_latency_cycles](int i) {
    sim::BlockCost cost;
    cost.live_threads = threads;
    const index_t ib = std::clamp<index_t>(args.n[static_cast<std::size_t>(i)] - j, 0, args.nb);
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

#define VBATCH_INSTANTIATE_CLASSIC(T)                                                      \
  template double launch_classic_potf2<T>(sim::Device&, const ClassicPotf2Args<T>&);     \
  template double launch_classic_trsm<T>(sim::Device&, const ClassicTrsmArgs<T>&);
VBATCH_INSTANTIATE_CLASSIC(float)
VBATCH_INSTANTIATE_CLASSIC(double)
#undef VBATCH_INSTANTIATE_CLASSIC

}  // namespace vbatch::kernels
