#include "vbatch/kernels/fused_potrf.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "vbatch/kernels/fused_step_math.hpp"
#include "vbatch/util/error.hpp"

namespace vbatch::kernels {

std::size_t fused_shared_mem(int block_threads, int nb, std::size_t elem_size) {
  // Panel (block_threads × nb) + nb×nb staging tile for the B operand of the
  // customized rank-k update (double buffering reuses the same tile).
  return (static_cast<std::size_t>(block_threads) * nb + static_cast<std::size_t>(nb) * nb) *
         elem_size;
}

int fused_max_size(const sim::DeviceSpec& spec, int nb, std::size_t elem_size) {
  // Largest panel height m such that the block still launches; thread count
  // is the second bound (one thread per panel row). The launch rounds the
  // block up to whole warps, so the shared-memory bound must hold for the
  // *rounded* thread count — floor the bound to a warp multiple.
  const auto limit = spec.shared_mem_per_block;
  const int by_smem = static_cast<int>(limit / (static_cast<std::size_t>(nb) * elem_size)) - nb;
  const int warp_floor = by_smem / spec.warp_size * spec.warp_size;
  return std::min(warp_floor, spec.max_threads_per_block);
}

int choose_fused_nb(const sim::DeviceSpec& spec, int max_n, std::size_t elem_size) {
  // Prefer the widest panel that still fits the whole batch; wider panels
  // amortize more launches per factorization and deepen the fused pipeline,
  // matching the configurations behind the paper's reported ETM/sorting
  // gaps. (bench/ablation_nb_sweep quantifies the occupancy price the wide
  // panels pay at moderate sizes.) A panel wider than the largest matrix
  // only wastes shared memory, so nb is also clamped to max_n (rounded up
  // to 8).
  const int cap = std::max(8, (max_n + 7) / 8 * 8);
  for (int nb : {32, 24, 16, 8}) {
    if (nb > cap) continue;
    if (max_n <= fused_max_size(spec, nb, elem_size)) return nb;
  }
  return 8;
}

namespace {

/// One unit of the numerics pass: at most one lane group of live matrices
/// whose diagonal tiles factor together.
struct LaneGroup {
  int begin = 0;  ///< into NumericsScratch::grouped
  int count = 0;
};

/// Per-thread scratch of the numerics pass, reused across steps.
struct NumericsScratch {
  std::vector<int> live;     ///< live matrices in batch order
  std::vector<int> offset;   ///< counting-sort cursor per diagonal-tile order
  std::vector<int> order;    ///< live matrices, bucketed by diagonal-tile order
  std::vector<int> grouped;  ///< the same, whole same-order groups first
  std::vector<int> rest;     ///< each bucket's rest below one group, ascending
  std::vector<LaneGroup> groups;
};

/// Update, lane-grouped potf2 and solve for the matrices `mats`, one lane
/// group sorted by diagonal-tile order; a failure goes to `info`.
template <typename T>
void run_group(const FusedStepArgs<T>& args, std::span<int> info, std::span<const int> mats) {
  const auto& a = args.batch;
  auto view = [&a](int i) {
    const int n = a.n[static_cast<std::size_t>(i)];
    return a.view(i, n, n);
  };
  MatrixView<T> diag[blas::kMaxPotf2Lanes];
  int local[blas::kMaxPotf2Lanes] = {};
  const std::size_t count = mats.size();
  for (std::size_t k = 0; k < count; ++k) {
    const MatrixView<T> A = view(mats[k]);
    fused_step_update(args.uplo, A, args.step, args.nb);
    diag[k] = fused_step_diag(A, args.step, args.nb);
  }
  blas::potf2_batch<T>(args.uplo, {diag, count}, {local, count});
  for (std::size_t k = 0; k < count; ++k) {
    if (local[k] == 0) {
      fused_step_solve(args.uplo, view(mats[k]), args.step, args.nb);
    } else {
      info[static_cast<std::size_t>(mats[k])] = fused_step_info(args.step, args.nb, local[k]);
    }
  }
}

/// Step args.step of the numerics over the matrices still live (j < n_i,
/// info 0). They are bucketed by diagonal-tile order, and each bucket gives
/// whole groups of W = blas::potf2_lanes<T>(). The buckets' rests below W,
/// ascending by order, are cut into groups of W from the largest order
/// down, so similar orders share a group and only the smallest orders may
/// form a partial one. Groups touch disjoint matrices, so running them on
/// the worker pool gives the same bits as running every matrix alone.
template <typename T>
void fused_step_numerics(const FusedStepArgs<T>& args, std::span<int> info) {
  thread_local NumericsScratch scratch;
  NumericsScratch& s = scratch;  // the calling thread's, also inside pool tasks
  const auto& a = args.batch;
  const index_t j = static_cast<index_t>(args.step) * args.nb;
  auto tile_order = [&a, &args, j](int i) {
    return static_cast<int>(std::min<index_t>(args.nb, a.n[static_cast<std::size_t>(i)] - j));
  };

  s.live.clear();
  s.offset.assign(static_cast<std::size_t>(args.nb) + 1, 0);
  for (int i = 0; i < a.count(); ++i) {
    if (j >= a.n[static_cast<std::size_t>(i)] || info[static_cast<std::size_t>(i)] != 0)
      continue;
    s.live.push_back(i);
    ++s.offset[static_cast<std::size_t>(tile_order(i))];
  }
  int start = 0;
  for (int& o : s.offset) start += std::exchange(o, start);
  s.order.resize(s.live.size());
  for (int i : s.live) s.order[static_cast<std::size_t>(s.offset[tile_order(i)]++)] = i;

  // offset[ib] now ends bucket ib.
  const int w = blas::potf2_lanes<T>();
  s.grouped.clear();
  s.rest.clear();
  s.groups.clear();
  int begin = 0;
  for (const int end : s.offset) {
    for (; begin + w <= end; begin += w) {
      s.groups.push_back({static_cast<int>(s.grouped.size()), w});
      s.grouped.insert(s.grouped.end(), s.order.begin() + begin, s.order.begin() + begin + w);
    }
    s.rest.insert(s.rest.end(), s.order.begin() + begin, s.order.begin() + end);
    begin = end;
  }
  const int first_rest = static_cast<int>(s.grouped.size());
  s.grouped.insert(s.grouped.end(), s.rest.begin(), s.rest.end());
  for (int end = static_cast<int>(s.grouped.size()); end > first_rest; end -= w)
    s.groups.push_back({std::max(first_rest, end - w), std::min(w, end - first_rest)});

  auto run = [&s, &args, info](int g) {
    const LaneGroup grp = s.groups[static_cast<std::size_t>(g)];
    run_group(args, info,
              std::span<const int>(s.grouped).subspan(static_cast<std::size_t>(grp.begin),
                                                      static_cast<std::size_t>(grp.count)));
  };
  parallel_for_grained(static_cast<int>(s.groups.size()), static_cast<int>(s.live.size()), run);
}

}  // namespace

template <typename T>
double launch_fused_step(sim::Device& dev, const FusedStepArgs<T>& args) {
  const int batch = args.batch.count();
  const int covered = args.active.empty() ? batch : static_cast<int>(args.active.size());
  require(covered > 0, "fused step: empty launch");
  require(args.block_threads > 0, "fused step: block_threads not set");

  const sim::LaunchConfig cfg{args.name, covered, args.block_threads,
                              fused_shared_mem(args.block_threads, args.nb, sizeof(T)),
                              precision_v<T>};
  const auto& a = args.batch;
  return dev.launch(cfg, [&args, &a](int block) -> sim::BlockCost {
    const int i = args.active.empty() ? block : args.active[static_cast<std::size_t>(block)];
    const int n = a.n[static_cast<std::size_t>(i)];
    const index_t j = static_cast<index_t>(args.step) * args.nb;
    const int info = args.info[static_cast<std::size_t>(i)];

    sim::BlockCost cost;
    cost.live_threads = args.block_threads;

    // ETM: this matrix is fully factorized, or failed at a column an
    // earlier step covered — the whole block exits. Both ETM flavours
    // terminate whole idle blocks.
    if (j >= n || (info > 0 && info <= args.column0 + j)) {
      cost.early_exit = true;
      return cost;
    }
    fused_step_cost(cost, n, args.step, args.nb, args.block_threads, args.etm, sizeof(T));
    return cost;
  });
}

template <typename T>
void fused_potrf_numerics(Uplo uplo, const BatchArgs<T>& batch, int nb, std::span<int> info) {
  require(nb > 0, "fused numerics: nb must be positive");
  FusedStepArgs<T> args;
  args.batch = batch;
  args.uplo = uplo;
  args.nb = nb;
  const int max_n = batch.n.empty() ? 0 : *std::max_element(batch.n.begin(), batch.n.end());
  for (; args.step * nb < max_n; ++args.step) fused_step_numerics(args, info);
}

#define VBATCH_INSTANTIATE_FUSED_STEP(T)                                    \
  template double launch_fused_step<T>(sim::Device&, const FusedStepArgs<T>&); \
  template void fused_potrf_numerics<T>(Uplo, const BatchArgs<T>&, int, std::span<int>);
VBATCH_INSTANTIATE_FUSED_STEP(float)
VBATCH_INSTANTIATE_FUSED_STEP(double)
VBATCH_INSTANTIATE_FUSED_STEP(std::complex<float>)
VBATCH_INSTANTIATE_FUSED_STEP(std::complex<double>)
#undef VBATCH_INSTANTIATE_FUSED_STEP

}  // namespace vbatch::kernels
