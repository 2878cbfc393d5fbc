// Shared declarations for the simulated device kernels.
//
// Every vbatched kernel follows the paper's conventions (§III-A):
//   * matrix data is addressed through a device array of pointers;
//   * per-matrix sizes and leading dimensions are device int arrays — the
//     simulation keeps host mirrors of those arrays (spans below) so that
//     cost reports can be produced without dereferencing device memory in
//     TimingOnly mode;
//   * the kernel grid is shaped by the *maximum* size in the batch, and
//     blocks with no work terminate through an ETM.
#pragma once

#include <algorithm>
#include <span>

#include "vbatch/sim/device.hpp"
#include "vbatch/util/matrix_view.hpp"
#include "vbatch/util/thread_pool.hpp"
#include "vbatch/util/types.hpp"

namespace vbatch::kernels {

/// Rounds `threads` up to a whole number of warps, clamped to the device
/// block limit.
[[nodiscard]] inline int round_up_warp(const sim::DeviceSpec& spec, int threads) noexcept {
  const int w = spec.warp_size;
  const int rounded = std::max(w, ((threads + w - 1) / w) * w);
  return std::min(rounded, spec.max_threads_per_block);
}

/// The numerics of passes standing for fewer than this many blocks run
/// serially: pool dispatch costs more than a few small blocks' arithmetic.
inline constexpr int kParallelGrainBlocks = 32;

/// The one grain rule of the Full-mode numerics passes: runs fn(0) …
/// fn(count − 1) serially when `work` (the blocks the items stand for) is
/// below kParallelGrainBlocks or the host pool has one worker, else across
/// util::host_pool() (inline when called from a pool task). Items must
/// write disjoint data, so the result is the same for any worker count.
template <typename Fn>
void parallel_for_grained(int count, int work, Fn&& fn) {
  if (work < kParallelGrainBlocks || util::host_pool().size() == 1) {
    for (int k = 0; k < count; ++k) fn(k);
  } else {
    util::host_pool().parallel_for(count, fn);
  }
}

/// One block of an rhs-strip grid: matrix `i`, right-hand-side columns
/// [c0, c0 + nc).
struct RhsStrip {
  int i = 0;
  index_t c0 = 0, nc = 0;
};

/// The grid of the vbatched solves that apply a factored m_i × n_i operator
/// to right-hand sides (potrs, getrs, ormqr/geqrs): one block per (matrix,
/// 8-column strip of its rhs). A block is live unless its operator is
/// empty, its strip starts past the matrix's rhs count, or its
/// factorization failed (info nonzero; an empty `info` skips that test).
/// The front's launch and its numerics pass share it.
struct RhsStrips {
  static constexpr int kWidth = 8;
  std::span<const int> m, n, nrhs, info;
  int max_m = 0;
  int per_matrix = 0;  ///< strips per matrix; 0 with no rows or no rhs (no launch)

  RhsStrips(std::span<const int> m_, std::span<const int> n_, std::span<const int> nrhs_,
            std::span<const int> info_)
      : m(m_), n(n_), nrhs(nrhs_), info(info_) {
    int max_rhs = 0;
    for (std::size_t i = 0; i < m.size(); ++i) {
      max_m = std::max(max_m, m[i]);
      max_rhs = std::max(max_rhs, nrhs[i]);
    }
    if (max_m > 0) per_matrix = (max_rhs + kWidth - 1) / kWidth;
  }
  [[nodiscard]] int grid() const noexcept { return static_cast<int>(m.size()) * per_matrix; }
  /// Block → strip; nc is 0 for a strip past the matrix's rhs count.
  [[nodiscard]] RhsStrip strip(int block) const noexcept {
    RhsStrip s{block / per_matrix, static_cast<index_t>(block % per_matrix) * kWidth, 0};
    s.nc = std::clamp<index_t>(nrhs[static_cast<std::size_t>(s.i)] - s.c0, 0, kWidth);
    return s;
  }
  [[nodiscard]] bool live(const RhsStrip& s) const noexcept {
    const auto i = static_cast<std::size_t>(s.i);
    return m[i] != 0 && n[i] != 0 && s.nc != 0 && (info.empty() || info[i] == 0);
  }
};

/// Launches an rhs-strip grid as a cost pass: threads and shared memory
/// sized by the largest operator's rows (capped at 512) times one strip;
/// `cost_of(strip, cost)` fills a live block's work (live and active
/// threads are set here). Returns the modelled seconds, 0 with no rows or
/// no rhs (no launch).
template <typename T, typename CostOf>
double launch_rhs_strips(sim::Device& dev, const char* name, const RhsStrips& g,
                         CostOf&& cost_of) {
  if (g.per_matrix == 0) return 0.0;
  const int rows = std::min(g.max_m, 512);
  const int threads = round_up_warp(dev.spec(), rows);
  const sim::LaunchConfig cfg{
      name, g.grid(), threads,
      std::min<std::size_t>(static_cast<std::size_t>(rows) * RhsStrips::kWidth * sizeof(T),
                            dev.spec().shared_mem_per_block),
      precision_v<T>};
  return dev.launch(cfg, [&, threads](int block) {
    const RhsStrip s = g.strip(block);
    sim::BlockCost cost;
    cost.live_threads = threads;
    if (!g.live(s)) {
      cost.early_exit = true;
      return cost;
    }
    cost.active_threads =
        static_cast<int>(std::min<index_t>(g.m[static_cast<std::size_t>(s.i)], threads));
    cost_of(s, cost);
    return cost;
  });
}

/// The numerics pass of an rhs-strip front: `math(strip)` for every live
/// block, one item per block, the grid as the grain.
template <typename Math>
void rhs_strips_numerics(const RhsStrips& g, Math&& math) {
  parallel_for_grained(g.grid(), g.grid(), [&](int block) {
    const RhsStrip s = g.strip(block);
    if (g.live(s)) math(s);
  });
}

/// Non-owning description of a vbatched operand set: a device pointer array
/// plus host mirrors of the device size/ld arrays.
template <typename T>
struct BatchArgs {
  T* const* ptrs = nullptr;      ///< device array of matrix pointers
  std::span<const int> n;        ///< host mirror of the device size array
  std::span<const int> lda;      ///< host mirror of the device ld array
  [[nodiscard]] int count() const noexcept { return static_cast<int>(n.size()); }

  /// View of matrix `i` as rows×cols with its own leading dimension.
  [[nodiscard]] MatrixView<T> view(int i, index_t rows, index_t cols) const noexcept {
    return MatrixView<T>(ptrs[i], rows, cols, lda[static_cast<std::size_t>(i)]);
  }
};

}  // namespace vbatch::kernels
