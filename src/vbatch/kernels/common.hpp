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
#include <vector>

#include "vbatch/sim/device.hpp"
#include "vbatch/util/matrix_view.hpp"
#include "vbatch/util/types.hpp"

namespace vbatch::kernels {

/// Rounds `threads` up to a whole number of warps, clamped to the device
/// block limit.
[[nodiscard]] inline int round_up_warp(const sim::DeviceSpec& spec, int threads) noexcept {
  const int w = spec.warp_size;
  const int rounded = std::max(w, ((threads + w - 1) / w) * w);
  return std::min(rounded, spec.max_threads_per_block);
}

/// One block of an rhs-strip launch: matrix `i`, right-hand-side columns
/// [c0, c0 + nc).
struct RhsStrip {
  int i = 0;
  index_t c0 = 0, nc = 0;
};

/// The launch shape of the vbatched solves that apply a factored m_i × n_i
/// operator to right-hand sides (potrs, getrs, ormqr/geqrs): one block per
/// (matrix, 8-column strip of its rhs), threads and shared memory sized by
/// the largest operator's rows (capped at 512) times one strip. A block
/// exits early (ETM-classic) when its operator is empty, its strip starts
/// past the matrix's rhs count, or its factorization failed (info nonzero;
/// an empty `info` skips that test). Otherwise `cost_of(strip, cost)` fills
/// the work (live and active threads are set here) and, in Full mode,
/// `math(strip)` runs the numerics after the cost pass. Returns the modelled
/// seconds, 0 with no rows or no rhs (no launch).
template <typename T, typename CostOf, typename Math>
double launch_rhs_strips(sim::Device& dev, const char* name, std::span<const int> m,
                         std::span<const int> n, std::span<const int> nrhs,
                         std::span<const int> info, CostOf&& cost_of, Math&& math) {
  constexpr int kStrip = 8;
  int max_m = 0, max_rhs = 0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    max_m = std::max(max_m, m[i]);
    max_rhs = std::max(max_rhs, nrhs[i]);
  }
  if (max_m == 0 || max_rhs == 0) return 0.0;
  const int strips = (max_rhs + kStrip - 1) / kStrip;
  const int rows = std::min(max_m, 512);

  sim::LaunchConfig cfg;
  cfg.name = name;
  cfg.grid_blocks = static_cast<int>(m.size()) * strips;
  cfg.block_threads = round_up_warp(dev.spec(), rows);
  cfg.shared_mem = std::min<std::size_t>(static_cast<std::size_t>(rows) * kStrip * sizeof(T),
                                         dev.spec().shared_mem_per_block);
  cfg.precision = precision_v<T>;

  // Block → strip; nc is 0 for a strip past the matrix's rhs count.
  auto strip_of = [&](int block) {
    RhsStrip s{block / strips, static_cast<index_t>(block % strips) * kStrip, 0};
    s.nc = std::clamp<index_t>(nrhs[static_cast<std::size_t>(s.i)] - s.c0, 0, kStrip);
    return s;
  };
  auto report = [&, threads = cfg.block_threads](int block) {
    const RhsStrip s = strip_of(block);
    const auto i = static_cast<std::size_t>(s.i);
    sim::BlockCost cost;
    cost.live_threads = threads;
    if (m[i] == 0 || n[i] == 0 || s.nc == 0 || (!info.empty() && info[i] != 0)) {
      cost.early_exit = true;
      return cost;
    }
    cost.active_threads = static_cast<int>(std::min<index_t>(m[i], threads));
    cost_of(s, cost);
    return cost;
  };
  return dev.launch(cfg, report, [&](int block) { math(strip_of(block)); });
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

/// Pointer displacement on the device (paper §III-A: "any pointer
/// displacement ... need[s] to be performed on the whole array" by a GPU
/// kernel). Builds out[i] = base[i] + row_off + col_off * lda[i]; the
/// element-wise kernel's cost is modelled through a launch. `out` is caller
/// scratch so the factorization drivers reuse one buffer per operand across
/// their panel steps instead of allocating per launch.
template <typename T>
void displace_ptrs(sim::Device& dev, std::span<T* const> base, std::span<const int> lda,
                   index_t row_off, index_t col_off, std::vector<T*>& out) {
  const int count = static_cast<int>(base.size());
  sim::LaunchConfig cfg;
  cfg.name = "aux_displace_ptrs";
  cfg.block_threads = 256;
  cfg.grid_blocks = std::max(1, (count + 255) / 256);
  cfg.precision = Precision::Single;
  dev.launch(cfg, [count](int block) {
    sim::BlockCost c;
    const int lo = block * 256;
    const int elems = std::clamp(count - lo, 0, 256);
    c.active_threads = elems;
    c.live_threads = 256;
    c.flops = 2.0 * elems;
    c.bytes = static_cast<double>(elems) * (sizeof(T*) * 2 + sizeof(int));
    return c;
  });

  out.resize(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    out[i] = base[i] + row_off + col_off * static_cast<index_t>(lda[i]);
  }
}

/// Allocating convenience wrapper for one-shot callers.
template <typename T>
std::vector<T*> displace_ptrs(sim::Device& dev, std::span<T* const> base,
                              std::span<const int> lda, index_t row_off, index_t col_off) {
  std::vector<T*> out;
  displace_ptrs(dev, base, lda, row_off, col_off, out);
  return out;
}

}  // namespace vbatch::kernels
