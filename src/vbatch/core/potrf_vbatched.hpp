// Public vbatched Cholesky factorization API — the paper's case study.
//
// Mirrors the two-interface design of §III-A:
//   * potrf_vbatched_max — the expert interface taking the maximum matrix
//     size from the caller ("recommended when the user has such
//     information so that computing the maximums is waived");
//   * potrf_vbatched — the LAPACK-like wrapper that computes the maximum
//     with a device reduction kernel first.
//
// Both select between the fused-kernel path (§III-D) and the separated
// vbatched-BLAS path (§III-E) through the crossover policy of §IV-E unless
// the options pin a path. The selection is detail::plan_potrf, the one
// front the heterogeneous pool (vbatch::hetero) shares.
#pragma once

#include <optional>
#include <span>

#include "vbatch/core/batch.hpp"
#include "vbatch/core/queue.hpp"
#include "vbatch/util/types.hpp"

namespace vbatch {

/// Which algorithmic approach a vbatched factorization uses.
enum class PotrfPath : std::uint8_t { Auto, Fused, Separated };

[[nodiscard]] constexpr const char* to_string(PotrfPath p) noexcept {
  switch (p) {
    case PotrfPath::Auto: return "auto";
    case PotrfPath::Fused: return "fused";
    case PotrfPath::Separated: return "separated";
  }
  return "?";
}

struct PotrfOptions {
  PotrfPath path = PotrfPath::Auto;
  EtmMode etm = EtmMode::Aggressive;       ///< fused-path ETM flavour (§III-D1)
  bool implicit_sorting = true;            ///< fused-path active-size windows (§III-D2)
  int sort_window = 0;                     ///< window width; 0 = the fused nb
  int fused_nb = 0;                        ///< fused blocking size; 0 = autotuned
  int separated_nb = 0;                    ///< separated panel NB; 0 = autotuned
  int crossover = 0;                       ///< fused↔separated max-size threshold; 0 = policy
  bool streamed_syrk = false;              ///< use the per-matrix streamed syrk (§III-E3)
  int num_streams = 16;
};

/// Outcome of one vbatched factorization call.
struct PotrfResult {
  double seconds = 0.0;       ///< modelled device time consumed by the call
  double flops = 0.0;         ///< useful flops (sum of per-matrix counts, §IV-B)
  PotrfPath path_taken = PotrfPath::Auto;
  [[nodiscard]] double gflops() const noexcept {
    return seconds > 0.0 ? flops / seconds * 1e-9 : 0.0;
  }
};

/// LAPACK-like interface: the maximum size is computed on the device.
template <typename T>
PotrfResult potrf_vbatched(Queue& q, Uplo uplo, Batch<T>& batch,
                           const PotrfOptions& opts = {});

/// Expert interface: the caller supplies max_n (must dominate every size).
template <typename T>
PotrfResult potrf_vbatched_max(Queue& q, Uplo uplo, Batch<T>& batch, int max_n,
                               const PotrfOptions& opts = {});

/// Low-level entry operating on raw MAGMA-style arrays.
template <typename T>
PotrfResult potrf_vbatched_max(Queue& q, Uplo uplo, const VbatchedProblem<T>& prob, int max_n,
                               const PotrfOptions& opts = {});

// --- Internal drivers (exposed for tests and the ablation benches) ---------

namespace detail {

/// One potrf call's resolved plan: path and blocking pinned once from the
/// global maximum order.
struct PotrfPlan {
  int max_n = 0;                          ///< the global maximum order
  PotrfPath path = PotrfPath::Separated;  ///< Fused or Separated, never Auto
  int nb = 0;                             ///< the path's blocking (fused nb or panel NB)
  double sweep_seconds = 0.0;             ///< modelled time of the metadata sweep
};

/// The potrf front of the single-device and pool entries: one metadata
/// sweep on `q` (reducing the maximum when `max_n` is empty), then path and
/// blocking against `ref`. Auto falls back to separated when the fused
/// launch does not fit every spec in `targets`; `who` names the entry.
template <typename T>
PotrfPlan plan_potrf(Queue& q, const VbatchedProblem<T>& prob, std::optional<int> max_n,
                     const PotrfOptions& opts, const sim::DeviceSpec& ref,
                     std::span<const sim::DeviceSpec* const> targets, const char* who);

/// Runs the plan's driver on a (sub-)batch whose largest order is max_n;
/// returns the modelled seconds of its launches, which compute nothing.
template <typename T>
double run_potrf_plan(Queue& q, Uplo uplo, const VbatchedProblem<T>& prob, int max_n,
                      const PotrfPlan& plan, const PotrfOptions& opts);

/// The call's per-matrix math under `plan`, run once per call by both potrf
/// fronts (Full mode only): the fused plan's step-major lane-grouped steps
/// (kernels::fused_potrf_numerics with the plan's nb), or the separated
/// plan's one recursive blas::potrf per matrix (cpu::potrf_each). Writes
/// prob.info; the drivers' launches are cost passes that read it.
template <typename T>
void potrf_numerics(Uplo uplo, const PotrfPlan& plan, const VbatchedProblem<T>& prob);

/// Approach 1: fused kernels with ETMs and optional implicit sorting.
template <typename T>
double potrf_fused_run(Queue& q, Uplo uplo, const VbatchedProblem<T>& prob, int max_n,
                       EtmMode etm, bool sorting, int nb, int sort_window);

/// Approach 2: separated vbatched BLAS kernels (potf2 panel, trsm, syrk).
template <typename T>
double potrf_separated_run(Queue& q, Uplo uplo, const VbatchedProblem<T>& prob, int max_n,
                           int NB, bool streamed_syrk, int num_streams);

/// The separated path's default panel blocking for the given element size
/// (what potrf_separated_run picks when NB <= 0, and what plan_potrf pins).
[[nodiscard]] int default_separated_nb(std::size_t elem_size) noexcept;

}  // namespace detail

}  // namespace vbatch
