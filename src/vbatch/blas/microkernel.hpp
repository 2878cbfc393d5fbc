// Register/cache-blocked micro-kernel engine for the host BLAS layer.
//
// The reference loops in gemm.cpp / syrk.cpp / triangular.cpp are
// element-at-a-time and memory-bound; every real-numerics path of the
// library (fused-step rank-k updates, the separated-path gemm sweeps, the
// CPU baselines) funnels through them. This engine provides the classic
// GotoBLAS/BLIS decomposition instead:
//
//   * the operands are packed into thread-local, zero-padded panels —
//     op(A) into MR-row slivers, op(B) into NR-column slivers — so the
//     innermost loops read contiguous, unit-stride memory regardless of
//     the caller's leading dimensions or transposition flags;
//   * an MR×NR register tile accumulates KC-long rank-1 updates. The tile
//     is an explicitly vectorized kernel selected at runtime from the
//     per-ISA tables (isa.hpp: SSE2/NEON, AVX2+FMA, AVX-512F) with a
//     scalar fallback that reproduces the original engine bit for bit.
//     One table lookup per call resolves the tile together with its
//     updating form and its two packers, all compiled with MR/NR fixed
//     for the tile's ISA: a whole vector tile with alpha = ±1 adds its sum
//     into C in registers, every other tile writes an acc block that the
//     engine adds into C with the same rounding (docs/blas.md,
//     "Numerical contracts");
//   * the m/n/k loops are blocked by MC/KC/NC so the packed A block stays
//     L2-resident and each packed B sliver stays L1-resident. The m and n
//     ranges are split into *balanced*, tile-aligned chunks (never a
//     degenerate tail chunk — the former n=512 NC-tail dip), while the k
//     range keeps the greedy KC split because the k-split order is what
//     fixes the floating-point accumulation order.
//
// All four trans combinations reduce to the same packed core (packing
// applies the transposition and, for complex scalars, the library's
// conjugate convention: Trans on a complex operand means Aᴴ). Arbitrary
// m, n, k are handled by zero-padding partial slivers and masking the
// acc write-back of partial tiles, so the engine is exact for every size
// including 0 and 1.
//
// Blocking depths and the register tile are no longer compile-time: the
// engine reads the active TuningProfile (tuning.hpp), which defaults per
// ISA and can be measured by the cache-hierarchy autotuner
// (core/autotune.hpp) and persisted across runs. For a fixed
// (ISA, profile) pair the results are bit-reproducible.
//
// Dispatch policy lives here too: blas::gemm and friends call the engine
// above a small-size cutoff (`use_blocked`, itself profile-driven) and
// fall back to the *_ref loops below it. Tests and benches can pin either
// path via set_dispatch. See docs/blas.md for the tuning story.
#pragma once

#include <vector>

#include "vbatch/blas/tuning.hpp"
#include "vbatch/util/matrix_view.hpp"
#include "vbatch/util/types.hpp"

namespace vbatch::blas::micro {

/// Which implementation the public blas::gemm/syrk/trsm/trmm entry points
/// select. Auto applies the `use_blocked` cutoff; ForceRef / ForceBlocked pin
/// one path (used by the conformance suite and the wallclock_blas bench).
enum class Dispatch : int { Auto, ForceRef, ForceBlocked };

/// Sets the process-wide dispatch mode. Not meant to be toggled while
/// kernels are in flight on the worker pool.
void set_dispatch(Dispatch d) noexcept;
[[nodiscard]] Dispatch dispatch() noexcept;

/// RAII guard pinning the dispatch mode for a scope (tests/benches).
class DispatchGuard {
 public:
  explicit DispatchGuard(Dispatch d) noexcept : prev_(dispatch()) { set_dispatch(d); }
  ~DispatchGuard() { set_dispatch(prev_); }
  DispatchGuard(const DispatchGuard&) = delete;
  DispatchGuard& operator=(const DispatchGuard&) = delete;

 private:
  Dispatch prev_;
};

/// Cutoff policy: true when the packed engine is expected to beat the
/// reference loops for a gemm-shaped problem of the given extents. Below the
/// cutoff the packing traffic (m·k + k·n writes) is not amortized by the
/// 2·m·n·k flops. The thresholds come from the active profile (min_m,
/// min_mnk), so an autotuned profile moves the crossover with the tile.
template <typename T>
[[nodiscard]] inline bool use_blocked(index_t m, index_t n, index_t k) noexcept {
  const KernelShape& s = shape_of<T>(active_profile());
  return m >= s.min_m && n >= 4 && k >= 8 &&
         static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k) >= s.min_mnk;
}

/// C = alpha·op(A)·op(B) + beta·C through the packed core with an explicit
/// blocking shape — the autotuner's sweep primitive. `shape` must satisfy
/// validate_profile bounds (mr ≤ kMaxMR, nr ≤ kMaxNR); the register tile is
/// the best compiled kernel for (active ISA, T, mr, nr), falling back to a
/// runtime-shaped scalar tile with the same accumulation order.
template <typename T>
void gemm_blocked_shaped(Trans trans_a, Trans trans_b, T alpha, ConstMatrixView<T> a,
                         ConstMatrixView<T> b, T beta, MatrixView<T> c, const KernelShape& shape);

/// C = alpha·op(A)·op(B) + beta·C using the active profile's shape for T.
/// Dimensions must already be validated (blas::gemm does); any m, n, k ≥ 0
/// is handled.
template <typename T>
void gemm_blocked(Trans trans_a, Trans trans_b, T alpha, ConstMatrixView<T> a,
                  ConstMatrixView<T> b, T beta, MatrixView<T> c);

/// The uplo triangle of C = alpha·op(A)·op(A)ᴴ + beta·C (herk for complex T)
/// on the packed core, as gemm_blocked(op(A), op(A)ᴴ) with only the register
/// tiles that meet the triangle: per KC block op(A) is packed once as the A
/// operand and once as the B operand (once per NC column chunk above n > NC),
/// and the write-back is masked to the triangle, so every element of it is
/// bit-identical to gemm_blocked on the same operands. For complex T the
/// diagonal is alpha·herk_diag_sum + beta·c, exactly real for a real
/// diagonal. With alpha = 0 or k = 0 only the beta pass runs; A is not read.
template <typename T>
void syrk_blocked(Uplo uplo, Trans trans, T alpha, ConstMatrixView<T> a, T beta,
                  MatrixView<T> c);

/// Diagonal element i of op(A)·op(A)ᴴ. It is mathematically real, so it is
/// accumulated as a real scalar: no rounding-level (or FMA-contraction)
/// imaginary residue is ever left on a complex c(i, i).
template <typename T>
[[nodiscard]] real_t<T> herk_diag_sum(Trans trans, ConstMatrixView<T> a, index_t i) {
  const index_t k = trans == Trans::NoTrans ? a.cols() : a.rows();
  real_t<T> sum(0);
  if (trans == Trans::NoTrans) {
    for (index_t l = 0; l < k; ++l) sum += real_val(a(i, l) * conj_val(a(i, l)));
  } else {
    for (index_t l = 0; l < k; ++l) sum += real_val(conj_val(a(l, i)) * a(l, i));
  }
  return sum;
}

/// One register-tile shape a compiled kernel exists for.
struct TilePair {
  int mr, nr;
};

/// The (mr, nr) tiles reachable for scalar type T under `isa` — the union of
/// the ISA's own table and every fallback table below it, deduplicated. The
/// autotuner restricts its sweep to this set (plus the generic tile's
/// arbitrary shapes); tests use it to cover every compiled kernel.
template <typename T>
[[nodiscard]] std::vector<TilePair> supported_tiles(Isa isa);

}  // namespace vbatch::blas::micro
