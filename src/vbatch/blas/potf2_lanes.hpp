// Internal: the exact-arithmetic SIMD lane kernels of the host BLAS — the
// batch-interleaved unblocked Cholesky behind blas::potf2_batch and the
// triangular-solve base case behind blas::trsm (docs/blas.md,
// "Batch-interleaved potf2" and "The trsm lane base case").
//
// potf2_lanes: up to W real panels of any orders factor together, one per
// SIMD lane. The referenced triangle of every panel is packed into a
// thread-local tile of the largest order n laid out element-major,
// lane-minor — element (r, c) of lane l sits at tile[(c·n + r)·W + l] —
// with a W×W in-register transpose per W-row column segment that every lane
// holds; a lane past its own order holds identity padding. One sweep over
// the tile then runs blas::potf2's Lower recurrence on W-wide vectors, and
// each lane unpacks only the triangle potf2 would have written on its own
// panel.
//
// trsm_lanes: the rows of B (Right side) or its columns (Left side) are
// independent solves, so each lane runs one of them. Right: R·W rows stay in
// R accumulators while column j is finished in trsm_ref's column order, A
// read in place. Left: R·W columns are packed lane-minor into the tile (the
// same transpose) and trsm_ref's dot-form row recurrence runs on it. The
// rest below a multiple of W is solved the same way on a zero-padded copy
// one vector wide.
//
// Bit contract: every lane performs exactly the scalar oracle's operations
// in its order, so each result equals it bit for bit at every W. potf2_lanes
// matches potf2 — the same products, subtracted in increasing l, sqrt, then
// a multiply by the reciprocal. trsm_lanes matches trsm_ref — Right: the
// same b(i,l)·op(A)(l,j) products subtracted in trsm_ref's l order, exact
// zero coefficients skipped, then a multiply by 1/op(A)(j,j); Left: the
// same op(A)(i,l)·x(l) products subtracted in trsm_ref's l order (no zero
// skip), then a division by op(A)(i,i). That needs IEEE-exact vector
// arithmetic: the translation units instantiating this header
// (potf2_lanes_*.cpp) are compiled with -ffp-contract=off, because a
// contracted s − a·b (FMA) rounds once instead of twice, and so are the
// oracles (potrf.cpp, triangular.cpp). potf2's Upper runs the same kernel on
// the transposed pack: Upper's products a(l,j)·a(l,i) are Lower's
// a(i,l)·a(j,l) with the factors swapped, and IEEE multiplication commutes
// (a NaN can only meet a non-NaN factor here: a NaN in row j fails column j
// before row j is used).
//
// A potf2 lane whose pivot is not positive keeps LAPACK's early-return
// state: the offending value is stored on its diagonal and nothing after it
// is written. The lane keeps computing garbage in the tile (never unpacked);
// the sweep stops once no lane with a panel has a column left. Padding never
// reaches a lane's real entries (element (r, c) reads only columns l < c of
// rows r and c) and never fails a lane: info counts only its own columns.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "vbatch/util/matrix_view.hpp"
#include "vbatch/util/types.hpp"

#if defined(__SSE2__)
#include <immintrin.h>
#endif

namespace vbatch::blas::detail {

/// Factors up to W panels, one per lane: lane l holds the panel a[l] of
/// order n[l] and leading dimension lda[l] (order 0 for a lane without a
/// panel); info[l] receives its LAPACK info (0, or the 1-based failing
/// column). Every array has W entries.
template <typename T>
using Potf2LanesFn = void (*)(bool upper, const index_t* n, T* const* a, const index_t* lda,
                              int* info);

/// trsm_ref with unit alpha on the lanes: solves op(A)·X = B (Left) or
/// X·op(A) = B (Right) for the m×n B (leading dimension ldb), A the
/// triangle of order m (Left) or n (Right). Every row (Right) or column
/// (Left) is solved, the rest below a multiple of W on a padded vector.
template <typename T>
using TrsmLanesFn = void (*)(Side side, Uplo uplo, Trans trans, Diag diag, index_t m, index_t n,
                             const T* a, index_t lda, T* b, index_t ldb);

template <typename T>
struct LaneFns {
  Potf2LanesFn<T> potf2 = nullptr;
  TrsmLanesFn<T> trsm = nullptr;
};

/// One instruction set's lane kernels: the vector width in bytes (W =
/// bytes / sizeof(T)) and the float / double entry points.
struct LaneKernels {
  int vector_bytes = 0;
  LaneFns<float> f;
  LaneFns<double> d;

  template <typename T>
  [[nodiscard]] const LaneFns<T>& of() const noexcept {
    if constexpr (std::is_same_v<T, float>) return f;
    else return d;
  }
};

/// Per-TU tables; an ISA whose TU was not compiled reports vector_bytes 0.
LaneKernels lane_kernels_v128() noexcept;
LaneKernels lane_kernels_avx2() noexcept;
LaneKernels lane_kernels_avx512() noexcept;

/// The active ISA's table (potrf.cpp); vector_bytes 0 under Isa::Scalar.
LaneKernels active_lane_kernels() noexcept;

namespace lanes {

// W-lane vector types (an alias template drops the attributes on a
// dependent type, a member typedef keeps them). VecU is the unaligned,
// aliasing-safe view of W consecutive column elements.
template <typename T, int W>
struct VecTypes {
  typedef T Vec __attribute__((vector_size(W * sizeof(T))));
  typedef T VecU __attribute__((vector_size(W * sizeof(T)), aligned(alignof(T)), may_alias));
};
template <typename T, int W>
using Vec = typename VecTypes<T, W>::Vec;
template <typename T, int W>
using VecU = typename VecTypes<T, W>::VecU;

// Correctly rounded lane-wise sqrt: the x86 instruction when the TU's -m
// flags provide it for this width, the scalar builtin per lane otherwise.
// Everything here and in potf2_lanes is either a template on the TU's own
// vector types or a builtin, so no inline function compiled with one TU's
// -m flags can be picked by the linker for another TU.
template <typename T, int W>
inline Vec<T, W> vsqrt(Vec<T, W> v) {
  constexpr int kBytes = W * static_cast<int>(sizeof(T));
  constexpr bool kDouble = sizeof(T) == 8;
#if defined(__SSE2__)
  if constexpr (kBytes == 16 && kDouble) return _mm_sqrt_pd(v);
  if constexpr (kBytes == 16 && !kDouble) return _mm_sqrt_ps(v);
#endif
#if defined(__AVX__)
  if constexpr (kBytes == 32 && kDouble) return _mm256_sqrt_pd(v);
  if constexpr (kBytes == 32 && !kDouble) return _mm256_sqrt_ps(v);
#endif
#if defined(__AVX512F__)
  // The all-lanes masked form: GCC's unmasked one warns on its undefined
  // pass-through operand.
  if constexpr (kBytes == 64 && kDouble) return _mm512_mask_sqrt_pd(v, 0xFF, v);
  if constexpr (kBytes == 64 && !kDouble) return _mm512_mask_sqrt_ps(v, 0xFFFF, v);
#endif
  for (int l = 0; l < W; ++l) {
    if constexpr (kDouble) v[l] = __builtin_sqrt(v[l]);
    else v[l] = __builtin_sqrtf(v[l]);
  }
  return v;
}

// x in every lane (a plain broadcast: keeps -0 and NaN payloads as they are).
template <typename T, int W>
inline Vec<T, W> splat(T x) {
  Vec<T, W> v{};
  for (int l = 0; l < W; ++l) v[l] = x;
  return v;
}

// Runs fn(R, first) over [0, count) in blocks of R·W lanes, R = 8, then one
// block each of R = 4, 2 and 1 for what is left; returns the lanes covered
// (count rounded down to a multiple of W).
template <int W, typename Fn>
inline index_t in_blocks(index_t count, Fn&& fn) {
  index_t i = 0;
  for (; i + 8 * W <= count; i += 8 * W) fn(std::integral_constant<int, 8>{}, i);
  auto tail = [&](auto R) {
    if (i + decltype(R)::value * W <= count) {
      fn(R, i);
      i += decltype(R)::value * W;
    }
  };
  tail(std::integral_constant<int, 4>{});
  tail(std::integral_constant<int, 2>{});
  tail(std::integral_constant<int, 1>{});
  return i;
}

// Index of the shuffle that interleaves b-element blocks of two vectors:
// output k of the "low" (hi = 0) or "high" (hi = 1) result.
template <int W, int B, int Hi>
consteval int interleave_index(int k) {
  const int pair = k / (2 * B), within = k % (2 * B);
  const int from_y = within / B;
  return (from_y ? W : 0) + pair * 2 * B + Hi * B + within % B;
}

template <typename T, int W, int B, int Hi, int... K>
inline Vec<T, W> interleave(Vec<T, W> x, Vec<T, W> y, std::integer_sequence<int, K...>) {
  return __builtin_shufflevector(x, y, interleave_index<W, B, Hi>(K)...);
}

// In-place W×W transpose: v[r][c] ↔ v[c][r], log2(W) rounds of block
// interleaves (the classic unpacklo/unpackhi network). The round for block
// size B pairs the rows that differ in index bit B and swaps that bit
// between row and column index.
template <typename T, int W, int B = 1>
inline void transpose(Vec<T, W> (&v)[W]) {
  if constexpr (B < W) {
    constexpr auto seq = std::make_integer_sequence<int, W>{};
    for (int g = 0; g < W; g += 2 * B)
      for (int r = g; r < g + B; ++r) {
        const Vec<T, W> lo = interleave<T, W, B, 0>(v[r], v[r + B], seq);
        v[r + B] = interleave<T, W, B, 1>(v[r], v[r + B], seq);
        v[r] = lo;
      }
    transpose<T, W, 2 * B>(v);
  }
}

// Grow-only, vector-aligned per-thread tile: a launch reuses it, so the
// steady state makes no heap allocation. Slots are separate tiles.
template <typename V, int Slot = 0>
V* tile(std::size_t count) {
  struct Tile {
    struct Free {
      void operator()(V* p) const { ::operator delete(p, std::align_val_t{alignof(V)}); }
    };
    std::unique_ptr<V, Free> p;
    std::size_t cap = 0;
  };
  thread_local Tile t;
  if (count > t.cap) {
    t.p.reset(static_cast<V*>(::operator new(count * sizeof(V), std::align_val_t{alignof(V)})));
    t.cap = count;
  }
  return t.p.get();
}

// A per-thread identity matrix of order at least n, grown on demand; `ld`
// receives its leading dimension (its order).
template <typename T, int W>
T* identity(index_t n, index_t& ld) {
  thread_local index_t order = 0;
  T* const eye = reinterpret_cast<T*>(tile<Vec<T, W>, 2>(std::size_t((n * n + W - 1) / W)));
  if (n > order) {
    for (index_t e = 0; e < n * n; ++e) eye[e] = e % (n + 1) == 0 ? T(1) : T(0);
    order = n;
  }
  ld = order;
  return eye;
}

}  // namespace lanes

template <typename T, int W>
void potf2_lanes(bool upper, const index_t* panel_order, T* const* panel, const index_t* panel_ld,
                 int* info) {
  using V = lanes::Vec<T, W>;
  using VU = lanes::VecU<T, W>;
  // The tile has the largest order n. A lane without a panel factors an
  // identity of order n instead: the identity factors to itself bit for bit
  // and never fails, and it keeps the lane in the transposed (whole-vector)
  // pack and unpack. Rows and columns below `common` are real in every lane.
  index_t n = 0;
  bool lane_free = false;
  for (int l = 0; l < W; ++l) {
    n = panel_order[l] > n ? panel_order[l] : n;
    lane_free |= panel_order[l] == 0;
  }
  index_t eye_ld = 0;
  T* const eye = lane_free ? lanes::identity<T, W>(n, eye_ld) : nullptr;
  T* a[W];
  index_t order[W], lda[W];
  index_t common = n;
  for (int l = 0; l < W; ++l) {
    const bool none = panel_order[l] == 0;
    a[l] = none ? eye : panel[l];
    lda[l] = none ? eye_ld : panel_ld[l];
    order[l] = none ? n : panel_order[l];
    common = order[l] < common ? order[l] : common;
  }
  V* const P = lanes::tile<V>(static_cast<std::size_t>(n * n));
  // Packed element (r, c), r ≥ c, of the Lower-form tile. Source element
  // (q, s) of column s maps to P(q, s) for Lower and to P(s, q) for Upper.
  auto at = [P, n](index_t r, index_t c) -> V& { return P[c * n + r]; };
  auto src_at = [upper, &at](index_t q, index_t s) -> V& { return upper ? at(s, q) : at(q, s); };
  // Rows of source column s in the referenced triangle, [begin, end), and
  // the prefix [begin, whole) that every lane holds: Lower [s, n), Upper
  // [0, s]. Source element (q, s) is lane l's iff max(q, s) < order[l].
  struct Rows {
    index_t begin, end, whole;
  };
  auto rows = [upper, n, common](index_t s) {
    if (upper) return Rows{0, s + 1, s < common ? s + 1 : 0};
    return Rows{s, n, s > common ? s : common};
  };
  auto real = [&order](int l, index_t q, index_t s) { return q < order[l] && s < order[l]; };

  for (index_t s = 0; s < n; ++s) {
    auto [q, end, whole] = rows(s);
    for (; q + W <= whole; q += W) {
      V v[W];
      for (int l = 0; l < W; ++l) v[l] = *reinterpret_cast<const VU*>(a[l] + s * lda[l] + q);
      lanes::transpose<T, W>(v);
      for (int e = 0; e < W; ++e) src_at(q + e, s) = v[e];
    }
    // Gathered in a register (lane stores to memory would stall the vector
    // reload); a lane past its own order holds identity padding.
    const T pad_diag(1), pad_off(0);
    for (; q < end; ++q) {
      V v{};
      for (int l = 0; l < W; ++l)
        v[l] = real(l, q, s) ? a[l][s * lda[l] + q] : q == s ? pad_diag : pad_off;
      src_at(q, s) = v;
    }
  }

  for (int l = 0; l < W; ++l) info[l] = 0;
  bool failed = false;
  const V zero{}, one = zero + T(1);
  for (index_t j = 0; j < n; ++j) {
    V ajj = at(j, j);
    for (index_t l = 0; l < j; ++l) ajj -= at(j, l) * at(j, l);
    const auto ok = ajj > zero;
    // Only a lane's own columns can fail it; padding columns never do.
    bool more = false;
    for (int l = 0; l < W; ++l) {
      if (info[l] != 0 || j >= panel_order[l]) continue;
      if (!ok[l]) {
        info[l] = static_cast<int>(j) + 1;
        failed = true;
      } else {
        more |= j + 1 < order[l];
      }
    }
    const V root = lanes::vsqrt<T, W>(ajj);
    // A failing lane stores the offending value itself (LAPACK's early
    // return); lanes that failed earlier never unpack this column.
    at(j, j) = ok ? root : ajj;
    if (!more) break;  // no lane has a column left to factor
    const V inv = one / root;
    index_t i = j + 1;
    for (; i + 4 <= n; i += 4) {
      V s0 = at(i, j), s1 = at(i + 1, j), s2 = at(i + 2, j), s3 = at(i + 3, j);
      for (index_t l = 0; l < j; ++l) {
        const V x = at(j, l);
        s0 -= at(i, l) * x;
        s1 -= at(i + 1, l) * x;
        s2 -= at(i + 2, l) * x;
        s3 -= at(i + 3, l) * x;
      }
      at(i, j) = s0 * inv;
      at(i + 1, j) = s1 * inv;
      at(i + 2, j) = s2 * inv;
      at(i + 3, j) = s3 * inv;
    }
    for (; i < n; ++i) {
      V sum = at(i, j);
      for (index_t l = 0; l < j; ++l) sum -= at(i, l) * at(j, l);
      at(i, j) = sum * inv;
    }
  }

  if (!failed) {
    for (index_t s = 0; s < n; ++s) {
      auto [q, end, whole] = rows(s);
      for (; q + W <= whole; q += W) {
        V v[W];
        for (int e = 0; e < W; ++e) v[e] = src_at(q + e, s);
        lanes::transpose<T, W>(v);
        for (int l = 0; l < W; ++l) *reinterpret_cast<VU*>(a[l] + s * lda[l] + q) = v[l];
      }
      for (; q < end; ++q)
        for (int l = 0; l < W; ++l)
          if (real(l, q, s)) a[l][s * lda[l] + q] = src_at(q, s)[l];
    }
    return;
  }
  // Some lane failed: write back per lane exactly what potf2 writes —
  // columns before the failing one, then the offending diagonal value.
  for (int l = 0; l < W; ++l) {
    const index_t done = info[l] == 0 ? order[l] : info[l] - 1;
    for (index_t c = 0; c < done; ++c)
      for (index_t r = c; r < order[l]; ++r) {
        const index_t q = upper ? c : r, s = upper ? r : c;
        a[l][s * lda[l] + q] = at(r, c)[l];
      }
    if (info[l] != 0) a[l][done * lda[l] + done] = at(done, done)[l];
  }
}

// X·op(A) = B for R·W rows of B, each row one lane: column j of the block
// lives in R accumulators while trsm_ref's updates from the finished columns
// l are subtracted in trsm_ref's order (forward: l < j, columns ascending;
// backward: l > j, columns descending), exact zero coefficients skipped,
// then the multiply by 1/op(A)(j,j). op(A) is read in place.
template <typename T, int W, int R>
void trsm_right_rows(bool forward, bool trans, bool unit, index_t n, const T* a, index_t lda,
                     T* b, index_t ldb) {
  using V = lanes::Vec<T, W>;
  using VU = lanes::VecU<T, W>;
  auto op_a = [=](index_t l, index_t j) { return trans ? a[j + l * lda] : a[l + j * lda]; };
  auto seg = [=](index_t j, int r) { return reinterpret_cast<VU*>(b + j * ldb + r * W); };
  for (index_t step = 0; step < n; ++step) {
    const index_t j = forward ? step : n - 1 - step;
    V acc[R];
    for (int r = 0; r < R; ++r) acc[r] = *seg(j, r);
    const index_t l_end = forward ? j : n;
    for (index_t l = forward ? 0 : j + 1; l < l_end; ++l) {
      const T c = op_a(l, j);
      if (c == T(0)) continue;
      const V cv = lanes::splat<T, W>(c);
      for (int r = 0; r < R; ++r) {
        const V x = *seg(l, r);
        acc[r] -= x * cv;
      }
    }
    if (!unit) {
      const V inv = lanes::splat<T, W>(T(1) / op_a(j, j));
      for (int r = 0; r < R; ++r) acc[r] *= inv;
    }
    for (int r = 0; r < R; ++r) *seg(j, r) = acc[r];
  }
}

// op(A)·X = B for R·W columns of B, each column one lane. The m×(R·W) block
// is packed row-major, lane-minor — row i of group r at tile[i·R + r] — and
// trsm_ref's dot-form recurrence runs on it: row i subtracts
// op(A)(i,l)·x(l) in increasing l (l < i forward, l > i backward), then
// divides by op(A)(i,i). The R groups are independent chains.
template <typename T, int W, int R>
void trsm_left_cols(bool forward, bool trans, bool unit, index_t m, const T* a, index_t lda,
                    T* b, index_t ldb) {
  using V = lanes::Vec<T, W>;
  using VU = lanes::VecU<T, W>;
  V* const P = lanes::tile<V>(static_cast<std::size_t>(m * R));
  auto op_a = [=](index_t i, index_t l) { return trans ? a[l + i * lda] : a[i + l * lda]; };
  // Element (q, lane l) of group r: column r·W + l of the block.
  auto col = [=](int r, int l) { return b + (r * W + l) * ldb; };

  for (int r = 0; r < R; ++r) {
    index_t q = 0;
    for (; q + W <= m; q += W) {
      V v[W];
      for (int l = 0; l < W; ++l) v[l] = *reinterpret_cast<const VU*>(col(r, l) + q);
      lanes::transpose<T, W>(v);
      for (int e = 0; e < W; ++e) P[(q + e) * R + r] = v[e];
    }
    for (; q < m; ++q) {
      V v{};
      for (int l = 0; l < W; ++l) v[l] = col(r, l)[q];
      P[q * R + r] = v;
    }
  }

  for (index_t step = 0; step < m; ++step) {
    const index_t i = forward ? step : m - 1 - step;
    V sum[R];
    for (int r = 0; r < R; ++r) sum[r] = P[i * R + r];
    const index_t l_end = forward ? i : m;
    for (index_t l = forward ? 0 : i + 1; l < l_end; ++l) {
      const V c = lanes::splat<T, W>(op_a(i, l));
      for (int r = 0; r < R; ++r) sum[r] -= c * P[l * R + r];
    }
    if (!unit) {
      const V d = lanes::splat<T, W>(op_a(i, i));
      for (int r = 0; r < R; ++r) sum[r] /= d;
    }
    for (int r = 0; r < R; ++r) P[i * R + r] = sum[r];
  }

  for (int r = 0; r < R; ++r) {
    index_t q = 0;
    for (; q + W <= m; q += W) {
      V v[W];
      for (int e = 0; e < W; ++e) v[e] = P[(q + e) * R + r];
      lanes::transpose<T, W>(v);
      for (int l = 0; l < W; ++l) *reinterpret_cast<VU*>(col(r, l) + q) = v[l];
    }
    for (; q < m; ++q)
      for (int l = 0; l < W; ++l) col(r, l)[q] = P[q * R + r][l];
  }
}

template <typename T, int W>
void trsm_lanes(Side side, Uplo uplo, Trans trans, Diag diag, index_t m, index_t n, const T* a,
                index_t lda, T* b, index_t ldb) {
  const bool tr = trans == Trans::Trans;
  const bool unit = diag == Diag::Unit;
  // trsm_ref's direction: an effectively lower op(A) runs Left rows forward
  // and Right columns backward.
  const bool eff_lower = (uplo == Uplo::Lower) == (trans == Trans::NoTrans);
  // The rest below W rows (Right) or columns (Left) is copied into a
  // zero-padded scratch one vector wide, solved there, and only its real
  // lanes are copied back: the lanes are independent solves.
  if (side == Side::Right) {
    const index_t done = lanes::in_blocks<W>(m, [&](auto R, index_t i) {
      trsm_right_rows<T, W, decltype(R)::value>(!eff_lower, tr, unit, n, a, lda, b + i, ldb);
    });
    const index_t rest = m - done;
    if (rest == 0) return;
    T* const S = reinterpret_cast<T*>(lanes::tile<lanes::Vec<T, W>, 1>(std::size_t(n)));
    for (index_t j = 0; j < n; ++j)
      for (index_t r = 0; r < W; ++r) S[j * W + r] = r < rest ? b[j * ldb + done + r] : T(0);
    trsm_right_rows<T, W, 1>(!eff_lower, tr, unit, n, a, lda, S, W);
    for (index_t j = 0; j < n; ++j)
      for (index_t r = 0; r < rest; ++r) b[j * ldb + done + r] = S[j * W + r];
    return;
  }
  const index_t done = lanes::in_blocks<W>(n, [&](auto R, index_t j) {
    trsm_left_cols<T, W, decltype(R)::value>(eff_lower, tr, unit, m, a, lda, b + j * ldb, ldb);
  });
  const index_t rest = n - done;
  if (rest == 0) return;
  T* const S = reinterpret_cast<T*>(lanes::tile<lanes::Vec<T, W>, 1>(std::size_t(m)));
  for (index_t c = 0; c < W; ++c)
    for (index_t i = 0; i < m; ++i) S[c * m + i] = c < rest ? b[(done + c) * ldb + i] : T(0);
  trsm_left_cols<T, W, 1>(eff_lower, tr, unit, m, a, lda, S, m);
  for (index_t c = 0; c < rest; ++c)
    for (index_t i = 0; i < m; ++i) b[(done + c) * ldb + i] = S[c * m + i];
}

}  // namespace vbatch::blas::detail
