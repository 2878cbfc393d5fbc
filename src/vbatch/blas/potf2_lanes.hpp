// Internal: the batch-interleaved unblocked Cholesky kernel behind
// blas::potf2_batch (docs/blas.md, "Batch-interleaved potf2").
//
// W equal-order real panels factor together, one per SIMD lane. The
// referenced triangle of every panel is packed into a thread-local tile laid
// out element-major, lane-minor — element (r, c) of lane l sits at
// tile[(c·n + r)·W + l] — with a W×W in-register transpose per W-row column
// segment. One sweep over the tile then runs blas::potf2's Lower recurrence
// on W-wide vectors, and only the triangle potf2 would have written is
// unpacked.
//
// Bit contract: every lane performs exactly potf2's operations in potf2's
// order — the same products, subtracted in increasing l, sqrt, then a
// multiply by the reciprocal — so each panel's factor and info equal
// potf2's bit for bit at every W. That needs IEEE-exact vector arithmetic:
// the translation units instantiating this header (potf2_lanes_*.cpp) are
// compiled with -ffp-contract=off, because a contracted s − a·b (FMA) rounds
// once instead of twice. Upper runs the same kernel on the transposed pack:
// Upper's products a(l,j)·a(l,i) are Lower's a(i,l)·a(j,l) with the factors
// swapped, and IEEE multiplication commutes (a NaN can only meet a non-NaN
// factor here: a NaN in row j fails column j before row j is used).
//
// A lane whose pivot is not positive keeps LAPACK's early-return state: the
// offending value is stored on its diagonal and nothing after it is written.
// The lane keeps computing garbage in the tile (never unpacked); the sweep
// stops once every lane has failed.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

#include "vbatch/util/matrix_view.hpp"

#if defined(__SSE2__)
#include <immintrin.h>
#endif

namespace vbatch::blas::detail {

/// Factors W panels of order n: panel l is a[l] with leading dimension
/// lda[l]; info[l] receives its LAPACK info (0, or the 1-based failing
/// column).
template <typename T>
using Potf2LanesFn = void (*)(bool upper, index_t n, T* const* a, const index_t* lda, int* info);

/// One instruction set's kernels: the vector width in bytes (W = bytes /
/// sizeof(T)) and the float / double entry points.
struct Potf2LaneKernels {
  int vector_bytes = 0;
  Potf2LanesFn<float> f = nullptr;
  Potf2LanesFn<double> d = nullptr;
};

/// Per-TU tables; an ISA whose TU was not compiled reports vector_bytes 0.
Potf2LaneKernels potf2_lanes_v128() noexcept;
Potf2LaneKernels potf2_lanes_avx2() noexcept;
Potf2LaneKernels potf2_lanes_avx512() noexcept;

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
// steady state makes no heap allocation.
template <typename V>
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

}  // namespace lanes

template <typename T, int W>
void potf2_lanes(bool upper, index_t n, T* const* a, const index_t* lda, int* info) {
  using V = lanes::Vec<T, W>;
  using VU = lanes::VecU<T, W>;
  V* const P = lanes::tile<V>(static_cast<std::size_t>(n * n));
  // Packed element (r, c), r ≥ c, of the Lower-form tile. Source element
  // (q, s) of column s maps to P(q, s) for Lower and to P(s, q) for Upper.
  auto at = [P, n](index_t r, index_t c) -> V& { return P[c * n + r]; };
  auto src_at = [upper, &at](index_t q, index_t s) -> V& { return upper ? at(s, q) : at(q, s); };
  // Rows of source column s in the referenced triangle: [s, n) or [0, s].
  struct Rows {
    index_t begin, end;
  };
  auto rows = [upper, n](index_t s) { return upper ? Rows{0, s + 1} : Rows{s, n}; };

  for (index_t s = 0; s < n; ++s) {
    auto [q, end] = rows(s);
    for (; q + W <= end; q += W) {
      V v[W];
      for (int l = 0; l < W; ++l) v[l] = *reinterpret_cast<const VU*>(a[l] + s * lda[l] + q);
      lanes::transpose<T, W>(v);
      for (int e = 0; e < W; ++e) src_at(q + e, s) = v[e];
    }
    for (; q < end; ++q) {
      V v{};  // assembled in a register: lane stores to memory would stall the vector reload
      for (int l = 0; l < W; ++l) v[l] = a[l][s * lda[l] + q];
      src_at(q, s) = v;
    }
  }

  for (int l = 0; l < W; ++l) info[l] = 0;
  int failed = 0;
  const V zero{}, one = zero + T(1);
  for (index_t j = 0; j < n; ++j) {
    V ajj = at(j, j);
    for (index_t l = 0; l < j; ++l) ajj -= at(j, l) * at(j, l);
    const auto ok = ajj > zero;
    for (int l = 0; l < W; ++l)
      if (!ok[l] && info[l] == 0) {
        info[l] = static_cast<int>(j) + 1;
        ++failed;
      }
    const V root = lanes::vsqrt<T, W>(ajj);
    // A failing lane stores the offending value itself (LAPACK's early
    // return); lanes that failed earlier never unpack this column.
    at(j, j) = ok ? root : ajj;
    if (failed == W) break;
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

  if (failed == 0) {
    for (index_t s = 0; s < n; ++s) {
      auto [q, end] = rows(s);
      for (; q + W <= end; q += W) {
        V v[W];
        for (int e = 0; e < W; ++e) v[e] = src_at(q + e, s);
        lanes::transpose<T, W>(v);
        for (int l = 0; l < W; ++l) *reinterpret_cast<VU*>(a[l] + s * lda[l] + q) = v[l];
      }
      for (; q < end; ++q)
        for (int l = 0; l < W; ++l) a[l][s * lda[l] + q] = src_at(q, s)[l];
    }
    return;
  }
  // Some lane failed: write back per lane exactly what potf2 writes —
  // columns before the failing one, then the offending diagonal value.
  for (int l = 0; l < W; ++l) {
    const index_t done = info[l] == 0 ? n : info[l] - 1;
    for (index_t c = 0; c < done; ++c)
      for (index_t r = c; r < n; ++r) {
        const index_t q = upper ? c : r, s = upper ? r : c;
        a[l][s * lda[l] + q] = at(r, c)[l];
      }
    if (info[l] != 0) a[l][done * lda[l] + done] = at(done, done)[l];
  }
}

}  // namespace vbatch::blas::detail
