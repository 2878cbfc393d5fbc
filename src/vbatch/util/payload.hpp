// Internal: payload rule v2, the counter-based generator behind fill_spd and
// fill_general (util/rng.hpp), and its per-ISA fill kernels.
//
// A call draws one 64-bit key from its Rng. Every entry is then a pure
// function of the key and the entry's position, in the manner of Salmon et
// al., "Parallel random numbers: as easy as 1, 2, 3" (SC 2011): no entry
// waits on another, so a column fills W entries per vector instruction.
//
//   h(r, c) = fmix32(G(r) + H(c))                         (mod 2^32)
//   G(r) = fmix32(r ^ a),  H(c) = fmix32(c·0x9E3779B9 + b)
//
// with fmix32 MurmurHash3's 32-bit finalizer, r and c the row and column as
// 32-bit words, and (a, b) the key's low and high words for the real part
// or the words of splitmix64(key) for the imaginary part. The top B bits of
// h, B = 24 for float and 32 for double, read as a signed integer s give
// x = s·2^-B in [-1/2, 1/2): an exact conversion and an exact scaling.
//
//   fill_spd     entry (i, j) hashes (max(i, j), min(i, j)), so the matrix
//                is symmetric by construction: re = x + 1/2 in [0, 1),
//                im = x in [-1/2, 1/2) below the diagonal and -x above it
//                (Hermitian). The diagonal is re + n with im = 0, so a real
//                payload is strictly diagonally dominant.
//   fill_general entry (i, j) hashes (i, j): re = 2x and im = 2x, each in
//                [-1, 1).
//
// Every step is integer arithmetic or an exact floating-point operation,
// except the diagonal's re + n, which is one IEEE addition. The bits are
// therefore a pure function of (key, i, j): the same under every ISA, every
// leading dimension and every loop order, with or without FMA contraction.
// The kernels tabulate G and H once per tile of rows and columns, so an
// entry costs one fmix32.
//
// The kernels are compiled once per instruction set (payload_*.cpp) with W
// 32-bit lanes: W = 1 is the portable path (payload.cpp), and the 128-bit,
// AVX2 and AVX-512 TUs run W = 4, 8 and 16. Everything below is a template
// on W's own vector types or a builtin, so no inline function compiled with
// one TU's -m flags can be picked by the linker for another TU; complex
// entries are written through their real parts for the same reason.
#pragma once

#include <cstdint>
#include <type_traits>

#include "vbatch/util/matrix_view.hpp"

#if defined(__SSE2__)
#include <immintrin.h>
#endif

namespace vbatch::detail {

/// One fill: the shape, the key's words and the column-major extents.
struct PayloadCall {
  bool spd = false;                   ///< fill_spd (m == n) or fill_general
  std::uint32_t re_a = 0, re_b = 0;   ///< the real part's key words
  std::uint32_t im_a = 0, im_b = 0;   ///< the imaginary part's key words
  index_t m = 0, n = 0, ld = 0;
};

/// Fills a with the rule; R is the real type, and a complex matrix is
/// passed as its interleaved real and imaginary parts.
template <typename R>
using PayloadFn = void (*)(const PayloadCall& call, R* a);

template <typename R>
struct PayloadFns {
  PayloadFn<R> real = nullptr;
  PayloadFn<R> cplx = nullptr;
};

/// One instruction set's fill kernels.
struct PayloadKernels {
  PayloadFns<float> f;
  PayloadFns<double> d;

  template <typename R>
  [[nodiscard]] const PayloadFns<R>& of() const noexcept {
    if constexpr (sizeof(R) == sizeof(float)) return f;
    else return d;
  }
};

/// Per-TU tables; an ISA whose TU was not compiled returns null entries.
PayloadKernels payload_kernels_v128() noexcept;
PayloadKernels payload_kernels_avx2() noexcept;
PayloadKernels payload_kernels_avx512() noexcept;

/// The active ISA's table (blas::micro::active_isa()); the portable one
/// under Isa::Scalar or when that ISA's TU was not compiled.
PayloadKernels active_payload_kernels() noexcept;

namespace payload {

template <int W>
struct Lanes {
  typedef std::uint32_t U __attribute__((vector_size(W * 4)));
  typedef std::int32_t S __attribute__((vector_size(W * 4)));
};
template <typename R, int W>
struct Reals {
  typedef R V __attribute__((vector_size(W * sizeof(R))));
  typedef R VU __attribute__((vector_size(W * sizeof(R)), aligned(alignof(R)), may_alias));
};

// MurmurHash3's 32-bit finalizer: a bijection of the word with full avalanche.
template <typename U>
inline U fmix32(U x) {
  x ^= x >> 16;
  x *= 0x85EBCA6Bu;
  x ^= x >> 13;
  x *= 0xC2B2AE35u;
  x ^= x >> 16;
  return x;
}

// The row and column terms G and H of the hash.
template <typename U>
inline U row_term(U r, std::uint32_t a) {
  return fmix32(r ^ a);
}
template <typename U>
inline U col_term(U c, std::uint32_t b) {
  return fmix32(c * 0x9E3779B9u + b);
}

// The exact int32 → R conversion of one register-wide piece. GCC 12 lowers
// the generic int32 → double conversion to two 128-bit halves, so the
// x86 instruction is named where the TU's -m flags provide it (AVX-512 in
// its all-lanes masked form: GCC's unmasked one warns on its undefined
// pass-through operand).
template <typename R, int L>
inline typename Reals<R, L>::V to_real(typename Lanes<L>::S s) {
  using V = typename Reals<R, L>::V;
  if constexpr (sizeof(R) == sizeof(double)) {
#if defined(__AVX__)
    if constexpr (L == 4) return _mm256_cvtepi32_pd(reinterpret_cast<__m128i>(s));
#endif
#if defined(__AVX512F__)
    if constexpr (L == 8) return _mm512_maskz_cvtepi32_pd(0xFF, reinterpret_cast<__m256i>(s));
#endif
  }
  return __builtin_convertvector(s, V);
}

// The matrix is filled in tiles of kTile × kTile. G and H of a tile's rows
// and of its columns are tabulated once, so an entry costs one fmix32.
inline constexpr int kTile = 256;

// Part q's G and H of the indices first … first + count - 1 (rounded up to
// a multiple of W).
template <int W, int kParts>
inline void tabulate(index_t first, index_t count, const std::uint32_t* a,
                     const std::uint32_t* b, std::uint32_t (*g)[kTile],
                     std::uint32_t (*h)[kTile]) {
  using U = typename Lanes<W>::U;
  U iota;
  for (int l = 0; l < W; ++l) iota[l] = static_cast<std::uint32_t>(l);
  for (index_t t = 0; t < count; t += W) {
    const U k = iota + static_cast<std::uint32_t>(first + t);
    for (int q = 0; q < kParts; ++q) {
      *reinterpret_cast<U*>(g[q] + t) = row_term(k, a[q]);
      *reinterpret_cast<U*>(h[q] + t) = col_term(k, b[q]);
    }
  }
}

// Where a vector of fill_spd rows sits against the diagonal: every lane
// below it (the pair (i, j)), every lane above it (the pair (j, i)), or the
// lanes around the diagonal entry, which mix both.
enum class Side { Below, Above, Diagonal };

template <typename R, bool kComplex, bool kSpd, int W>
void fill_columns(const PayloadCall& p, R* a) {
  using U = typename Lanes<W>::U;
  using S = typename Lanes<W>::S;
  // A double result of W lanes is twice the width of the hash's vector: it
  // is converted and stored as P pieces of L lanes, each one register wide.
  constexpr int L = sizeof(R) == sizeof(float) || W == 1 ? W : W / 2;
  constexpr int P = W / L;
  using SL = typename Lanes<L>::S;
  using V = typename Reals<R, L>::V;
  using VU = typename Reals<R, L>::VU;
  constexpr int kParts = kComplex ? 2 : 1;
  constexpr bool kFloat = sizeof(R) == sizeof(float);
  // The scales of s: x = s·kHalf (the imaginary part of fill_spd) and
  // 2x = s·kUnit (fill_general). The real part of fill_spd is x + 1/2; for
  // float the offset is added to s instead, as the top bits of h ^ 2^31.
  [[maybe_unused]] constexpr R kHalf = kFloat ? R(0x1p-24) : R(0x1p-32);
  [[maybe_unused]] constexpr R kUnit = kFloat ? R(0x1p-23) : R(0x1p-31);
  // Locals, not p's fields: the stores below may alias p as far as the
  // compiler knows, and would reload them every vector.
  const std::uint32_t ka[2] = {p.re_a, p.im_a}, kb[2] = {p.re_b, p.im_b};
  const index_t m = p.m, n = p.n, ld = p.ld;
  alignas(64) std::uint32_t g_row[kParts][kTile], h_row[kParts][kTile];
  alignas(64) std::uint32_t g_col[kParts][kTile], h_col[kParts][kTile];
  U iota;
  for (int l = 0; l < W; ++l) iota[l] = static_cast<std::uint32_t>(l);
  for (index_t i0 = 0; i0 < m; i0 += kTile) {
    const index_t rows = m - i0 < kTile ? m - i0 : kTile;
    tabulate<W, kParts>(i0, rows, ka, kb, g_row, h_row);
    for (index_t j0 = 0; j0 < n; j0 += kTile) {
      const index_t cols = n - j0 < kTile ? n - j0 : kTile;
      // A diagonal tile of fill_spd (m = n) has its columns' terms in the
      // rows' tables.
      const bool same = kSpd && i0 == j0;
      if (!same) tabulate<W, kParts>(j0, cols, ka, kb, g_col, h_col);
      for (index_t u = 0; u < cols; ++u) {
        const index_t j = j0 + u;
        R* col = a + (j * ld + i0) * kParts;
        U gj[kParts], hj[kParts];
        for (int q = 0; q < kParts; ++q) {
          gj[q] = U{} + (same ? g_row : g_col)[q][u];
          hj[q] = U{} + (same ? h_row : h_col)[q][u];
        }
        // Rows i0 + t … i0 + t + W - 1 of column j; a vector that is not
        // full stops at the tile's last row.
        auto vector = [&](index_t t, auto side, auto full) {
          constexpr Side kSide = decltype(side)::value;
          constexpr bool kFull = decltype(full)::value;
          // All ones in the lanes above the diagonal, and on it.
          S above{}, diag{};
          if constexpr (kSide == Side::Above) above -= 1;
          if constexpr (kSide == Side::Diagonal) {
            const S i = reinterpret_cast<S>(iota + static_cast<std::uint32_t>(i0 + t));
            above = i < static_cast<std::int32_t>(j);
            diag = i == static_cast<std::int32_t>(j);
          }
          SL s[kParts][P];
          for (int q = 0; q < kParts; ++q) {
            const U gi = *reinterpret_cast<const U*>(g_row[q] + t);
            const U hi = *reinterpret_cast<const U*>(h_row[q] + t);
            U h;
            if constexpr (kSide == Side::Below) h = fmix32(gi + hj[q]);
            else if constexpr (kSide == Side::Above) h = fmix32(gj[q] + hi);
            else h = fmix32((above ? gj[q] : gi) + (above ? hi : hj[q]));
            S top;
            if constexpr (!kFloat) top = reinterpret_cast<S>(h);
            else if (kSpd && q == 0) top = reinterpret_cast<S>((h ^ 0x80000000u) >> 8);
            else top = reinterpret_cast<S>(h) >> 8;
            __builtin_memcpy(s[q], &top, sizeof top);
          }
          SL above_p[P], diag_p[P];
          __builtin_memcpy(above_p, &above, sizeof above);
          __builtin_memcpy(diag_p, &diag, sizeof diag);
          for (int k = 0; k < P; ++k) {
            const index_t first = t + k * L;
            index_t count = L;
            if constexpr (!kFull) {
              if (first >= rows) break;
              count = rows - first < L ? rows - first : L;
            }
            V re = to_real<R, L>(s[0][k]);
            if constexpr (!kSpd) re *= kUnit;
            else if constexpr (kFloat) re *= kHalf;
            else re = re * kHalf + R(0.5);
            // The diagonal entry is re + n: re - (-1)·n there, re - 0 elsewhere.
            if constexpr (kSide == Side::Diagonal)
              re -= to_real<R, L>(diag_p[k]) * static_cast<R>(n);
            if constexpr (kComplex) {
              // The spd imaginary part is negated above the diagonal (conj),
              // where the scale's sign flips, and zero on it.
              V im = to_real<R, L>(s[1][k]);
              if constexpr (!kSpd) im *= kUnit;
              else if constexpr (kSide == Side::Below) im *= kHalf;
              else im *= to_real<R, L>(above_p[k]) * (2 * kHalf) + kHalf;
              if constexpr (kSide == Side::Diagonal)
                im = to_real<R, L>(diag_p[k]) != R(0) ? V{} : im;
              for (index_t l = 0; l < count; ++l) {
                col[2 * (first + l)] = re[l];
                col[2 * (first + l) + 1] = im[l];
              }
            } else if (kFull || count == L) {
              *reinterpret_cast<VU*>(col + first) = re;
            } else {
              for (index_t l = 0; l < count; ++l) col[first + l] = re[l];
            }
          }
        };
        using Below = std::integral_constant<Side, Side::Below>;
        using Above = std::integral_constant<Side, Side::Above>;
        using Diagonal = std::integral_constant<Side, Side::Diagonal>;
        using Full = std::true_type;
        using Partial = std::false_type;
        index_t t = 0;
        if constexpr (kSpd) {
          // d: the diagonal's row in this tile, clamped to [0, rows].
          const index_t d = j - i0 < 0 ? 0 : j - i0 > rows ? rows : j - i0;
          for (; t + W <= d; t += W) vector(t, Above{}, Full{});
          if (t < rows && j >= i0) {
            // Holds the diagonal entry, or rows below d that are all above it.
            if (t + W <= rows) vector(t, Diagonal{}, Full{});
            else vector(t, Diagonal{}, Partial{});
            t += W;
          }
        }
        for (; t + W <= rows; t += W) vector(t, Below{}, Full{});
        if (t < rows) vector(t, Below{}, Partial{});
      }
    }
  }
}

template <typename R, bool kComplex, int W>
void fill(const PayloadCall& p, R* a) {
  if (p.spd) fill_columns<R, kComplex, true, W>(p, a);
  else fill_columns<R, kComplex, false, W>(p, a);
}

template <int W>
PayloadKernels kernels() noexcept {
  return {{&fill<float, false, W>, &fill<float, true, W>},
          {&fill<double, false, W>, &fill<double, true, W>}};
}

}  // namespace payload
}  // namespace vbatch::detail
