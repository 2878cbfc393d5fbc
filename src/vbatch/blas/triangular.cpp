// Triangular apply: trsm and trmm share one recursion and one front; the
// reference loops stay separate as the oracles. Unblocked shapes and the
// recursion's base cases solve on the SIMD lanes of potf2_lanes.hpp, bit
// for bit trsm_ref's arithmetic (this TU is compiled with -ffp-contract=off
// so that the oracle rounds like the lanes under every -m flag).
#include <vector>

#include "vbatch/blas/blas.hpp"
#include "vbatch/blas/microkernel.hpp"
#include "vbatch/blas/potf2_lanes.hpp"
#include "vbatch/util/error.hpp"

namespace vbatch::blas {

namespace {

// Triangles at or below this order are applied unblocked (trsm_on_lanes or
// the reference loops);
// the recursion above it turns the dominant work into gemm calls on the
// packed micro-kernel engine.
constexpr index_t kTriBaseOrder = 32;

template <typename T>
void tri_check(const char* what, Side side, ConstMatrixView<T> a, MatrixView<T> b) {
  const index_t ka = side == Side::Left ? b.rows() : b.cols();
  require(a.rows() == ka && a.cols() == ka, what);
}

// Whether the rest of `rest` rows (Right) or columns (Left) below a
// multiple of w solves faster on one zero-padded vector of `bytes` than in
// trsm_ref. Fitted to timings of the rest alone on SSE2, AVX2 and AVX-512
// (orders 4…32, double and float; docs/blas.md, "The trsm lane base
// case"): a Right rest pays on vectors of up to 256 bits (trsm_ref's own
// row loop is vectorized, and a 512-bit vector gains nothing on it), a
// Left rest from rest ≥ w(w + 8)/32 (the padded solve costs one column
// chain plus a copy growing with w).
bool tail_pays(Side side, index_t w, int bytes, index_t rest) {
  return side == Side::Right ? bytes <= 32 : 32 * rest >= w * (w + 8);
}

// The lane base case of the unblocked apply (tri_rec's base case and
// tri_apply's small-shape branch). For a real solve on a vector ISA it
// solves the m×n B on the active ISA's lanes, bit-identical to trsm_ref:
// alpha scales B first exactly as trsm_ref does, and the lanes solve the
// full vectors of rows (Right) or columns (Left) plus the rest where
// tail_pays; trsm_ref solves a rest that does not pay — rows (Right) and
// columns (Left) are independent solves — and it returns true. It returns
// false, B untouched, for complex T, Isa::Scalar, Dispatch::ForceRef and a
// B whose only rows (Right) or columns (Left) are a rest that does not pay;
// the caller then runs the reference loops. Scalar arguments and an
// out-of-line body keep the callers' reference path lean (passing the
// views by value one call deeper cost an 8×1 solve about 30 ns, a fifth of
// it, on an AVX2 Xeon).
template <typename T>
[[gnu::noinline]] bool trsm_on_lanes(Side side, Uplo uplo, Trans trans, Diag diag, T alpha,
                                     const T* a, index_t lda, T* b, index_t m, index_t n,
                                     index_t ldb) {
  if constexpr (is_complex_v<T>) {
    return false;
  } else {
    if (micro::dispatch() == micro::Dispatch::ForceRef) return false;
    const detail::LaneKernels k = detail::active_lane_kernels();
    if (k.vector_bytes == 0) return false;
    const index_t w = k.vector_bytes / static_cast<index_t>(sizeof(T));
    const index_t count = side == Side::Left ? n : m;
    const index_t lanes =
        tail_pays(side, w, k.vector_bytes, count % w) ? count : count - count % w;
    if (lanes == 0) return false;
    MatrixView<T> bv(b, m, n, ldb);
    if (alpha != T(1)) {
      for (index_t j = 0; j < n; ++j)
        for (index_t i = 0; i < m; ++i) bv(i, j) *= alpha;
    }
    const bool left = side == Side::Left;
    k.of<T>().trsm(side, uplo, trans, diag, left ? m : lanes, left ? lanes : n, a, lda, b, ldb);
    if (lanes < count) {
      const index_t ka = left ? m : n;
      trsm_ref<T>(side, uplo, trans, diag, T(1), ConstMatrixView<T>(a, ka, ka, lda),
                  left ? bv.block(0, lanes, m, n - lanes) : bv.block(lanes, 0, m - lanes, n));
    }
    return true;
  }
}

// Recursive triangular solve (Solve) or multiply with unit alpha. A splits
// 2×2 and B into the matching halves; the coupling block (A21 for Lower, A12
// for Upper) carries one *source* half of B into the other, *target* half.
// The solve finishes the source, subtracts its coupling product from the
// target, then solves the target. The multiply updates the target first,
// while the source still holds its old values, adds the same product, then
// multiplies the source. The gemm's Trans flag conjugates complex operands,
// matching the conj_val the reference loops apply under Trans.
template <bool Solve, typename T>
void tri_rec(Side side, Uplo uplo, Trans trans, Diag diag, ConstMatrixView<T> a,
             MatrixView<T> b) {
  const index_t ka = a.rows();
  if (ka <= kTriBaseOrder) {
    if (Solve &&
        trsm_on_lanes(side, uplo, trans, diag, T(1), a.data(), a.ld(), b.data(), b.rows(),
                      b.cols(), b.ld()))
      return;
    Solve ? trsm_ref<T>(side, uplo, trans, diag, T(1), a, b)
          : trmm_ref<T>(side, uplo, trans, diag, T(1), a, b);
    return;
  }
  const index_t h = ka / 2;
  const index_t r = ka - h;
  const bool left = side == Side::Left;
  const bool first_is_source = left == ((uplo == Uplo::Lower) == (trans == Trans::NoTrans));
  auto a11 = a.block(0, 0, h, h);
  auto a22 = a.block(h, h, r, r);
  auto coupling = uplo == Uplo::Lower ? a.block(h, 0, r, h) : a.block(0, h, h, r);
  auto b1 = left ? b.block(0, 0, h, b.cols()) : b.block(0, 0, b.rows(), h);
  auto b2 = left ? b.block(h, 0, r, b.cols()) : b.block(0, h, b.rows(), r);
  auto a_src = first_is_source ? a11 : a22;
  auto a_tgt = first_is_source ? a22 : a11;
  auto b_src = first_is_source ? b1 : b2;
  auto b_tgt = first_is_source ? b2 : b1;

  const T sign = Solve ? T(-1) : T(1);
  tri_rec<Solve>(side, uplo, trans, diag, Solve ? a_src : a_tgt, Solve ? b_src : b_tgt);
  if (left) {
    gemm<T>(trans, Trans::NoTrans, sign, coupling, b_src, T(1), b_tgt);
  } else {
    gemm<T>(Trans::NoTrans, trans, sign, b_src, coupling, T(1), b_tgt);
  }
  tri_rec<Solve>(side, uplo, trans, diag, Solve ? a_tgt : a_src, Solve ? b_tgt : b_src);
}

// The one front of trsm and trmm: checks, the BLAS alpha = 0 rule, the
// dispatch crossover, and alpha scaling around the unit-alpha recursion
// (before the solve, after the multiply).
template <bool Solve, typename T>
void tri_apply(Side side, Uplo uplo, Trans trans, Diag diag, T alpha, ConstMatrixView<T> a,
               MatrixView<T> b) {
  tri_check(Solve ? "trsm: A dimension mismatch" : "trmm: A dimension mismatch", side, a, b);
  const index_t m = b.rows();
  const index_t n = b.cols();
  if (m == 0 || n == 0) return;
  auto scale = [&](T s) {
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i) b(i, j) = s == T(0) ? T(0) : s * b(i, j);
  };
  // BLAS convention: B becomes +0 and neither A nor B is read, on every path.
  if (alpha == T(0)) {
    scale(T(0));
    return;
  }
  const index_t ka = a.rows();
  const index_t nrhs = side == Side::Left ? n : m;

  const micro::Dispatch d = micro::dispatch();
  // The recursion only pays once its gemm updates clear the packed engine's
  // crossover with room to amortize the base cases: 8× the profile's gemm
  // threshold (the historical 32768 = 8 · 4096 under the default profile).
  const double work =
      static_cast<double>(ka) * static_cast<double>(ka) * static_cast<double>(nrhs);
  const bool blocked =
      ka > kTriBaseOrder &&
      (d == micro::Dispatch::ForceBlocked ||
       (d == micro::Dispatch::Auto &&
        work >= 8.0 * micro::shape_of<T>(micro::active_profile()).min_mnk));
  if (!blocked) {
    if (Solve &&
        trsm_on_lanes(side, uplo, trans, diag, alpha, a.data(), a.ld(), b.data(), m, n, b.ld()))
      return;
    Solve ? trsm_ref(side, uplo, trans, diag, alpha, a, b)
          : trmm_ref(side, uplo, trans, diag, alpha, a, b);
    return;
  }
  if (Solve && alpha != T(1)) scale(alpha);
  tri_rec<Solve>(side, uplo, trans, diag, a, b);
  if (!Solve && alpha != T(1)) scale(alpha);
}

}  // namespace

// Reference triangular solve covering all side/uplo/trans/diag combinations.
// The library's hot paths only use a few of them (Right/Lower/Trans for the
// Cholesky panel, Left/Lower/NoTrans for potrs), but the full set is part of
// the vbatched BLAS foundation the paper describes (§III-E).
template <typename T>
void trsm_ref(Side side, Uplo uplo, Trans trans, Diag diag, T alpha, ConstMatrixView<T> a,
              MatrixView<T> b) {
  tri_check("trsm: A dimension mismatch", side, a, b);
  const index_t m = b.rows();
  const index_t n = b.cols();
  if (m == 0 || n == 0) return;

  if (alpha != T(1)) {
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i) b(i, j) *= alpha;
  }

  const bool unit = diag == Diag::Unit;
  // Effective triangle orientation: transposing a Lower triangle solves like
  // an Upper one and vice versa. Complex Trans means conjugate-transpose.
  const bool eff_lower = (uplo == Uplo::Lower) == (trans == Trans::NoTrans);
  auto at = [&](index_t i, index_t j) {
    return trans == Trans::NoTrans ? a(i, j) : conj_val(a(j, i));
  };

  if (side == Side::Left) {
    // Solve op(A) X = B, column by column of B.
    for (index_t j = 0; j < n; ++j) {
      if (eff_lower) {
        for (index_t i = 0; i < m; ++i) {
          T sum = b(i, j);
          for (index_t l = 0; l < i; ++l) sum -= at(i, l) * b(l, j);
          b(i, j) = unit ? sum : sum / at(i, i);
        }
      } else {
        for (index_t i = m - 1; i >= 0; --i) {
          T sum = b(i, j);
          for (index_t l = i + 1; l < m; ++l) sum -= at(i, l) * b(l, j);
          b(i, j) = unit ? sum : sum / at(i, i);
        }
      }
    }
    return;
  }

  // Side == Right: solve X op(A) = B, i.e. column recurrences over X.
  if (eff_lower) {
    // X(:, j) determined from the last column backwards:
    //   B(:, j) = sum_{l >= j} X(:, l) * opA(l, j)
    for (index_t j = n - 1; j >= 0; --j) {
      for (index_t l = j + 1; l < n; ++l) {
        const T alj = at(l, j);
        if (alj == T(0)) continue;
        for (index_t i = 0; i < m; ++i) b(i, j) -= b(i, l) * alj;
      }
      if (!unit) {
        const T inv = T(1) / at(j, j);
        for (index_t i = 0; i < m; ++i) b(i, j) *= inv;
      }
    }
  } else {
    for (index_t j = 0; j < n; ++j) {
      for (index_t l = 0; l < j; ++l) {
        const T alj = at(l, j);
        if (alj == T(0)) continue;
        for (index_t i = 0; i < m; ++i) b(i, j) -= b(i, l) * alj;
      }
      if (!unit) {
        const T inv = T(1) / at(j, j);
        for (index_t i = 0; i < m; ++i) b(i, j) *= inv;
      }
    }
  }
}

template <typename T>
void trmm_ref(Side side, Uplo uplo, Trans trans, Diag diag, T alpha, ConstMatrixView<T> a,
              MatrixView<T> b) {
  tri_check("trmm: A dimension mismatch", side, a, b);
  const index_t m = b.rows();
  const index_t n = b.cols();
  const index_t ka = a.rows();
  if (m == 0 || n == 0) return;

  const bool unit = diag == Diag::Unit;
  const bool eff_lower = (uplo == Uplo::Lower) == (trans == Trans::NoTrans);
  auto at = [&](index_t i, index_t j) {
    return trans == Trans::NoTrans ? a(i, j) : conj_val(a(j, i));
  };

  std::vector<T> tmp(static_cast<std::size_t>(ka));

  if (side == Side::Left) {
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < m; ++i) tmp[static_cast<std::size_t>(i)] = b(i, j);
      for (index_t i = 0; i < m; ++i) {
        T sum = unit ? tmp[static_cast<std::size_t>(i)]
                     : at(i, i) * tmp[static_cast<std::size_t>(i)];
        if (eff_lower) {
          for (index_t l = 0; l < i; ++l) sum += at(i, l) * tmp[static_cast<std::size_t>(l)];
        } else {
          for (index_t l = i + 1; l < m; ++l) sum += at(i, l) * tmp[static_cast<std::size_t>(l)];
        }
        b(i, j) = alpha * sum;
      }
    }
  } else {
    for (index_t i = 0; i < m; ++i) {
      for (index_t j = 0; j < n; ++j) tmp[static_cast<std::size_t>(j)] = b(i, j);
      for (index_t j = 0; j < n; ++j) {
        T sum = unit ? tmp[static_cast<std::size_t>(j)]
                     : tmp[static_cast<std::size_t>(j)] * at(j, j);
        if (eff_lower) {
          // B := B * op(A): column j of result needs rows l > j of op(A)'s column.
          for (index_t l = j + 1; l < n; ++l) sum += tmp[static_cast<std::size_t>(l)] * at(l, j);
        } else {
          for (index_t l = 0; l < j; ++l) sum += tmp[static_cast<std::size_t>(l)] * at(l, j);
        }
        b(i, j) = alpha * sum;
      }
    }
  }
}

template <typename T>
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, T alpha, ConstMatrixView<T> a,
          MatrixView<T> b) {
  tri_apply<true>(side, uplo, trans, diag, alpha, a, b);
}

template <typename T>
void trmm(Side side, Uplo uplo, Trans trans, Diag diag, T alpha, ConstMatrixView<T> a,
          MatrixView<T> b) {
  tri_apply<false>(side, uplo, trans, diag, alpha, a, b);
}

#define VBATCH_INSTANTIATE_TRIANGULAR(T)                                                   \
  template void trsm<T>(Side, Uplo, Trans, Diag, T, ConstMatrixView<T>, MatrixView<T>);    \
  template void trsm_ref<T>(Side, Uplo, Trans, Diag, T, ConstMatrixView<T>, MatrixView<T>); \
  template void trmm<T>(Side, Uplo, Trans, Diag, T, ConstMatrixView<T>, MatrixView<T>);    \
  template void trmm_ref<T>(Side, Uplo, Trans, Diag, T, ConstMatrixView<T>, MatrixView<T>)

VBATCH_INSTANTIATE_TRIANGULAR(float);
VBATCH_INSTANTIATE_TRIANGULAR(double);
VBATCH_INSTANTIATE_TRIANGULAR(std::complex<float>);
VBATCH_INSTANTIATE_TRIANGULAR(std::complex<double>);

#undef VBATCH_INSTANTIATE_TRIANGULAR

}  // namespace vbatch::blas
