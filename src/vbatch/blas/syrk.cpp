#include <algorithm>
#include <vector>

#include "vbatch/blas/blas.hpp"
#include "vbatch/blas/microkernel.hpp"
#include "vbatch/util/error.hpp"

namespace vbatch::blas {

namespace {

// Width of the diagonal blocks of the blocked path. Each one is computed as
// a packed gemm on its full jb×jb square; the off-diagonal rectangles (the
// bulk of the triangle) are plain gemm calls on C.
constexpr index_t kSyrkDiagBlock = 32;

template <typename T>
void syrk_check(Trans trans, ConstMatrixView<T> a, MatrixView<T> c) {
  const index_t n = c.rows();
  require(c.cols() == n, "syrk: C must be square");
  require((trans == Trans::NoTrans ? a.rows() : a.cols()) == n, "syrk: op(A) rows != n");
}

// Diagonal element i of op(A)·op(A)ᴴ. It is mathematically real, so it is
// accumulated as a real scalar: no rounding-level (or FMA-contraction)
// imaginary residue is ever left on a complex c(i, i).
template <typename T>
real_t<T> herk_diag_sum(Trans trans, ConstMatrixView<T> a, index_t i) {
  const index_t k = trans == Trans::NoTrans ? a.cols() : a.rows();
  real_t<T> sum(0);
  if (trans == Trans::NoTrans) {
    for (index_t l = 0; l < k; ++l) sum += real_val(a(i, l) * conj_val(a(i, l)));
  } else {
    for (index_t l = 0; l < k; ++l) sum += real_val(conj_val(a(l, i)) * a(l, i));
  }
  return sum;
}

// Thread-local staging tile for the diagonal blocks, in the style of the
// engine's pack buffers: it grows to kSyrkDiagBlock² once per thread and is
// reused by every later call on the same thread.
template <typename T>
std::vector<T>& diag_stage() {
  static thread_local std::vector<T> buf;
  return buf;
}

// Blocked path: partition the triangle into kSyrkDiagBlock-wide block
// columns (Lower) / block rows (Upper). A diagonal block is one packed gemm
// into the staging tile, of which only the requested triangle is written
// back (for complex scalars with the diagonal recomputed as a real sum, as
// syrk_ref does); the rectangles are gemm calls straight on C. Each C
// element of the triangle is written exactly once, as α·sum + β·c.
template <typename T>
void syrk_blocked(Uplo uplo, Trans trans, T alpha, ConstMatrixView<T> a, T beta,
                  MatrixView<T> c) {
  const index_t n = c.rows();
  const index_t k = trans == Trans::NoTrans ? a.cols() : a.rows();
  const Trans ta = trans == Trans::NoTrans ? Trans::NoTrans : Trans::Trans;
  const Trans tb = trans == Trans::NoTrans ? Trans::Trans : Trans::NoTrans;
  // op(A) rows [r, r + len) as a gemm operand in the stored orientation.
  auto rows_of = [&](index_t r, index_t len) {
    return trans == Trans::NoTrans ? a.block(r, 0, len, k) : a.block(0, r, k, len);
  };

  std::vector<T>& stage = diag_stage<T>();
  const index_t widest = std::min(n, kSyrkDiagBlock);
  if (stage.size() < static_cast<std::size_t>(widest * widest))
    stage.resize(static_cast<std::size_t>(widest * widest));

  for (index_t j = 0; j < n; j += kSyrkDiagBlock) {
    const index_t jb = std::min(kSyrkDiagBlock, n - j);

    MatrixView<T> sq(stage.data(), jb, jb, jb);
    gemm<T>(ta, tb, alpha, rows_of(j, jb), rows_of(j, jb), T(0), sq);
    auto diag = c.block(j, j, jb, jb);
    for (index_t q = 0; q < jb; ++q) {
      const index_t lo = uplo == Uplo::Lower ? q : 0;
      const index_t hi = uplo == Uplo::Lower ? jb : q + 1;
      for (index_t p = lo; p < hi; ++p) {
        T sum = sq(p, q);
        if constexpr (is_complex_v<T>) {
          if (p == q) sum = alpha * T(herk_diag_sum(trans, a, j + q));
        }
        diag(p, q) = sum + (beta == T(0) ? T(0) : beta * diag(p, q));
      }
    }

    if (uplo == Uplo::Lower) {
      const index_t rem = n - j - jb;
      if (rem > 0) {
        gemm<T>(ta, tb, alpha, rows_of(j + jb, rem), rows_of(j, jb), beta,
                c.block(j + jb, j, rem, jb));
      }
    } else if (j > 0) {
      gemm<T>(ta, tb, alpha, rows_of(0, j), rows_of(j, jb), beta, c.block(0, j, j, jb));
    }
  }
}

}  // namespace

template <typename T>
void syrk_ref(Uplo uplo, Trans trans, T alpha, ConstMatrixView<T> a, T beta, MatrixView<T> c) {
  syrk_check(trans, a, c);
  const index_t n = c.rows();
  const index_t k = trans == Trans::NoTrans ? a.cols() : a.rows();

  auto in_triangle = [uplo](index_t i, index_t j) {
    return uplo == Uplo::Lower ? i >= j : i <= j;
  };

  // For complex scalars this is the herk operation (C = α·op(A)·op(A)ᴴ +
  // β·C), following the library's Hermitian convention, with a real
  // diagonal (herk_diag_sum).
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      if (!in_triangle(i, j)) continue;
      T sum = T(0);
      if (i == j) {
        sum = T(herk_diag_sum(trans, a, i));
      } else if (trans == Trans::NoTrans) {
        for (index_t l = 0; l < k; ++l) sum += a(i, l) * conj_val(a(j, l));
      } else {
        for (index_t l = 0; l < k; ++l) sum += conj_val(a(l, i)) * a(l, j);
      }
      c(i, j) = alpha * sum + (beta == T(0) ? T(0) : beta * c(i, j));
    }
  }
}

template <typename T>
void syrk(Uplo uplo, Trans trans, T alpha, ConstMatrixView<T> a, T beta, MatrixView<T> c) {
  syrk_check(trans, a, c);
  const index_t n = c.rows();
  const index_t k = trans == Trans::NoTrans ? a.cols() : a.rows();

  const micro::Dispatch d = micro::dispatch();
  const bool blocked =
      d == micro::Dispatch::ForceBlocked ||
      (d == micro::Dispatch::Auto && micro::use_blocked<T>(n, n, k));
  if (blocked && n > 0 && alpha != T(0) && k > 0) {
    syrk_blocked(uplo, trans, alpha, a, beta, c);
  } else {
    syrk_ref(uplo, trans, alpha, a, beta, c);
  }
}

#define VBATCH_INSTANTIATE_SYRK(T)                                                     \
  template void syrk<T>(Uplo, Trans, T, ConstMatrixView<T>, T, MatrixView<T>);         \
  template void syrk_ref<T>(Uplo, Trans, T, ConstMatrixView<T>, T, MatrixView<T>)

VBATCH_INSTANTIATE_SYRK(float);
VBATCH_INSTANTIATE_SYRK(double);
VBATCH_INSTANTIATE_SYRK(std::complex<float>);
VBATCH_INSTANTIATE_SYRK(std::complex<double>);

#undef VBATCH_INSTANTIATE_SYRK

}  // namespace vbatch::blas
