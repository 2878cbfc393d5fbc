// syrk/herk: the reference loops (the testing oracle) and the dispatch onto
// the packed engine. Above the `use_blocked` cutoff the triangle runs on
// micro::syrk_blocked: gemm's register tiles over the slivers that meet the
// triangle, with op(A) packed once per KC block on each side of the product
// and no staging tile, so the triangle is bit-identical to
// micro::gemm_blocked(op(A), op(A)ᴴ) there. With alpha = 0 or k = 0 both
// paths run only the beta pass.
#include "vbatch/blas/blas.hpp"
#include "vbatch/blas/microkernel.hpp"
#include "vbatch/util/error.hpp"

namespace vbatch::blas {

namespace {

template <typename T>
void syrk_check(Trans trans, ConstMatrixView<T> a, MatrixView<T> c) {
  const index_t n = c.rows();
  require(c.cols() == n, "syrk: C must be square");
  require((trans == Trans::NoTrans ? a.rows() : a.cols()) == n, "syrk: op(A) rows != n");
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

  // Nothing to add: only the beta pass runs, and A is not read (an Inf in
  // A must not turn 0·Inf into a NaN in C), as gemm_ref does.
  if (alpha == T(0) || k == 0) {
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < n; ++i)
        if (in_triangle(i, j)) c(i, j) = beta == T(0) ? T(0) : beta * c(i, j);
    return;
  }

  // For complex scalars this is the herk operation (C = α·op(A)·op(A)ᴴ +
  // β·C), following the library's Hermitian convention, with a real
  // diagonal (herk_diag_sum).
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      if (!in_triangle(i, j)) continue;
      T sum = T(0);
      if (i == j) {
        sum = T(micro::herk_diag_sum(trans, a, i));
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
  if (blocked) {
    micro::syrk_blocked(uplo, trans, alpha, a, beta, c);
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
