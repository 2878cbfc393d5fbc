#include "vbatch/core/blas_vbatched.hpp"

#include <algorithm>
#include <vector>

#include "vbatch/core/arg_check.hpp"
#include "vbatch/kernels/aux_kernels.hpp"
#include "vbatch/kernels/gemm_vbatched.hpp"
#include "vbatch/kernels/trsm_vbatched.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/flops.hpp"

namespace vbatch {

namespace {

// op(X) dimensions for a rectangular batch operand.
struct OpDims {
  std::vector<int> rows, cols;
};

OpDims op_dims(Trans t, std::span<const int> m, std::span<const int> n) {
  OpDims d;
  if (t == Trans::NoTrans) {
    d.rows.assign(m.begin(), m.end());
    d.cols.assign(n.begin(), n.end());
  } else {
    d.rows.assign(n.begin(), n.end());
    d.cols.assign(m.begin(), m.end());
  }
  return d;
}

}  // namespace

// ---------------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------------

template <typename T>
BlasResult gemm_vbatched_max(Queue& q, Trans trans_a, Trans trans_b, T alpha, RectBatch<T>& a,
                             RectBatch<T>& b, T beta, RectBatch<T>& c, int max_m, int max_n) {
  require(a.count() == b.count() && a.count() == c.count(),
          "gemm_vbatched: batch count mismatch");
  const auto opa = op_dims(trans_a, a.rows(), a.cols());
  const auto opb = op_dims(trans_b, b.rows(), b.cols());

  // LAPACK-style metadata validation (§V): per-matrix dimension
  // consistency plus the leading-dimension bounds.
  const ArgRule rules[] = {
      {ArgRule::Kind::NonNegative, c.rows(), {}, 8, "m (C rows)"},
      {ArgRule::Kind::NonNegative, c.cols(), {}, 8, "n (C cols)"},
      {ArgRule::Kind::EqualOther, opa.rows, c.rows(), 5, "op(A) rows vs C rows"},
      {ArgRule::Kind::EqualOther, opb.rows, opa.cols, 6, "op(B) rows vs op(A) cols"},
      {ArgRule::Kind::EqualOther, opb.cols, c.cols(), 6, "op(B) cols vs C cols"},
      {ArgRule::Kind::AtLeastOther, a.ldas(), a.rows(), 5, "lda"},
      {ArgRule::Kind::AtLeastOther, b.ldas(), b.rows(), 6, "ldb"},
      {ArgRule::Kind::AtLeastOther, c.ldas(), c.rows(), 8, "ldc"},
  };
  require_args_ok(check_args(q.device(), rules, c.info()), "gemm_vbatched");

  const kernels::GemmVbatchedArgs<T> args{
      trans_a, trans_b, c.rows(), c.cols(), opa.cols, max_m, max_n, alpha, beta,
      a.device_ptrs(), a.ldas(), b.device_ptrs(), b.ldas(), c.device_ptrs(), c.ldas()};

  BlasResult result;
  for (int i = 0; i < c.count(); ++i) {
    result.flops += flops::gemm(c.rows()[static_cast<std::size_t>(i)],
                                c.cols()[static_cast<std::size_t>(i)],
                                opa.cols[static_cast<std::size_t>(i)]);
  }
  result.seconds = kernels::launch_gemm_vbatched(q.device(), args);
  if (q.full()) kernels::gemm_vbatched_numerics(args);
  return result;
}

template <typename T>
BlasResult gemm_vbatched(Queue& q, Trans trans_a, Trans trans_b, T alpha, RectBatch<T>& a,
                         RectBatch<T>& b, T beta, RectBatch<T>& c) {
  const int max_m = kernels::imax_reduce(q.device(), c.rows());
  const int max_n = kernels::imax_reduce(q.device(), c.cols());
  if (max_m == 0 || max_n == 0) return {};
  return gemm_vbatched_max<T>(q, trans_a, trans_b, alpha, a, b, beta, c, max_m, max_n);
}

// ---------------------------------------------------------------------------
// SYRK
// ---------------------------------------------------------------------------

template <typename T>
BlasResult syrk_vbatched_max(Queue& q, Uplo uplo, Trans trans, T alpha, RectBatch<T>& a,
                             T beta, Batch<T>& c, int max_n) {
  require(a.count() == c.count(), "syrk_vbatched: batch count mismatch");
  const auto opa = op_dims(trans, a.rows(), a.cols());

  const ArgRule rules[] = {
      {ArgRule::Kind::NonNegative, c.sizes(), {}, 7, "n"},
      {ArgRule::Kind::EqualOther, opa.rows, c.sizes(), 5, "op(A) rows vs n"},
      {ArgRule::Kind::AtLeastOther, a.ldas(), a.rows(), 5, "lda"},
      {ArgRule::Kind::AtLeastOther, c.ldas(), c.sizes(), 7, "ldc"},
  };
  require_args_ok(check_args(q.device(), rules, c.info()), "syrk_vbatched");

  const kernels::SyrkVbatchedArgs<T> args{uplo, trans, c.sizes(), opa.cols, max_n, alpha,
                                           beta, a.device_ptrs(), a.ldas(), c.device_ptrs(),
                                           c.ldas()};

  BlasResult result;
  for (int i = 0; i < c.count(); ++i) {
    result.flops += flops::syrk(c.sizes()[static_cast<std::size_t>(i)],
                                opa.cols[static_cast<std::size_t>(i)]);
  }
  result.seconds = kernels::launch_syrk_vbatched(q.device(), args);
  if (q.full()) kernels::syrk_vbatched_numerics(args);
  return result;
}

template <typename T>
BlasResult syrk_vbatched(Queue& q, Uplo uplo, Trans trans, T alpha, RectBatch<T>& a, T beta,
                         Batch<T>& c) {
  const int max_n = kernels::imax_reduce(q.device(), c.sizes());
  if (max_n == 0) return {};
  return syrk_vbatched_max<T>(q, uplo, trans, alpha, a, beta, c, max_n);
}

// ---------------------------------------------------------------------------
// TRSM / TRMM
// ---------------------------------------------------------------------------

namespace {

template <typename T, bool Solve>
BlasResult triangular_vbatched_max(Queue& q, Side side, Uplo uplo, Trans trans, Diag diag,
                                   T alpha, Batch<T>& a, RectBatch<T>& b, int max_m,
                                   int max_n) {
  require(a.count() == b.count(), "trsm/trmm_vbatched: batch count mismatch");
  const auto side_dim = side == Side::Left ? b.rows() : b.cols();
  const char* routine = Solve ? "trsm_vbatched" : "trmm_vbatched";

  const ArgRule rules[] = {
      {ArgRule::Kind::NonNegative, b.rows(), {}, 7, "m"},
      {ArgRule::Kind::NonNegative, b.cols(), {}, 7, "n"},
      {ArgRule::Kind::EqualOther, a.sizes(), side_dim, 6, "A order vs B side dimension"},
      {ArgRule::Kind::AtLeastOther, a.ldas(), a.sizes(), 6, "lda"},
      {ArgRule::Kind::AtLeastOther, b.ldas(), b.rows(), 7, "ldb"},
  };
  require_args_ok(check_args(q.device(), rules, b.info()), routine);

  const kernels::TriangularVbatchedArgs<T> args{
      side, uplo, trans, diag, alpha, a.device_ptrs(), a.ldas(), b.device_ptrs(), b.ldas(),
      b.rows(), b.cols(), max_m, max_n};

  BlasResult result;
  for (int i = 0; i < b.count(); ++i) {
    const int mi = b.rows()[static_cast<std::size_t>(i)];
    const int ni = b.cols()[static_cast<std::size_t>(i)];
    result.flops += side == Side::Left ? flops::trsm(mi, ni, true) : flops::trsm(mi, ni, false);
  }
  if constexpr (Solve) {
    result.seconds = kernels::launch_trsm_general(q.device(), args);
    if (q.full()) kernels::trsm_general_numerics(args);
  } else {
    result.seconds = kernels::launch_trmm_general(q.device(), args);
    if (q.full()) kernels::trmm_general_numerics(args);
  }
  return result;
}

}  // namespace

template <typename T>
BlasResult trsm_vbatched_max(Queue& q, Side side, Uplo uplo, Trans trans, Diag diag, T alpha,
                             Batch<T>& a, RectBatch<T>& b, int max_m, int max_n) {
  return triangular_vbatched_max<T, true>(q, side, uplo, trans, diag, alpha, a, b, max_m,
                                          max_n);
}

template <typename T>
BlasResult trsm_vbatched(Queue& q, Side side, Uplo uplo, Trans trans, Diag diag, T alpha,
                         Batch<T>& a, RectBatch<T>& b) {
  const int max_m = kernels::imax_reduce(q.device(), b.rows());
  const int max_n = kernels::imax_reduce(q.device(), b.cols());
  if (max_m == 0 || max_n == 0) return {};
  return trsm_vbatched_max<T>(q, side, uplo, trans, diag, alpha, a, b, max_m, max_n);
}

template <typename T>
BlasResult trmm_vbatched_max(Queue& q, Side side, Uplo uplo, Trans trans, Diag diag, T alpha,
                             Batch<T>& a, RectBatch<T>& b, int max_m, int max_n) {
  return triangular_vbatched_max<T, false>(q, side, uplo, trans, diag, alpha, a, b, max_m,
                                           max_n);
}

template <typename T>
BlasResult trmm_vbatched(Queue& q, Side side, Uplo uplo, Trans trans, Diag diag, T alpha,
                         Batch<T>& a, RectBatch<T>& b) {
  const int max_m = kernels::imax_reduce(q.device(), b.rows());
  const int max_n = kernels::imax_reduce(q.device(), b.cols());
  if (max_m == 0 || max_n == 0) return {};
  return trmm_vbatched_max<T>(q, side, uplo, trans, diag, alpha, a, b, max_m, max_n);
}

// --- Explicit instantiations ------------------------------------------------

#define VBATCH_INSTANTIATE_BLAS(T)                                                            \
  template BlasResult gemm_vbatched<T>(Queue&, Trans, Trans, T, RectBatch<T>&, RectBatch<T>&, \
                                       T, RectBatch<T>&);                                     \
  template BlasResult gemm_vbatched_max<T>(Queue&, Trans, Trans, T, RectBatch<T>&,            \
                                           RectBatch<T>&, T, RectBatch<T>&, int, int);        \
  template BlasResult syrk_vbatched<T>(Queue&, Uplo, Trans, T, RectBatch<T>&, T, Batch<T>&);  \
  template BlasResult syrk_vbatched_max<T>(Queue&, Uplo, Trans, T, RectBatch<T>&, T,          \
                                           Batch<T>&, int);                                   \
  template BlasResult trsm_vbatched<T>(Queue&, Side, Uplo, Trans, Diag, T, Batch<T>&,         \
                                       RectBatch<T>&);                                        \
  template BlasResult trsm_vbatched_max<T>(Queue&, Side, Uplo, Trans, Diag, T, Batch<T>&,     \
                                           RectBatch<T>&, int, int);                          \
  template BlasResult trmm_vbatched<T>(Queue&, Side, Uplo, Trans, Diag, T, Batch<T>&,         \
                                       RectBatch<T>&);                                        \
  template BlasResult trmm_vbatched_max<T>(Queue&, Side, Uplo, Trans, Diag, T, Batch<T>&,     \
                                           RectBatch<T>&, int, int);

VBATCH_INSTANTIATE_BLAS(float)
VBATCH_INSTANTIATE_BLAS(double)
VBATCH_INSTANTIATE_BLAS(std::complex<float>)
VBATCH_INSTANTIATE_BLAS(std::complex<double>)

#undef VBATCH_INSTANTIATE_BLAS

}  // namespace vbatch
