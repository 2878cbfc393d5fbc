// Complex-precision tests (paper §IV-A: "the proposed framework supports
// complex precisions"). The library follows the Hermitian convention for
// complex scalars: Trans::Trans on a complex operand means conjugate
// transpose — the only case the Cholesky/solve family needs.
#include <gtest/gtest.h>

#include <complex>
#include <vector>

#include "vbatch/blas/blas.hpp"
#include "vbatch/blas/microkernel.hpp"
#include "vbatch/core/blas_vbatched.hpp"
#include "vbatch/core/potrf_vbatched.hpp"
#include "vbatch/core/potrs_vbatched.hpp"
#include "vbatch/core/size_dist.hpp"

namespace {

using namespace vbatch;
using Z = std::complex<double>;
using C = std::complex<float>;

// ---------------------------------------------------------------------------
// Reference BLAS with complex scalars
// ---------------------------------------------------------------------------

TEST(ComplexBlas, GemmConjTransposeMatchesNaive) {
  Rng rng(301);
  const index_t m = 9, n = 7, k = 5;
  std::vector<Z> a(static_cast<std::size_t>(k * m));  // stored k×m, used as Aᴴ (m×k)
  std::vector<Z> b(static_cast<std::size_t>(k * n));
  std::vector<Z> c(static_cast<std::size_t>(m * n), Z(0));
  fill_general(rng, a.data(), k, m, k);
  fill_general(rng, b.data(), k, n, k);

  ConstMatrixView<Z> av(a.data(), k, m, k);
  ConstMatrixView<Z> bv(b.data(), k, n, k);
  MatrixView<Z> cv(c.data(), m, n, m);
  blas::gemm<Z>(Trans::Trans, Trans::NoTrans, Z(1), av, bv, Z(0), cv);

  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      Z sum(0);
      for (index_t l = 0; l < k; ++l) sum += std::conj(av(l, i)) * bv(l, j);
      EXPECT_NEAR(std::abs(cv(i, j) - sum), 0.0, 1e-13);
    }
}

TEST(ComplexBlas, HerkProducesHermitianResult) {
  Rng rng(303);
  const index_t n = 8, k = 5;
  std::vector<Z> a(static_cast<std::size_t>(n * k));
  fill_general(rng, a.data(), n, k, n);
  std::vector<Z> c(static_cast<std::size_t>(n * n), Z(0));
  MatrixView<Z> cv(c.data(), n, n, n);
  blas::syrk<Z>(Uplo::Lower, Trans::NoTrans, Z(1), ConstMatrixView<Z>(a.data(), n, k, n), Z(0),
                cv);
  // Diagonal must be real and non-negative (Gram matrix).
  for (index_t d = 0; d < n; ++d) {
    EXPECT_NEAR(cv(d, d).imag(), 0.0, 1e-13);
    EXPECT_GE(cv(d, d).real(), 0.0);
  }
  // Lower triangle equals A·Aᴴ.
  ConstMatrixView<Z> av(a.data(), n, k, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i) {
      Z sum(0);
      for (index_t l = 0; l < k; ++l) sum += av(i, l) * std::conj(av(j, l));
      EXPECT_NEAR(std::abs(cv(i, j) - sum), 0.0, 1e-13);
    }
}

TEST(ComplexBlas, HerkDiagonalImagIsExactlyZero) {
  // herk hygiene: the diagonal of A·Aᴴ is accumulated as a real sum, so the
  // imaginary part is exactly 0.0 — not merely small — on every dispatch
  // path and regardless of FP contraction (-march=native FMA included).
  Rng rng(307);
  const index_t n = 70, k = 40;  // large enough to take the blocked path
  for (blas::micro::Dispatch d :
       {blas::micro::Dispatch::ForceRef, blas::micro::Dispatch::ForceBlocked}) {
    blas::micro::DispatchGuard guard(d);
    for (Trans trans : {Trans::NoTrans, Trans::Trans}) {
      const index_t ar = trans == Trans::NoTrans ? n : k;
      const index_t ac = trans == Trans::NoTrans ? k : n;
      std::vector<Z> a(static_cast<std::size_t>(ar * ac));
      fill_general(rng, a.data(), ar, ac, ar);
      std::vector<Z> c(static_cast<std::size_t>(n * n), Z(0.25, 0.0));
      MatrixView<Z> cv(c.data(), n, n, n);
      blas::syrk<Z>(Uplo::Lower, trans, Z(1), ConstMatrixView<Z>(a.data(), ar, ac, ar), Z(0.5),
                    cv);
      for (index_t dd = 0; dd < n; ++dd) EXPECT_EQ(cv(dd, dd).imag(), 0.0) << "diag " << dd;
    }
  }
}

TEST(ComplexBlas, TrsmTrmmRoundTripWithConjugateTranspose) {
  Rng rng(305);
  const index_t m = 10, n = 6;
  std::vector<Z> a(static_cast<std::size_t>(m * m));
  fill_general(rng, a.data(), m, m, m);
  MatrixView<Z> av(a.data(), m, m, m);
  for (index_t d = 0; d < m; ++d) av(d, d) = Z(4.0 + static_cast<double>(d), 0.5);
  std::vector<Z> b(static_cast<std::size_t>(m * n));
  fill_general(rng, b.data(), m, n, m);
  auto borig = b;
  MatrixView<Z> bv(b.data(), m, n, m);

  blas::trsm<Z>(Side::Left, Uplo::Lower, Trans::Trans, Diag::NonUnit, Z(1), av, bv);
  blas::trmm<Z>(Side::Left, Uplo::Lower, Trans::Trans, Diag::NonUnit, Z(1), av, bv);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(std::abs(b[i] - borig[i]), 0.0, 1e-11);
}

TEST(ComplexBlas, HermitianPotrfResidualSmall) {
  Rng rng(307);
  const index_t n = 40;
  std::vector<Z> a(static_cast<std::size_t>(n * n));
  fill_spd(rng, a.data(), n, n);
  // Hermitian: diagonal real, A(i,j) == conj(A(j,i)).
  MatrixView<Z> av(a.data(), n, n, n);
  for (index_t d = 0; d < n; ++d) EXPECT_NEAR(av(d, d).imag(), 0.0, 1e-15);
  auto fac = a;
  MatrixView<Z> fv(fac.data(), n, n, n);
  ASSERT_EQ(blas::potrf<Z>(Uplo::Lower, fv), 0);
  EXPECT_LT(blas::potrf_residual<Z>(Uplo::Lower, ConstMatrixView<Z>(a.data(), n, n, n), fv),
            1e-14);
}

TEST(ComplexBlas, UpperHermitianPotrf) {
  Rng rng(309);
  const index_t n = 21;
  std::vector<Z> a(static_cast<std::size_t>(n * n));
  fill_spd(rng, a.data(), n, n);
  auto fac = a;
  MatrixView<Z> fv(fac.data(), n, n, n);
  ASSERT_EQ(blas::potrf<Z>(Uplo::Upper, fv), 0);
  EXPECT_LT(blas::potrf_residual<Z>(Uplo::Upper, ConstMatrixView<Z>(a.data(), n, n, n), fv),
            1e-14);
}

// ---------------------------------------------------------------------------
// vbatched routines with complex scalars
// ---------------------------------------------------------------------------

template <typename T>
void check_complex_batch(Queue& q, Batch<T>& batch,
                         const std::vector<std::vector<T>>& originals, double tol) {
  for (int i = 0; i < batch.count(); ++i) {
    ASSERT_EQ(batch.info()[static_cast<std::size_t>(i)], 0) << "matrix " << i;
    const int n = batch.sizes()[static_cast<std::size_t>(i)];
    if (n == 0) continue;
    ConstMatrixView<T> orig(originals[static_cast<std::size_t>(i)].data(), n, n, n);
    EXPECT_LT(blas::potrf_residual<T>(Uplo::Lower, orig, batch.matrix(i)), tol)
        << "matrix " << i;
  }
  (void)q;
}

class ComplexPotrfTest : public ::testing::TestWithParam<PotrfPath> {};

TEST_P(ComplexPotrfTest, ZpotrfVbatchedFactorsRandomBatch) {
  Queue q;
  Rng rng(311);
  auto sizes = uniform_sizes(rng, 40, 90);
  Batch<Z> batch(q, sizes);
  batch.fill_spd(rng);
  std::vector<std::vector<Z>> originals;
  for (int i = 0; i < batch.count(); ++i) originals.push_back(batch.copy_matrix(i));

  PotrfOptions opts;
  opts.path = GetParam();
  const auto r = potrf_vbatched<Z>(q, Uplo::Lower, batch, opts);
  EXPECT_GT(r.seconds, 0.0);
  check_complex_batch(q, batch, originals, 1e-13);
}

INSTANTIATE_TEST_SUITE_P(Paths, ComplexPotrfTest,
                         ::testing::Values(PotrfPath::Fused, PotrfPath::Separated));

TEST(ComplexPotrf, CpotrfVbatchedSinglePrecision) {
  Queue q;
  Rng rng(313);
  auto sizes = uniform_sizes(rng, 25, 64);
  Batch<C> batch(q, sizes);
  batch.fill_spd(rng);
  std::vector<std::vector<C>> originals;
  for (int i = 0; i < batch.count(); ++i) originals.push_back(batch.copy_matrix(i));
  potrf_vbatched<C>(q, Uplo::Lower, batch);
  check_complex_batch(q, batch, originals, 2e-5);
}

TEST(ComplexPotrf, EtmVariantsProduceIdenticalFactors) {
  Rng size_rng(315);
  const auto sizes = uniform_sizes(size_rng, 20, 70);
  std::vector<std::vector<Z>> reference;
  bool first = true;
  for (EtmMode etm : {EtmMode::Classic, EtmMode::Aggressive}) {
    for (bool sorting : {false, true}) {
      Queue q;
      Batch<Z> batch(q, sizes);
      Rng fill(317);
      batch.fill_spd(fill);
      PotrfOptions opts;
      opts.path = PotrfPath::Fused;
      opts.etm = etm;
      opts.implicit_sorting = sorting;
      potrf_vbatched<Z>(q, Uplo::Lower, batch, opts);
      std::vector<std::vector<Z>> snap;
      for (int i = 0; i < batch.count(); ++i) snap.push_back(batch.copy_matrix(i));
      if (first) {
        reference = std::move(snap);
        first = false;
      } else {
        EXPECT_EQ(snap, reference);
      }
    }
  }
}

TEST(ComplexPotrs, SolvesHermitianSystems) {
  Queue q;
  Rng rng(319);
  std::vector<int> sizes{12, 28};
  std::vector<int> nrhs{2, 1};
  Batch<Z> a(q, sizes);
  a.fill_spd(rng);
  std::vector<std::vector<Z>> aorig;
  for (int i = 0; i < a.count(); ++i) aorig.push_back(a.copy_matrix(i));

  RectBatch<Z> b(q, sizes, nrhs);
  std::vector<std::vector<Z>> x_true;
  for (int i = 0; i < a.count(); ++i) {
    const int n = sizes[static_cast<std::size_t>(i)];
    const int r = nrhs[static_cast<std::size_t>(i)];
    std::vector<Z> x(static_cast<std::size_t>(n) * r);
    Rng xr(static_cast<std::uint64_t>(500 + i));
    fill_general(xr, x.data(), n, r, n);
    ConstMatrixView<Z> av(aorig[static_cast<std::size_t>(i)].data(), n, n, n);
    ConstMatrixView<Z> xv(x.data(), n, r, n);
    blas::gemm<Z>(Trans::NoTrans, Trans::NoTrans, Z(1), av, xv, Z(0), b.matrix(i));
    x_true.push_back(std::move(x));
  }

  potrf_vbatched<Z>(q, Uplo::Lower, a);
  potrs_vbatched<Z>(q, Uplo::Lower, a, b);
  for (int i = 0; i < a.count(); ++i) {
    const int n = sizes[static_cast<std::size_t>(i)];
    const int r = nrhs[static_cast<std::size_t>(i)];
    auto x = b.matrix(i);
    for (int c = 0; c < r; ++c)
      for (int row = 0; row < n; ++row)
        EXPECT_NEAR(std::abs(x(row, c) -
                             x_true[static_cast<std::size_t>(i)]
                                   [static_cast<std::size_t>(row + c * n)]),
                    0.0, 1e-9);
  }
}

TEST(ComplexPotri, ProducesHermitianInverse) {
  Queue q;
  Rng rng(321);
  std::vector<int> sizes{10, 17};
  Batch<Z> a(q, sizes);
  a.fill_spd(rng);
  std::vector<std::vector<Z>> aorig;
  for (int i = 0; i < a.count(); ++i) aorig.push_back(a.copy_matrix(i));

  potrf_vbatched<Z>(q, Uplo::Lower, a);
  potri_vbatched<Z>(q, Uplo::Lower, a);

  for (int idx = 0; idx < a.count(); ++idx) {
    const int n = sizes[static_cast<std::size_t>(idx)];
    auto tri = a.matrix(idx);
    // Complete Hermitian: upper = conj(lower).
    std::vector<Z> inv(static_cast<std::size_t>(n) * n);
    MatrixView<Z> iv(inv.data(), n, n, n);
    for (int c = 0; c < n; ++c)
      for (int r = 0; r < n; ++r) iv(r, c) = r >= c ? tri(r, c) : std::conj(tri(c, r));
    ConstMatrixView<Z> av(aorig[static_cast<std::size_t>(idx)].data(), n, n, n);
    for (int c = 0; c < n; ++c)
      for (int r = 0; r < n; ++r) {
        Z sum(0);
        for (int k = 0; k < n; ++k) sum += av(r, k) * iv(k, c);
        EXPECT_NEAR(std::abs(sum - (r == c ? Z(1) : Z(0))), 0.0, 1e-9);
      }
  }
}

TEST(ComplexBlasVbatched, PublicGemmMatchesReference) {
  Queue q;
  Rng rng(323);
  const std::vector<int> m{11, 23}, n{9, 15}, k{6, 12};
  RectBatch<Z> a(q, m, k), b(q, k, n), c(q, m, n);
  a.fill_general(rng);
  b.fill_general(rng);
  c.fill_general(rng);
  std::vector<std::vector<Z>> cref;
  for (int i = 0; i < c.count(); ++i) cref.push_back(c.copy_matrix(i));

  gemm_vbatched<Z>(q, Trans::NoTrans, Trans::NoTrans, Z(2, -1), a, b, Z(0.5, 0.25), c);

  for (int i = 0; i < c.count(); ++i) {
    MatrixView<Z> expect(cref[static_cast<std::size_t>(i)].data(),
                         m[static_cast<std::size_t>(i)], n[static_cast<std::size_t>(i)],
                         m[static_cast<std::size_t>(i)]);
    blas::gemm<Z>(Trans::NoTrans, Trans::NoTrans, Z(2, -1),
                  ConstMatrixView<Z>(a.matrix(i).data(), a.matrix(i).rows(),
                                     a.matrix(i).cols(), a.matrix(i).ld()),
                  ConstMatrixView<Z>(b.matrix(i).data(), b.matrix(i).rows(),
                                     b.matrix(i).cols(), b.matrix(i).ld()),
                  Z(0.5, 0.25), expect);
    auto got = c.matrix(i);
    for (index_t jc = 0; jc < got.cols(); ++jc)
      for (index_t ir = 0; ir < got.rows(); ++ir)
        EXPECT_NEAR(std::abs(got(ir, jc) - expect(ir, jc)), 0.0, 1e-11);
  }
}

TEST(ComplexTypes, TraitsAndHelpers) {
  static_assert(is_complex_v<Z>);
  static_assert(!is_complex_v<double>);
  static_assert(std::is_same_v<real_t<Z>, double>);
  static_assert(std::is_same_v<real_t<float>, float>);
  EXPECT_EQ(precision_v<Z>, Precision::Double);
  EXPECT_EQ(precision_v<C>, Precision::Single);
  EXPECT_EQ(precision_of<Z>::blas_prefix, 'z');
  EXPECT_EQ(conj_val(Z(1, 2)), Z(1, -2));
  EXPECT_EQ(conj_val(3.5), 3.5);
  EXPECT_EQ(real_val(Z(1, 2)), 1.0);
}

}  // namespace
