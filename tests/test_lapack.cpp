// Tests for the reference LAPACK-style factorizations: Cholesky, LU with
// partial pivoting, Householder QR — residual checks over parameterized
// sizes, blocked-vs-unblocked agreement, and failure injection.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "vbatch/blas/blas.hpp"
#include "vbatch/util/rng.hpp"

namespace {

using namespace vbatch;

template <typename T>
std::vector<T> spd_matrix(Rng& rng, index_t n, index_t ld) {
  std::vector<T> a(static_cast<std::size_t>(ld * n));
  fill_spd(rng, a.data(), n, ld);
  return a;
}

// ---------------------------------------------------------------------------
// Cholesky
// ---------------------------------------------------------------------------

class PotrfTest : public ::testing::TestWithParam<std::tuple<int, Uplo>> {};

TEST_P(PotrfTest, ResidualSmallDouble) {
  const auto [n, uplo] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n + 1000 * static_cast<int>(uplo)));
  auto orig = spd_matrix<double>(rng, n, n);
  auto fac = orig;
  MatrixView<double> a(fac.data(), n, n, n);
  ASSERT_EQ(blas::potrf<double>(uplo, a), 0);
  ConstMatrixView<double> ov(orig.data(), n, n, n);
  EXPECT_LT(blas::potrf_residual<double>(uplo, ov, a), 1e-14);
}

TEST_P(PotrfTest, BlockedMatchesUnblocked) {
  const auto [n, uplo] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 17));
  auto orig = spd_matrix<double>(rng, n, n);
  auto f1 = orig, f2 = orig;
  MatrixView<double> a1(f1.data(), n, n, n);
  MatrixView<double> a2(f2.data(), n, n, n);
  ASSERT_EQ(blas::potf2<double>(uplo, a1), 0);
  ASSERT_EQ(blas::potrf<double>(uplo, a2), 0);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      const bool in_tri = uplo == Uplo::Lower ? i >= j : i <= j;
      if (in_tri) EXPECT_NEAR(a1(i, j), a2(i, j), 1e-12);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PotrfTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 7, 16, 33, 64, 100),
                                            ::testing::Values(Uplo::Lower, Uplo::Upper)));

TEST(Potrf, SinglePrecisionResidual) {
  Rng rng(4);
  const index_t n = 48;
  auto orig = spd_matrix<float>(rng, n, n);
  auto fac = orig;
  MatrixView<float> a(fac.data(), n, n, n);
  ASSERT_EQ(blas::potrf<float>(Uplo::Lower, a), 0);
  ConstMatrixView<float> ov(orig.data(), n, n, n);
  EXPECT_LT(blas::potrf_residual<float>(Uplo::Lower, ov, a), 1e-5);
}

TEST(Potrf, NonSpdReportsFirstBadPivot) {
  // Make the trailing 2x2 block indefinite: info should point past the
  // leading SPD part.
  Rng rng(8);
  const index_t n = 6;
  auto buf = spd_matrix<double>(rng, n, n);
  MatrixView<double> a(buf.data(), n, n, n);
  a(4, 4) = -100.0;  // breaks positivity at step 5
  const int info = blas::potrf<double>(Uplo::Lower, a);
  EXPECT_EQ(info, 5);
}

TEST(Potrf, ZeroMatrixFailsAtFirstStep) {
  std::vector<double> buf(16, 0.0);
  MatrixView<double> a(buf.data(), 4, 4, 4);
  EXPECT_EQ(blas::potf2<double>(Uplo::Lower, a), 1);
}

TEST(Potrf, RespectsLeadingDimensionPadding) {
  Rng rng(21);
  const index_t n = 20, ld = 29;
  auto orig = spd_matrix<double>(rng, n, ld);
  auto fac = orig;
  // Poison the padding; it must survive untouched.
  for (index_t j = 0; j < n; ++j)
    for (index_t i = n; i < ld; ++i) fac[static_cast<std::size_t>(i + j * ld)] = -7.5;
  MatrixView<double> a(fac.data(), n, n, ld);
  ASSERT_EQ(blas::potrf<double>(Uplo::Lower, a), 0);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = n; i < ld; ++i)
      EXPECT_DOUBLE_EQ(fac[static_cast<std::size_t>(i + j * ld)], -7.5);
  ConstMatrixView<double> ov(orig.data(), n, n, ld);
  EXPECT_LT(blas::potrf_residual<double>(Uplo::Lower, ov, a), 1e-14);
}

TEST(Potrs, SolvesSpdSystem) {
  Rng rng(31);
  const index_t n = 24, nrhs = 3;
  auto orig = spd_matrix<double>(rng, n, n);
  auto fac = orig;
  MatrixView<double> a(fac.data(), n, n, n);
  ASSERT_EQ(blas::potrf<double>(Uplo::Lower, a), 0);

  std::vector<double> x_true(static_cast<std::size_t>(n * nrhs));
  for (auto& v : x_true) v = rng.uniform(-1.0, 1.0);
  std::vector<double> b(static_cast<std::size_t>(n * nrhs), 0.0);
  ConstMatrixView<double> ov(orig.data(), n, n, n);
  ConstMatrixView<double> xv(x_true.data(), n, nrhs, n);
  MatrixView<double> bv(b.data(), n, nrhs, n);
  blas::gemm<double>(Trans::NoTrans, Trans::NoTrans, 1.0, ov, xv, 0.0, bv);

  blas::potrs<double>(Uplo::Lower, a, bv);
  for (index_t j = 0; j < nrhs; ++j)
    for (index_t i = 0; i < n; ++i) EXPECT_NEAR(bv(i, j), xv(i, j), 1e-9);
}

// ---------------------------------------------------------------------------
// LU
// ---------------------------------------------------------------------------

class GetrfTest : public ::testing::TestWithParam<int> {};

TEST_P(GetrfTest, ResidualSmall) {
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 3 + 1));
  std::vector<double> orig(static_cast<std::size_t>(n * n));
  fill_general(rng, orig.data(), n, n, n);
  auto lu = orig;
  std::vector<int> ipiv(static_cast<std::size_t>(n));
  MatrixView<double> a(lu.data(), n, n, n);
  ASSERT_EQ(blas::getrf<double>(a, ipiv, 8), 0);
  ConstMatrixView<double> ov(orig.data(), n, n, n);
  EXPECT_LT(blas::getrf_residual<double>(ov, a, ipiv), 1e-13);
}

TEST_P(GetrfTest, BlockedMatchesUnblocked) {
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 5 + 2));
  std::vector<double> orig(static_cast<std::size_t>(n * n));
  fill_general(rng, orig.data(), n, n, n);
  auto l1 = orig, l2 = orig;
  std::vector<int> p1(static_cast<std::size_t>(n)), p2(static_cast<std::size_t>(n));
  MatrixView<double> a1(l1.data(), n, n, n), a2(l2.data(), n, n, n);
  ASSERT_EQ(blas::getf2<double>(a1, p1), 0);
  ASSERT_EQ(blas::getrf<double>(a2, p2, 4), 0);
  EXPECT_EQ(p1, p2);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) EXPECT_NEAR(a1(i, j), a2(i, j), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GetrfTest, ::testing::Values(1, 2, 5, 8, 13, 32, 50));

TEST(Getrf, PivotsAreOneBasedAndInRange) {
  Rng rng(77);
  const int n = 12;
  std::vector<double> buf(static_cast<std::size_t>(n * n));
  fill_general(rng, buf.data(), n, n, n);
  std::vector<int> ipiv(static_cast<std::size_t>(n));
  MatrixView<double> a(buf.data(), n, n, n);
  ASSERT_EQ(blas::getrf<double>(a, ipiv, 4), 0);
  for (int k = 0; k < n; ++k) {
    EXPECT_GE(ipiv[static_cast<std::size_t>(k)], k + 1);
    EXPECT_LE(ipiv[static_cast<std::size_t>(k)], n);
  }
}

TEST(Getrf, SingularMatrixReportsInfo) {
  const int n = 4;
  std::vector<double> buf(static_cast<std::size_t>(n * n), 1.0);  // rank 1
  std::vector<int> ipiv(static_cast<std::size_t>(n));
  MatrixView<double> a(buf.data(), n, n, n);
  EXPECT_GT(blas::getf2<double>(a, ipiv), 0);
}

TEST(Laswp, AppliesPivotsToColumnRange) {
  // Pivots swap rows 0<->3 and 1<->4 (1-based entries 4 and 5), applied to
  // the column block [2, 10) only.
  Rng rng(507);
  const int n = 10;
  std::vector<double> buf(static_cast<std::size_t>(n * n));
  fill_general(rng, buf.data(), n, n, n);
  const auto orig = buf;
  const std::vector<int> ipiv{4, 5};
  MatrixView<double> a(buf.data(), n, n, n);
  blas::laswp<double>(a.block(0, 2, n, n - 2), ipiv, 0, 2);

  for (int c = 0; c < n; ++c) {
    for (int r = 0; r < n; ++r) {
      int src_row = r;
      if (c >= 2) {  // swapped range only
        if (r == 0) src_row = 3;
        else if (r == 3) src_row = 0;
        else if (r == 1) src_row = 4;
        else if (r == 4) src_row = 1;
      }
      EXPECT_EQ(buf[static_cast<std::size_t>(r + c * n)],
                orig[static_cast<std::size_t>(src_row + c * n)])
          << r << "," << c;
    }
  }
}

TEST(Getrf, RectangularTallResidual) {
  Rng rng(123);
  const int m = 30, n = 18;
  std::vector<double> orig(static_cast<std::size_t>(m * n));
  fill_general(rng, orig.data(), m, n, m);
  auto lu = orig;
  std::vector<int> ipiv(static_cast<std::size_t>(n));
  MatrixView<double> a(lu.data(), m, n, m);
  ASSERT_EQ(blas::getrf<double>(a, ipiv, 8), 0);
  ConstMatrixView<double> ov(orig.data(), m, n, m);
  EXPECT_LT(blas::getrf_residual<double>(ov, a, ipiv), 1e-13);
}

// ---------------------------------------------------------------------------
// QR
// ---------------------------------------------------------------------------

class GeqrfTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GeqrfTest, ResidualSmall) {
  const auto [m, n] = GetParam();
  if (m < n) GTEST_SKIP() << "tall-or-square only";
  Rng rng(static_cast<std::uint64_t>(m * 101 + n));
  std::vector<double> orig(static_cast<std::size_t>(m * n));
  fill_general(rng, orig.data(), m, n, m);
  auto qr = orig;
  std::vector<double> tau(static_cast<std::size_t>(std::min(m, n)));
  MatrixView<double> a(qr.data(), m, n, m);
  blas::geqrf<double>(a, tau, 8);
  ConstMatrixView<double> ov(orig.data(), m, n, m);
  EXPECT_LT(blas::geqrf_residual<double>(ov, a, tau), 1e-13);
}

TEST_P(GeqrfTest, BlockedMatchesUnblocked) {
  const auto [m, n] = GetParam();
  if (m < n) GTEST_SKIP();
  Rng rng(static_cast<std::uint64_t>(m * 7 + n * 3));
  std::vector<double> orig(static_cast<std::size_t>(m * n));
  fill_general(rng, orig.data(), m, n, m);
  auto q1 = orig, q2 = orig;
  std::vector<double> t1(static_cast<std::size_t>(std::min(m, n)));
  std::vector<double> t2 = t1;
  MatrixView<double> a1(q1.data(), m, n, m), a2(q2.data(), m, n, m);
  blas::geqr2<double>(a1, t1);
  blas::geqrf<double>(a2, t2, 4);
  for (std::size_t k = 0; k < t1.size(); ++k) EXPECT_NEAR(t1[k], t2[k], 1e-12);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) EXPECT_NEAR(a1(i, j), a2(i, j), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GeqrfTest,
                         ::testing::Combine(::testing::Values(1, 6, 16, 40),
                                            ::testing::Values(1, 6, 16, 40)));

TEST(Orgqr, QIsOrthonormal) {
  Rng rng(9);
  const int m = 25, n = 10;
  std::vector<double> buf(static_cast<std::size_t>(m * n));
  fill_general(rng, buf.data(), m, n, m);
  std::vector<double> tau(static_cast<std::size_t>(n));
  MatrixView<double> a(buf.data(), m, n, m);
  blas::geqrf<double>(a, tau, 8);
  blas::orgqr<double>(a, tau);
  // QᵀQ == I.
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) {
      double dot = 0.0;
      for (index_t r = 0; r < m; ++r) dot += a(r, i) * a(r, j);
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-12);
    }
}

}  // namespace
