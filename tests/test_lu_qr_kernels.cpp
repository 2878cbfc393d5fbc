// Direct kernel-level tests for the LU and QR device kernels (the
// end-to-end drivers are covered in test_extensions; these pin down each
// kernel's contract in isolation).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "vbatch/blas/blas.hpp"
#include "vbatch/kernels/geqrf_kernels.hpp"
#include "vbatch/kernels/getrf_kernels.hpp"
#include "vbatch/sim/device.hpp"
#include "vbatch/util/rng.hpp"

namespace {

using namespace vbatch;
using namespace vbatch::kernels;

sim::Device make_dev() { return sim::Device(sim::DeviceSpec::k40c()); }

struct LuBatch {
  std::vector<int> n, lda, info;
  std::vector<std::vector<double>> data;
  std::vector<double*> ptrs;
  std::vector<std::vector<int>> piv;
  std::vector<int*> piv_ptrs;

  explicit LuBatch(std::vector<int> sizes, std::uint64_t seed) : n(std::move(sizes)) {
    Rng rng(seed);
    for (int s : n) {
      lda.push_back(std::max(1, s));
      data.emplace_back(static_cast<std::size_t>(std::max(1, s) * std::max(1, s)));
      fill_general(rng, data.back().data(), s, s, std::max(1, s));
      piv.emplace_back(static_cast<std::size_t>(std::max(1, s)), 0);
    }
    for (auto& d : data) ptrs.push_back(d.data());
    for (auto& p : piv) piv_ptrs.push_back(p.data());
    info.assign(n.size(), 0);
  }
};

// ---------------------------------------------------------------------------
// LU panel
// ---------------------------------------------------------------------------

TEST(GetrfPanelKernel, MatchesReferencePanelFactorization) {
  LuBatch tb({24, 40}, 501);
  LuBatch ref = tb;  // ref.ptrs point into ref copies? No: copied pointers...
  // Rebuild reference data copies explicitly (the copy above shares no
  // storage for `data`, but `ptrs` still reference tb's buffers).
  for (std::size_t i = 0; i < ref.data.size(); ++i) ref.ptrs[i] = ref.data[i].data();

  GetrfPanelArgs<double> args;
  args.batch = {tb.ptrs.data(), tb.n, tb.lda};
  args.m = tb.n;
  args.offset = 0;
  args.NB = 16;
  args.ipiv = tb.piv_ptrs.data();
  args.info = tb.info;
  getrf_panel_numerics(args);

  for (std::size_t i = 0; i < tb.n.size(); ++i) {
    const int n = tb.n[i];
    // Reference: getf2 on the leading n×16 panel.
    MatrixView<double> panel(ref.data[i].data(), n, 16, n);
    std::vector<int> rpiv(16);
    ASSERT_EQ(blas::getf2<double>(panel, rpiv), 0);
    for (int c = 0; c < 16; ++c) {
      EXPECT_EQ(tb.piv[i][static_cast<std::size_t>(c)], rpiv[static_cast<std::size_t>(c)]);
      for (int r = 0; r < n; ++r)
        EXPECT_NEAR(tb.data[i][static_cast<std::size_t>(r + c * n)], panel(r, c), 1e-12);
    }
  }
}

TEST(GetrfPanelKernel, GlobalizesPivotsAtOffset) {
  LuBatch tb({32}, 503);
  GetrfPanelArgs<double> args;
  args.batch = {tb.ptrs.data(), tb.n, tb.lda};
  args.m = tb.n;
  args.offset = 16;
  args.NB = 8;
  args.ipiv = tb.piv_ptrs.data();
  args.info = tb.info;
  getrf_panel_numerics(args);
  for (int k = 16; k < 24; ++k) {
    EXPECT_GE(tb.piv[0][static_cast<std::size_t>(k)], k + 1);  // global, 1-based
    EXPECT_LE(tb.piv[0][static_cast<std::size_t>(k)], 32);
  }
}

TEST(GetrfPanelKernel, FinishedMatricesExit) {
  auto dev = make_dev();
  LuBatch tb({8, 64}, 505);
  GetrfPanelArgs<double> args;
  args.batch = {tb.ptrs.data(), tb.n, tb.lda};
  args.m = tb.n;
  args.offset = 32;  // matrix 0 (n=8) has no rows left
  args.NB = 16;
  args.ipiv = tb.piv_ptrs.data();
  args.info = tb.info;
  launch_getrf_panel(dev, args);
  EXPECT_EQ(dev.timeline().records().back().early_exits, 1);
}

// ---------------------------------------------------------------------------
// laswp
// ---------------------------------------------------------------------------

TEST(LaswpKernel, AppliesPivotsToColumnRange) {
  LuBatch tb({10}, 507);
  auto orig = tb.data[0];
  // Pivots: swap row 0<->3 and row 1<->4 (1-based entries 4 and 5).
  tb.piv[0][0] = 4;
  tb.piv[0][1] = 5;

  LaswpArgs<double> args;
  args.batch = {tb.ptrs.data(), tb.n, tb.lda};
  args.m = tb.n;
  args.k1 = 0;
  args.k2 = 2;
  args.col0 = 2;
  args.col1 = 10;
  args.max_cols = 8;
  args.ipiv = tb.piv_ptrs.data();
  laswp_numerics(args);

  for (int c = 0; c < 10; ++c) {
    for (int r = 0; r < 10; ++r) {
      int src_row = r;
      if (c >= 2) {  // swapped range only
        if (r == 0) src_row = 3;
        else if (r == 3) src_row = 0;
        else if (r == 1) src_row = 4;
        else if (r == 4) src_row = 1;
      }
      EXPECT_DOUBLE_EQ(tb.data[0][static_cast<std::size_t>(r + c * 10)],
                       orig[static_cast<std::size_t>(src_row + c * 10)])
          << r << "," << c;
    }
  }
}

// ---------------------------------------------------------------------------
// LU unit-lower trsm
// ---------------------------------------------------------------------------

TEST(LuTrsmKernel, SolvesUnitLowerBlockRow) {
  Rng rng(509);
  const int ib = 16, n2 = 40;
  std::vector<double> l11(static_cast<std::size_t>(ib * ib));
  fill_general(rng, l11.data(), ib, ib, ib);
  std::vector<double> b(static_cast<std::size_t>(ib * n2));
  fill_general(rng, b.data(), ib, n2, ib);
  auto bref = b;

  std::vector<double*> lp{l11.data()}, bp{b.data()};
  std::vector<int> lda{ib}, ldb{ib}, ibs{ib}, n2s{n2};
  LuTrsmArgs<double> args;
  args.l11 = lp.data();
  args.lda = lda;
  args.ib = ibs;
  args.b = bp.data();
  args.ldb = ldb;
  args.n2 = n2s;
  args.max_n2 = n2;
  lu_trsm_numerics(args);

  MatrixView<double> expect(bref.data(), ib, n2, ib);
  blas::trsm<double>(Side::Left, Uplo::Lower, Trans::NoTrans, Diag::Unit, 1.0,
                     ConstMatrixView<double>(l11.data(), ib, ib, ib), expect);
  for (int c = 0; c < n2; ++c)
    for (int r = 0; r < ib; ++r)
      EXPECT_NEAR(b[static_cast<std::size_t>(r + c * ib)], expect(r, c), 1e-12);
}

// ---------------------------------------------------------------------------
// QR panel + reflector update
// ---------------------------------------------------------------------------

TEST(GeqrfPanelKernel, MatchesReferenceGeqr2) {
  // The QR's numerics factor the whole matrix; its first nb-wide panel is
  // geqr2 of that panel, and later steps leave those columns alone.
  Rng rng(511);
  const int m = 30, nb = 8;
  std::vector<double> a(static_cast<std::size_t>(m * m));
  fill_general(rng, a.data(), m, m, m);
  auto ref = a;
  std::vector<double> tau(static_cast<std::size_t>(m), 0.0);

  std::vector<double*> ap{a.data()};
  std::vector<double*> tp{tau.data()};
  std::vector<int> lda{m}, mm{m}, nn{m};
  geqrf_numerics<double>(ap.data(), lda, mm, nn, nb, tp.data());

  MatrixView<double> panel(ref.data(), m, nb, m);
  std::vector<double> rtau(static_cast<std::size_t>(nb));
  blas::geqr2<double>(panel, rtau);
  for (int c = 0; c < nb; ++c) {
    EXPECT_NEAR(tau[static_cast<std::size_t>(c)], rtau[static_cast<std::size_t>(c)], 1e-13);
    for (int r = 0; r < m; ++r)
      EXPECT_NEAR(a[static_cast<std::size_t>(r + c * m)], panel(r, c), 1e-12);
  }
}

TEST(LarfbUpdateKernel, PreservesColumnNorms) {
  // The trailing updates apply Qᵀ (orthogonal), which preserves column
  // norms: every column of R = QᵀA keeps its column's norm.
  Rng rng(513);
  const int m = 25, n = 20, nb = 8;
  std::vector<double> a(static_cast<std::size_t>(m * n));
  fill_general(rng, a.data(), m, n, m);
  std::vector<double> norms_before;
  for (int c = nb; c < n; ++c) {
    double s = 0.0;
    for (int r = 0; r < m; ++r) s += a[static_cast<std::size_t>(r + c * m)] *
                                     a[static_cast<std::size_t>(r + c * m)];
    norms_before.push_back(std::sqrt(s));
  }
  std::vector<double> tau(static_cast<std::size_t>(n), 0.0);
  std::vector<double*> ap{a.data()};
  std::vector<double*> tp{tau.data()};
  std::vector<int> lda{m}, mm{m}, nn{n};
  geqrf_numerics<double>(ap.data(), lda, mm, nn, nb, tp.data());

  for (int c = nb; c < n; ++c) {
    double s = 0.0;
    for (int r = 0; r <= c; ++r) s += a[static_cast<std::size_t>(r + c * m)] *
                                      a[static_cast<std::size_t>(r + c * m)];
    EXPECT_NEAR(std::sqrt(s), norms_before[static_cast<std::size_t>(c - nb)], 1e-10);
  }
}

}  // namespace
