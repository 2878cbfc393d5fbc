// Direct kernel-level tests for the LU and QR device kernels (the
// end-to-end drivers are covered in test_extensions; these pin down the
// panel launch's exits and the QR numerics pass in isolation).
#include <gtest/gtest.h>

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

// ---------------------------------------------------------------------------
// LU panel
// ---------------------------------------------------------------------------

TEST(GetrfPanelKernel, FinishedMatricesExit) {
  auto dev = make_dev();
  const std::vector<int> n{8, 64};
  GetrfPanelArgs<double> args;
  args.n = n;
  args.m = n;
  args.offset = 32;  // matrix 0 (n=8) has no rows left
  args.NB = 16;
  launch_getrf_panel(dev, args);
  EXPECT_EQ(dev.timeline().records().back().early_exits, 1);
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
