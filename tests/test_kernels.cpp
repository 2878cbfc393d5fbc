// Tests for the simulated device kernels: numerical agreement with the
// reference BLAS on host memory, ETM behaviour, aux kernels, and the
// composite vbatched trsm.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "vbatch/blas/blas.hpp"
#include "vbatch/kernels/aux_kernels.hpp"
#include "vbatch/kernels/fused_potrf.hpp"
#include "vbatch/kernels/gemm_vbatched.hpp"
#include "vbatch/kernels/potf2_panel.hpp"
#include "vbatch/kernels/trsm_vbatched.hpp"
#include "vbatch/kernels/trtri_diag.hpp"
#include "vbatch/sim/device.hpp"
#include "vbatch/util/rng.hpp"

namespace {

using namespace vbatch;
using namespace vbatch::kernels;

struct TestBatch {
  std::vector<int> n;
  std::vector<int> lda;
  std::vector<std::vector<double>> data;
  std::vector<double*> ptrs;
  std::vector<int> info;

  explicit TestBatch(std::vector<int> sizes, std::uint64_t seed = 1) : n(std::move(sizes)) {
    Rng rng(seed);
    for (int s : n) {
      lda.push_back(std::max(1, s));
      data.emplace_back(static_cast<std::size_t>(std::max(1, s) * std::max(1, s)));
      if (s > 0) fill_spd(rng, data.back().data(), s, s);
    }
    for (auto& d : data) ptrs.push_back(d.data());
    info.assign(n.size(), 0);
  }

  [[nodiscard]] BatchArgs<double> args() const {
    return {ptrs.data(), {n.data(), n.size()}, {lda.data(), lda.size()}};
  }
};

sim::Device make_dev() { return sim::Device(sim::DeviceSpec::k40c()); }

// ---------------------------------------------------------------------------
// Aux kernels
// ---------------------------------------------------------------------------

TEST(AuxKernels, ImaxReduce) {
  auto dev = make_dev();
  std::vector<int> vals{3, 99, 7, 42, 1};
  EXPECT_EQ(imax_reduce(dev, vals), 99);
  EXPECT_GE(dev.timeline().count_with_prefix("aux_imax_reduce"), 1u);
}

TEST(AuxKernels, ImaxReduceLargeArrayTwoStages) {
  auto dev = make_dev();
  std::vector<int> vals(3000, 5);
  vals[2718] = 512;
  EXPECT_EQ(imax_reduce(dev, vals), 512);
  EXPECT_EQ(dev.timeline().count_with_prefix("aux_imax_reduce"), 2u);  // + stage2
}

TEST(AuxKernels, ShiftSizesClampsAtZero) {
  auto dev = make_dev();
  std::vector<int> in{100, 64, 10};
  std::vector<int> out(3);
  shift_sizes(dev, in, out, 64);
  EXPECT_EQ(out, (std::vector<int>{36, 0, 0}));
}

TEST(AuxKernels, BuildSizeWindowSelectsHalfOpenRange) {
  auto dev = make_dev();
  std::vector<int> sizes{10, 64, 65, 128, 96, 64};
  std::vector<int> idx;
  build_size_window(dev, sizes, 64, 128, idx);
  EXPECT_EQ(idx, (std::vector<int>{2, 3, 4}));  // sizes in (64, 128]
}

TEST(AuxKernels, CountLive) {
  auto dev = make_dev();
  std::vector<int> sizes{10, 64, 65, 128};
  EXPECT_EQ(count_live(dev, sizes, 64), 2);
  EXPECT_EQ(count_live(dev, sizes, 0), 4);
  EXPECT_EQ(count_live(dev, sizes, 128), 0);
}

TEST(AuxKernels, DisplacePtrs) {
  auto dev = make_dev();
  std::vector<double> buf(100);
  std::vector<double*> base{buf.data()};
  std::vector<int> lda{10};
  auto out = displace_ptrs<double>(dev, {base.data(), 1}, lda, 3, 4);
  EXPECT_EQ(out[0], buf.data() + 3 + 4 * 10);
}

// ---------------------------------------------------------------------------
// Fused step kernel
// ---------------------------------------------------------------------------

TEST(FusedPotrf, SharedMemAndFeasibility) {
  const auto spec = sim::DeviceSpec::k40c();
  EXPECT_EQ(fused_shared_mem(64, 16, sizeof(double)), (64 * 16 + 16 * 16) * sizeof(double));
  const int max8 = fused_max_size(spec, 8, sizeof(double));
  const int max32 = fused_max_size(spec, 32, sizeof(double));
  EXPECT_GT(max8, max32);
  EXPECT_GT(max32, 100);
  EXPECT_LE(choose_fused_nb(spec, 100, sizeof(double)), 32);
  EXPECT_GE(choose_fused_nb(spec, 700, sizeof(double)), 8);
}

// Runs the full fused factorization of a batch, step by step, like the
// driver does, and checks every factor against the reference.
void run_fused_to_completion(sim::Device& dev, TestBatch& tb, EtmMode etm, int nb) {
  const int max_n = *std::max_element(tb.n.begin(), tb.n.end());
  FusedStepArgs<double> args;
  args.batch = tb.args();
  args.uplo = Uplo::Lower;
  args.nb = nb;
  args.etm = etm;
  args.info = tb.info;
  for (int step = 0; step * nb < max_n; ++step) {
    args.step = step;
    args.block_threads = round_up_warp(dev.spec(), max_n - step * nb);
    launch_fused_step(dev, args);
  }
}

class FusedEtmTest : public ::testing::TestWithParam<EtmMode> {};

TEST_P(FusedEtmTest, FactorsMatchReference) {
  auto dev = make_dev();
  TestBatch tb({5, 33, 64, 1, 17, 48}, 7);
  TestBatch ref = tb;  // deep copy
  run_fused_to_completion(dev, tb, GetParam(), 16);

  for (std::size_t i = 0; i < tb.n.size(); ++i) {
    EXPECT_EQ(tb.info[i], 0);
    const int n = tb.n[i];
    MatrixView<double> expect(ref.data[i].data(), n, n, n);
    ASSERT_EQ(blas::potrf<double>(Uplo::Lower, expect, 16), 0);
    for (int c = 0; c < n; ++c)
      for (int r = c; r < n; ++r)
        EXPECT_NEAR(tb.data[i][static_cast<std::size_t>(r + c * n)], expect(r, c), 1e-10)
            << "matrix " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Etms, FusedEtmTest,
                         ::testing::Values(EtmMode::Classic, EtmMode::Aggressive));

TEST(FusedPotrf, UpperFactorsMatchReference) {
  auto dev = make_dev();
  TestBatch tb({24, 40}, 11);
  TestBatch ref = tb;
  const int max_n = 40, nb = 8;
  FusedStepArgs<double> args;
  args.batch = tb.args();
  args.uplo = Uplo::Upper;
  args.nb = nb;
  args.etm = EtmMode::Aggressive;
  args.info = tb.info;
  for (int step = 0; step * nb < max_n; ++step) {
    args.step = step;
    args.block_threads = round_up_warp(dev.spec(), max_n - step * nb);
    launch_fused_step(dev, args);
  }
  for (std::size_t i = 0; i < tb.n.size(); ++i) {
    const int n = tb.n[i];
    MatrixView<double> expect(ref.data[i].data(), n, n, n);
    ASSERT_EQ(blas::potrf<double>(Uplo::Upper, expect, nb), 0);
    for (int c = 0; c < n; ++c)
      for (int r = 0; r <= c; ++r)
        EXPECT_NEAR(tb.data[i][static_cast<std::size_t>(r + c * n)], expect(r, c), 1e-10);
  }
}

TEST(FusedPotrf, EtmExitsAreCountedForFinishedMatrices) {
  auto dev = make_dev();
  TestBatch tb({8, 64}, 3);
  FusedStepArgs<double> args;
  args.batch = tb.args();
  args.nb = 8;
  args.etm = EtmMode::Classic;
  args.info = tb.info;
  args.step = 2;  // matrix of size 8 finished after step 1
  args.block_threads = 64;
  launch_fused_step(dev, args);
  EXPECT_EQ(dev.timeline().records().back().early_exits, 1);
}

TEST(FusedPotrf, NonSpdMatrixSetsGlobalInfoAndSkipsFurtherSteps) {
  auto dev = make_dev();
  TestBatch tb({32, 32}, 13);
  // Corrupt matrix 1 beyond the first panel: fails at step 2 (j=16).
  tb.data[1][static_cast<std::size_t>(20 + 20 * 32)] = -1e6;
  run_fused_to_completion(dev, tb, EtmMode::Aggressive, 16);
  EXPECT_EQ(tb.info[0], 0);
  EXPECT_EQ(tb.info[1], 21);  // 1-based global index of the bad pivot
}

TEST(FusedPotrf, ActiveListRestrictsLaunch) {
  auto dev = make_dev();
  TestBatch tb({16, 16, 16}, 17);
  TestBatch ref = tb;
  std::vector<int> active{1};
  FusedStepArgs<double> args;
  args.batch = tb.args();
  args.active = active;
  args.nb = 16;
  args.etm = EtmMode::Aggressive;
  args.info = tb.info;
  args.step = 0;
  args.block_threads = 32;
  launch_fused_step(dev, args);
  // Matrix 1 factored; matrices 0 and 2 untouched.
  EXPECT_NE(tb.data[1], ref.data[1]);
  EXPECT_EQ(tb.data[0], ref.data[0]);
  EXPECT_EQ(tb.data[2], ref.data[2]);
  EXPECT_EQ(dev.timeline().records().back().grid_blocks, 1);
}

// ---------------------------------------------------------------------------
// potf2 panel kernel
// ---------------------------------------------------------------------------

TEST(Potf2Panel, FactorsDiagonalBlocksOnly) {
  auto dev = make_dev();
  TestBatch tb({50, 80, 20}, 19);
  TestBatch ref = tb;
  Potf2PanelArgs<double> args;
  args.batch = tb.args();
  args.offset = 0;
  args.NB = 64;
  args.nb_inner = 16;
  args.info = tb.info;
  launch_potf2_panel(dev, args);

  for (std::size_t i = 0; i < tb.n.size(); ++i) {
    const int n = tb.n[i];
    const int ib = std::min(64, n);
    MatrixView<double> expect(ref.data[i].data(), n, n, n);
    ASSERT_EQ(blas::potrf<double>(Uplo::Lower, expect.block(0, 0, ib, ib), 16), 0);
    for (int c = 0; c < ib; ++c)
      for (int r = c; r < ib; ++r)
        EXPECT_NEAR(tb.data[i][static_cast<std::size_t>(r + c * n)], expect(r, c), 1e-10);
    // Below the panel must be untouched.
    for (int c = 0; c < ib; ++c)
      for (int r = ib; r < n; ++r)
        EXPECT_DOUBLE_EQ(tb.data[i][static_cast<std::size_t>(r + c * n)],
                         ref.data[i][static_cast<std::size_t>(r + c * n)]);
  }
}

TEST(Potf2Panel, OffsetPastMatrixTriggersEtm) {
  auto dev = make_dev();
  TestBatch tb({16, 100}, 23);
  Potf2PanelArgs<double> args;
  args.batch = tb.args();
  args.offset = 64;
  args.NB = 64;
  args.nb_inner = 16;
  args.info = tb.info;
  launch_potf2_panel(dev, args);
  // The panel is a loop of fused-step launches (§III-E1). Matrix 0 (n=16,
  // fully factorized before this offset) exits in every step; matrix 1
  // (remaining panel of 36) also exits once its internal steps run out.
  ASSERT_GE(dev.timeline().size(), 2u);
  EXPECT_EQ(dev.timeline().records().front().early_exits, 1);
  EXPECT_EQ(dev.timeline().records().back().early_exits, 2);
}

// ---------------------------------------------------------------------------
// vbatched gemm / syrk
// ---------------------------------------------------------------------------

TEST(GemmVbatched, MatchesReferencePerMatrix) {
  auto dev = make_dev();
  Rng rng(29);
  const std::vector<int> m{33, 70, 1}, n{65, 20, 1}, k{16, 50, 1};
  std::vector<std::vector<double>> abuf, bbuf, cbuf, cref;
  std::vector<double*> ap, bp, cp;
  std::vector<int> lda, ldb, ldc;
  for (std::size_t i = 0; i < m.size(); ++i) {
    abuf.emplace_back(static_cast<std::size_t>(m[i] * k[i]));
    bbuf.emplace_back(static_cast<std::size_t>(k[i] * n[i]));
    cbuf.emplace_back(static_cast<std::size_t>(m[i] * n[i]));
    fill_general(rng, abuf.back().data(), m[i], k[i], m[i]);
    fill_general(rng, bbuf.back().data(), k[i], n[i], k[i]);
    fill_general(rng, cbuf.back().data(), m[i], n[i], m[i]);
    cref.push_back(cbuf.back());
    lda.push_back(m[i]);
    ldb.push_back(k[i]);
    ldc.push_back(m[i]);
  }
  for (std::size_t i = 0; i < m.size(); ++i) {
    ap.push_back(abuf[i].data());
    bp.push_back(bbuf[i].data());
    cp.push_back(cbuf[i].data());
  }

  GemmVbatchedArgs<double> args;
  args.m = m;
  args.n = n;
  args.k = k;
  args.max_m = 70;
  args.max_n = 65;
  args.alpha = -1.0;
  args.beta = 2.0;
  args.a = ap.data();
  args.lda = lda;
  args.b = bp.data();
  args.ldb = ldb;
  args.c = cp.data();
  args.ldc = ldc;
  launch_gemm_vbatched(dev, args);

  for (std::size_t i = 0; i < m.size(); ++i) {
    MatrixView<double> expect(cref[i].data(), m[i], n[i], m[i]);
    blas::gemm<double>(Trans::NoTrans, Trans::NoTrans, -1.0,
                       ConstMatrixView<double>(abuf[i].data(), m[i], k[i], m[i]),
                       ConstMatrixView<double>(bbuf[i].data(), k[i], n[i], k[i]), 2.0, expect);
    for (int c = 0; c < n[i]; ++c)
      for (int r = 0; r < m[i]; ++r)
        EXPECT_NEAR(cbuf[i][static_cast<std::size_t>(r + c * m[i])], expect(r, c), 1e-11)
            << "matrix " << i;
  }
}

TEST(SyrkVbatched, LowerUpdateMatchesReference) {
  auto dev = make_dev();
  Rng rng(31);
  const std::vector<int> n{40, 100, 7}, k{16, 16, 16};
  std::vector<std::vector<double>> abuf, cbuf, cref;
  std::vector<double*> ap, cp;
  std::vector<int> lda, ldc;
  for (std::size_t i = 0; i < n.size(); ++i) {
    abuf.emplace_back(static_cast<std::size_t>(n[i] * k[i]));
    cbuf.emplace_back(static_cast<std::size_t>(n[i] * n[i]));
    fill_general(rng, abuf.back().data(), n[i], k[i], n[i]);
    fill_general(rng, cbuf.back().data(), n[i], n[i], n[i]);
    cref.push_back(cbuf.back());
    lda.push_back(n[i]);
    ldc.push_back(n[i]);
  }
  for (std::size_t i = 0; i < n.size(); ++i) {
    ap.push_back(abuf[i].data());
    cp.push_back(cbuf[i].data());
  }

  SyrkVbatchedArgs<double> args;
  args.uplo = Uplo::Lower;
  args.n = n;
  args.k = k;
  args.max_n = 100;
  args.alpha = -1.0;
  args.beta = 1.0;
  args.a = ap.data();
  args.lda = lda;
  args.c = cp.data();
  args.ldc = ldc;
  launch_syrk_vbatched(dev, args);

  for (std::size_t i = 0; i < n.size(); ++i) {
    MatrixView<double> expect(cref[i].data(), n[i], n[i], n[i]);
    blas::syrk<double>(Uplo::Lower, Trans::NoTrans, -1.0,
                       ConstMatrixView<double>(abuf[i].data(), n[i], k[i], n[i]), 1.0, expect);
    for (int c = 0; c < n[i]; ++c)
      for (int r = 0; r < n[i]; ++r)
        EXPECT_NEAR(cbuf[i][static_cast<std::size_t>(r + c * n[i])], expect(r, c), 1e-11)
            << "matrix " << i << " at " << r << "," << c;
  }
}

TEST(SyrkVbatched, StreamedMatchesVbatched) {
  Rng rng(37);
  const std::vector<int> n{30, 90}, k{24, 24};
  auto build = [&](std::vector<std::vector<double>>& a, std::vector<std::vector<double>>& c,
                   std::vector<double*>& ap, std::vector<double*>& cp) {
    Rng local(37);
    for (std::size_t i = 0; i < n.size(); ++i) {
      a.emplace_back(static_cast<std::size_t>(n[i] * k[i]));
      c.emplace_back(static_cast<std::size_t>(n[i] * n[i]));
      fill_general(local, a.back().data(), n[i], k[i], n[i]);
      fill_general(local, c.back().data(), n[i], n[i], n[i]);
    }
    for (std::size_t i = 0; i < n.size(); ++i) {
      ap.push_back(a[i].data());
      cp.push_back(c[i].data());
    }
  };
  std::vector<std::vector<double>> a1, c1, a2, c2;
  std::vector<double*> ap1, cp1, ap2, cp2;
  build(a1, c1, ap1, cp1);
  build(a2, c2, ap2, cp2);
  std::vector<int> lda{30, 90};

  SyrkVbatchedArgs<double> args;
  args.uplo = Uplo::Lower;
  args.n = n;
  args.k = k;
  args.max_n = 90;
  args.alpha = -1.0;
  args.beta = 1.0;
  args.lda = lda;
  args.ldc = lda;

  auto dev1 = make_dev();
  args.a = ap1.data();
  args.c = cp1.data();
  launch_syrk_vbatched(dev1, args);

  auto dev2 = make_dev();
  args.a = ap2.data();
  args.c = cp2.data();
  launch_syrk_streamed(dev2, args, 8);

  EXPECT_EQ(c1, c2);
}

// ---------------------------------------------------------------------------
// trtri + composite trsm
// ---------------------------------------------------------------------------

TEST(TrtriDiag, InvertsDiagonalBlocks) {
  auto dev = make_dev();
  Rng rng(41);
  const int NB = 64;
  std::vector<double> panel(static_cast<std::size_t>(NB * NB));
  fill_general(rng, panel.data(), NB, NB, NB);
  for (int d = 0; d < NB; ++d) panel[static_cast<std::size_t>(d + d * NB)] = 5.0 + d;
  // NaN-filled workspace: every entry the kernel is meant to write must be
  // written, including the zeros of each block's unused triangle.
  std::vector<double> inv(static_cast<std::size_t>(NB * NB),
                          std::numeric_limits<double>::quiet_NaN());

  std::vector<double*> a{panel.data()};
  std::vector<double*> iv{inv.data()};
  std::vector<int> lda{NB}, ib{NB};
  TrtriDiagArgs<double> args;
  args.a = a.data();
  args.lda = lda;
  args.ib = ib;
  args.NB = NB;
  args.inv = iv.data();
  args.inv_ld = NB;
  launch_trtri_diag(dev, args);

  // Each 32×32 diagonal block of inv must invert the matching block of panel.
  for (int b = 0; b < NB / 32; ++b) {
    for (int i = 0; i < 32; ++i)
      for (int j = 0; j <= i; ++j) {
        double sum = 0.0;
        for (int l = j; l <= i; ++l) {
          sum += panel[static_cast<std::size_t>((b * 32 + i) + (b * 32 + l) * NB)] *
                 inv[static_cast<std::size_t>((b * 32 + l) + (b * 32 + j) * NB)];
        }
        EXPECT_NEAR(sum, i == j ? 1.0 : 0.0, 1e-10);
      }
    // The block is stored dense: exact zeros above the diagonal, so the
    // sweep can apply it as a gemm operand.
    for (int j = 1; j < 32; ++j)
      for (int i = 0; i < j; ++i)
        EXPECT_EQ(inv[static_cast<std::size_t>((b * 32 + i) + (b * 32 + j) * NB)], 0.0)
            << "block " << b << " (" << i << "," << j << ")";
  }
}

TEST(TrsmVbatched, SolvesLowerRightTranspose) {
  auto dev = make_dev();
  Rng rng(43);
  const int NB = 64;
  const std::vector<int> mrows{50, 90, 0};  // matrix 2 inactive
  std::vector<std::vector<double>> l11s, bs, brefs;
  std::vector<double*> lp, bp, ip;
  std::vector<std::vector<double>> invs;
  std::vector<int> lda, ldb, ib;
  for (std::size_t i = 0; i < mrows.size(); ++i) {
    l11s.emplace_back(static_cast<std::size_t>(NB * NB));
    fill_general(rng, l11s.back().data(), NB, NB, NB);
    for (int d = 0; d < NB; ++d) l11s.back()[static_cast<std::size_t>(d + d * NB)] = 4.0 + d % 7;
    const int m = std::max(1, mrows[i]);
    bs.emplace_back(static_cast<std::size_t>(m * NB));
    fill_general(rng, bs.back().data(), m, NB, m);
    brefs.push_back(bs.back());
    invs.emplace_back(static_cast<std::size_t>(NB * NB), 0.0);
    lda.push_back(NB);
    ldb.push_back(m);
    ib.push_back(mrows[i] > 0 ? NB : 0);
  }
  for (std::size_t i = 0; i < mrows.size(); ++i) {
    lp.push_back(l11s[i].data());
    bp.push_back(bs[i].data());
    ip.push_back(invs[i].data());
  }

  TrsmVbatchedArgs<double> args;
  args.uplo = Uplo::Lower;
  args.a = lp.data();
  args.lda = lda;
  args.ib = ib;
  args.b = bp.data();
  args.ldb = ldb;
  args.m = mrows;
  args.max_ib = NB;
  args.max_m = 90;
  args.inv = ip.data();
  args.inv_ld = NB;
  launch_trsm_vbatched(dev, args);

  for (std::size_t i = 0; i < mrows.size(); ++i) {
    const int m = mrows[i];
    if (m == 0) {
      EXPECT_EQ(bs[i], brefs[i]);  // inactive matrix untouched
      continue;
    }
    MatrixView<double> expect(brefs[i].data(), m, NB, m);
    blas::trsm<double>(Side::Right, Uplo::Lower, Trans::Trans, Diag::NonUnit, 1.0,
                       ConstMatrixView<double>(l11s[i].data(), NB, NB, NB), expect);
    for (int c = 0; c < NB; ++c)
      for (int r = 0; r < m; ++r)
        EXPECT_NEAR(bs[i][static_cast<std::size_t>(r + c * m)], expect(r, c), 1e-9)
            << "matrix " << i;
  }
}

TEST(TrsmVbatched, SolvesUpperLeftTranspose) {
  auto dev = make_dev();
  Rng rng(47);
  const int NB = 64;
  const int m = 70;
  std::vector<double> u11(static_cast<std::size_t>(NB * NB));
  fill_general(rng, u11.data(), NB, NB, NB);
  for (int d = 0; d < NB; ++d) u11[static_cast<std::size_t>(d + d * NB)] = 6.0 + d % 5;
  std::vector<double> b(static_cast<std::size_t>(NB * m));
  fill_general(rng, b.data(), NB, m, NB);
  auto bref = b;
  std::vector<double> inv(static_cast<std::size_t>(NB * NB), 0.0);

  std::vector<double*> up{u11.data()}, bp{b.data()}, ip{inv.data()};
  std::vector<int> lda{NB}, ldb{NB}, ib{NB}, mr{m};
  TrsmVbatchedArgs<double> args;
  args.uplo = Uplo::Upper;
  args.a = up.data();
  args.lda = lda;
  args.ib = ib;
  args.b = bp.data();
  args.ldb = ldb;
  args.m = mr;
  args.max_ib = NB;
  args.max_m = m;
  args.inv = ip.data();
  args.inv_ld = NB;
  launch_trsm_vbatched(dev, args);

  MatrixView<double> expect(bref.data(), NB, m, NB);
  blas::trsm<double>(Side::Left, Uplo::Upper, Trans::Trans, Diag::NonUnit, 1.0,
                     ConstMatrixView<double>(u11.data(), NB, NB, NB), expect);
  for (int c = 0; c < m; ++c)
    for (int r = 0; r < NB; ++r)
      EXPECT_NEAR(b[static_cast<std::size_t>(r + c * NB)], expect(r, c), 1e-9);
}

}  // namespace
