// Tests for the simulated device kernels: numerical agreement with the
// reference BLAS on host memory, ETM behaviour, aux kernels, and the cost
// passes of the separated driver's panel, composite trsm and streamed syrk.
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "vbatch/blas/blas.hpp"
#include "vbatch/core/blas_vbatched.hpp"
#include "vbatch/kernels/aux_kernels.hpp"
#include "vbatch/kernels/fused_potrf.hpp"
#include "vbatch/kernels/gemm_vbatched.hpp"
#include "vbatch/kernels/potf2_panel.hpp"
#include "vbatch/kernels/trsm_vbatched.hpp"
#include "vbatch/sim/device.hpp"
#include "vbatch/util/flops.hpp"
#include "vbatch/util/rng.hpp"
#include "vbatch/util/thread_pool.hpp"

namespace {

using namespace vbatch;
using namespace vbatch::kernels;

template <typename T>
struct BatchOf {
  std::vector<int> n;
  std::vector<int> lda;
  std::vector<std::vector<T>> data;
  std::vector<T*> ptrs;
  std::vector<int> info;

  /// Matrices of orders `sizes`, filled SPD, with lda = n + pad (padding
  /// rows hold values too, so a stray write shows).
  explicit BatchOf(std::vector<int> sizes, std::uint64_t seed = 1, int pad = 0)
      : n(std::move(sizes)) {
    Rng rng(seed);
    for (int s : n) {
      const int ld = std::max(1, s + pad);
      lda.push_back(ld);
      data.emplace_back(static_cast<std::size_t>(ld * std::max(1, s)));
      if (pad > 0) fill_general<T>(rng, data.back().data(), ld, std::max(1, s), ld);
      if (s > 0) fill_spd<T>(rng, data.back().data(), s, ld);
    }
    for (auto& d : data) ptrs.push_back(d.data());
    info.assign(n.size(), 0);
  }

  [[nodiscard]] BatchArgs<T> args() const {
    return {ptrs.data(), {n.data(), n.size()}, {lda.data(), lda.size()}};
  }
};

using TestBatch = BatchOf<double>;

/// Byte equality (memcmp: NaN payloads count).
template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

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
  // 300 pointers: a full 256-entry block and a 44-entry tail, each entry a
  // pointer read and written plus its ld read, two integer ops.
  auto dev = make_dev();
  displace_ptrs(dev, 300);
  ASSERT_EQ(dev.timeline().size(), 1u);
  const sim::KernelRecord& rec = dev.timeline().records().back();
  EXPECT_EQ(rec.name, "aux_displace_ptrs");
  EXPECT_EQ(rec.grid_blocks, 2);
  EXPECT_EQ(rec.block_threads, 256);
  EXPECT_EQ(rec.shared_mem, 0u);
  EXPECT_EQ(rec.flops, 600.0);
  EXPECT_EQ(rec.bytes, 300.0 * (2 * sizeof(double*) + sizeof(int)));

  // The seconds are the element-wise kernel's, priced block by block.
  auto ref = make_dev();
  const double want = ref.launch({"aux_displace_ptrs", 2, 256, 0, Precision::Single},
                                 [](int block) {
                                   sim::BlockCost c;
                                   const int elems = block == 0 ? 256 : 44;
                                   c.active_threads = elems;
                                   c.live_threads = 256;
                                   c.flops = 2.0 * elems;
                                   c.bytes = elems * (2.0 * sizeof(double*) + sizeof(int));
                                   return c;
                                 });
  EXPECT_GT(want, 0.0);
  EXPECT_EQ(rec.end - rec.start, want);
  EXPECT_EQ(dev.time(), ref.time());
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

// Runs the full fused factorization of a batch like the driver does: the
// numerics once (fused_potrf_numerics), then every step's cost launch over
// the whole batch, which reads the final info.
void run_fused_to_completion(sim::Device& dev, TestBatch& tb, EtmMode etm, int nb,
                             Uplo uplo = Uplo::Lower) {
  const int max_n = *std::max_element(tb.n.begin(), tb.n.end());
  fused_potrf_numerics<double>(uplo, tb.args(), nb, tb.info);
  FusedStepArgs<double> args;
  args.batch = tb.args();
  args.uplo = uplo;
  args.nb = nb;
  args.etm = etm;
  args.info = tb.info;
  for (int step = 0; step * nb < max_n; ++step) {
    args.step = step;
    args.block_threads = round_up_warp(dev.spec(), max_n - step * nb);
    launch_fused_step(dev, args);
  }
}

/// The fused_potrf_step records' early exits, in launch order.
std::vector<int> fused_step_exits(const sim::Device& dev) {
  std::vector<int> out;
  for (const auto& r : dev.timeline().records())
    if (r.name == "fused_potrf_step") out.push_back(r.early_exits);
  return out;
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
    ASSERT_EQ(blas::potrf<double>(Uplo::Lower, expect), 0);
    for (int c = 0; c < n; ++c)
      for (int r = c; r < n; ++r)
        EXPECT_NEAR(tb.data[i][static_cast<std::size_t>(r + c * n)], expect(r, c), 1e-10)
            << "matrix " << i;
  }
  // One cost launch per step; a block exits once its matrix is finished.
  EXPECT_EQ(fused_step_exits(dev), (std::vector<int>{0, 2, 3, 5}));
}

INSTANTIATE_TEST_SUITE_P(Etms, FusedEtmTest,
                         ::testing::Values(EtmMode::Classic, EtmMode::Aggressive));

TEST(FusedPotrf, UpperFactorsMatchReference) {
  auto dev = make_dev();
  TestBatch tb({24, 40}, 11);
  TestBatch ref = tb;
  run_fused_to_completion(dev, tb, EtmMode::Aggressive, 8, Uplo::Upper);
  for (std::size_t i = 0; i < tb.n.size(); ++i) {
    EXPECT_EQ(tb.info[i], 0);
    const int n = tb.n[i];
    MatrixView<double> expect(ref.data[i].data(), n, n, n);
    ASSERT_EQ(blas::potrf<double>(Uplo::Upper, expect), 0);
    for (int c = 0; c < n; ++c)
      for (int r = 0; r <= c; ++r)
        EXPECT_NEAR(tb.data[i][static_cast<std::size_t>(r + c * n)], expect(r, c), 1e-10);
  }
  EXPECT_EQ(fused_step_exits(dev), (std::vector<int>{0, 0, 0, 1, 1}));
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
  TestBatch tb({48, 48}, 13);
  // Corrupt matrix 1 beyond the first panel: fails at step 1 (j=16).
  tb.data[1][static_cast<std::size_t>(20 + 20 * 48)] = -1e6;
  run_fused_to_completion(dev, tb, EtmMode::Aggressive, 16);
  EXPECT_EQ(tb.info[0], 0);
  EXPECT_EQ(tb.info[1], 21);  // 1-based global index of the bad pivot
  // The failing step still runs; the step after it sees the failure.
  EXPECT_EQ(fused_step_exits(dev), (std::vector<int>{0, 0, 1}));
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
  EXPECT_EQ(dev.timeline().records().back().grid_blocks, 1);
  EXPECT_EQ(dev.timeline().records().back().early_exits, 0);
  // A launch is a cost pass: every matrix and info is untouched.
  for (std::size_t i = 0; i < tb.n.size(); ++i)
    EXPECT_TRUE(same_bytes(tb.data[i], ref.data[i])) << "matrix " << i;
  EXPECT_EQ(tb.info, ref.info);
}

// ---------------------------------------------------------------------------
// potf2 panel kernel
// ---------------------------------------------------------------------------

/// The panel's launches are cost passes: one per inner step, named
/// vbatched_potf2_panel, and no matrix byte or info changes in Full mode.
TEST(Potf2Panel, CostPassLeavesMatricesUntouched) {
  auto dev = make_dev();
  TestBatch tb({50, 80, 20}, 19, 3);
  TestBatch ref = tb;
  Potf2PanelArgs args;
  args.n = tb.n;
  args.offset = 0;
  args.NB = 64;
  args.nb_inner = 16;
  args.info = tb.info;
  launch_potf2_panel<double>(dev, args);

  ASSERT_EQ(dev.timeline().size(), 4u);
  EXPECT_EQ(dev.timeline().count_with_prefix("vbatched_potf2_panel"), 4u);
  EXPECT_EQ(tb.info, ref.info);
  for (std::size_t i = 0; i < tb.n.size(); ++i)
    EXPECT_TRUE(same_bytes(tb.data[i], ref.data[i])) << "matrix " << i;
}

TEST(Potf2Panel, OffsetPastMatrixTriggersEtm) {
  auto dev = make_dev();
  TestBatch tb({16, 100}, 23);
  Potf2PanelArgs args;
  args.n = tb.n;
  args.offset = 64;
  args.NB = 64;
  args.nb_inner = 16;
  args.info = tb.info;
  launch_potf2_panel<double>(dev, args);
  // The panel is a loop of fused-step launches (§III-E1). Matrix 0 (n=16,
  // fully factorized before this offset) exits in every step; matrix 1
  // (remaining panel of 36) also exits once its internal steps run out.
  ASSERT_GE(dev.timeline().size(), 2u);
  EXPECT_EQ(dev.timeline().records().front().early_exits, 1);
  EXPECT_EQ(dev.timeline().records().back().early_exits, 2);
}

TEST(Potf2Panel, FailingPivotInSecondPanelReportsGlobalInfo) {
  auto dev = make_dev();
  TestBatch tb({100, 100, 100}, 37);
  // Final statuses handed in through info: matrix 1 fails at global column
  // 85, local column 20 of the panel at offset 64 (inner step 1); matrix 2
  // failed at column 30, in the panel before this one.
  tb.info = {0, 64 + 21, 30};
  Potf2PanelArgs args;
  args.n = tb.n;
  args.offset = 64;
  args.NB = 64;
  args.nb_inner = 16;
  args.info = tb.info;
  launch_potf2_panel<double>(dev, args);
  EXPECT_EQ(tb.info, (std::vector<int>{0, 64 + 21, 30}));  // read, never written
  // A block exits once 0 < info ≤ 64 + j: matrix 2 at every step, matrix 1
  // from inner step 2 (j = 32) on, after its failing step 1 ran; at step 3
  // every block is past its 36 remaining columns.
  const auto& recs = dev.timeline().records();
  ASSERT_EQ(recs.size(), 4u);
  EXPECT_EQ(recs[0].early_exits, 1);
  EXPECT_EQ(recs[1].early_exits, 1);
  EXPECT_EQ(recs[2].early_exits, 2);
  EXPECT_EQ(recs[3].early_exits, 3);
}

// ---------------------------------------------------------------------------
// vbatched gemm / syrk
// ---------------------------------------------------------------------------

TEST(GemmVbatched, MatchesReferencePerMatrix) {
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
  gemm_vbatched_numerics(args);

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
  syrk_vbatched_numerics(args);

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

/// The streamed syrk, like the vbatched grid, is a cost pass only: one
/// kernel per live matrix, the same live tiles and flops as the grid, and
/// no byte of C changes.
TEST(SyrkVbatched, StreamedIsCostOnlyAndMatchesGridFlops) {
  Rng rng(37);
  const std::vector<int> n{30, 0, 90}, k{24, 24, 24}, lda{30, 1, 90};
  std::vector<std::vector<double>> a, c;
  std::vector<double*> ap, cp;
  for (std::size_t i = 0; i < n.size(); ++i) {
    a.emplace_back(static_cast<std::size_t>(lda[i] * std::max(1, k[i])));
    c.emplace_back(static_cast<std::size_t>(lda[i] * std::max(1, n[i])));
    fill_general(rng, a.back().data(), lda[i], std::max(1, k[i]), lda[i]);
    fill_general(rng, c.back().data(), lda[i], std::max(1, n[i]), lda[i]);
    ap.push_back(a.back().data());
    cp.push_back(c.back().data());
  }
  const auto c_before = c;

  SyrkVbatchedArgs<double> args;
  args.uplo = Uplo::Lower;
  args.n = n;
  args.k = k;
  args.max_n = 90;
  args.alpha = -1.0;
  args.beta = 1.0;
  args.a = ap.data();
  args.lda = lda;
  args.c = cp.data();
  args.ldc = lda;

  auto grid = make_dev();
  launch_syrk_vbatched(grid, args);
  auto streamed = make_dev();
  launch_syrk_streamed(streamed, args, 8);
  EXPECT_EQ(c, c_before);
  EXPECT_EQ(streamed.timeline().count_with_prefix("streamed_syrk"), 2u);
  auto total_flops = [](const sim::Device& dev) {
    double f = 0.0;
    for (const auto& r : dev.timeline().records()) f += r.flops;
    return f;
  };
  EXPECT_DOUBLE_EQ(total_flops(streamed), total_flops(grid));
  EXPECT_GT(total_flops(grid), 0.0);
}

/// The syrk numerics pass against the strip decomposition applied to each
/// matrix by hand: per kSyrkStripCols-wide column strip, one blas::syrk of
/// the diagonal block plus one blas::gemm of the rectangle below (Lower) or
/// above (Upper) it. Memcmp-equal over the whole buffers, so the other
/// triangle and the lda/ldc padding rows stay untouched, at 1 and 4
/// workers. Ragged n (0, 1, 65 and 449
/// among them) and a k = 0 entry, which beta ≠ 1 must still scale.
template <typename T>
class SyrkVbatchedStrips : public ::testing::Test {};
using KernelPrecisions =
    ::testing::Types<float, double, std::complex<float>, std::complex<double>>;
TYPED_TEST_SUITE(SyrkVbatchedStrips, KernelPrecisions);

TYPED_TEST(SyrkVbatchedStrips, MatchStripDecomposition) {
  using T = TypeParam;
  const std::vector<int> n{65, 0, 449, 1, 30, 128, 200}, k{64, 64, 64, 64, 0, 16, 64};
  const int pad = 3;
  const T alpha = T(-1), beta = T(0.5);
  for (auto [uplo, trans] : {std::pair{Uplo::Lower, Trans::NoTrans},
                             std::pair{Uplo::Upper, Trans::Trans}}) {
    const bool notrans = trans == Trans::NoTrans;
    Rng rng(43);
    std::vector<std::vector<T>> abuf, corig;
    std::vector<int> lda, ldc;
    for (std::size_t i = 0; i < n.size(); ++i) {
      const int ar = notrans ? n[i] : k[i], ac = notrans ? k[i] : n[i];
      lda.push_back(ar + pad);
      ldc.push_back(n[i] + pad);
      abuf.emplace_back(static_cast<std::size_t>(lda.back() * std::max(ac, 1)));
      corig.emplace_back(static_cast<std::size_t>(ldc.back() * std::max(n[i], 1)));
      fill_general<T>(rng, abuf.back().data(), lda.back(), std::max(ac, 1), lda.back());
      fill_general<T>(rng, corig.back().data(), ldc.back(), std::max(n[i], 1), ldc.back());
    }

    auto expect = corig;
    for (std::size_t i = 0; i < n.size(); ++i) {
      const index_t ni = n[i], ki = k[i];
      auto rows_of = [&](index_t r, index_t len) {
        return notrans ? ConstMatrixView<T>(abuf[i].data() + r, len, ki, lda[i])
                       : ConstMatrixView<T>(abuf[i].data() + r * lda[i], ki, len, lda[i]);
      };
      MatrixView<T> c(expect[i].data(), ni, ni, ldc[i]);
      const Trans ta = notrans ? Trans::NoTrans : Trans::Trans;
      const Trans tb = notrans ? Trans::Trans : Trans::NoTrans;
      for (index_t c0 = 0; c0 < ni; c0 += kSyrkStripCols) {
        const index_t w = std::min<index_t>(kSyrkStripCols, ni - c0);
        blas::syrk<T>(uplo, trans, alpha, rows_of(c0, w), beta, c.block(c0, c0, w, w));
        if (uplo == Uplo::Lower && ni - c0 - w > 0)
          blas::gemm<T>(ta, tb, alpha, rows_of(c0 + w, ni - c0 - w), rows_of(c0, w), beta,
                        c.block(c0 + w, c0, ni - c0 - w, w));
        if (uplo == Uplo::Upper && c0 > 0)
          blas::gemm<T>(ta, tb, alpha, rows_of(0, c0), rows_of(c0, w), beta,
                        c.block(0, c0, c0, w));
      }
    }

    for (unsigned threads : {1u, 4u}) {
      util::set_host_threads(threads);
      auto cbuf = corig;
      std::vector<T*> ap, cp;
      for (std::size_t i = 0; i < n.size(); ++i) {
        ap.push_back(abuf[i].data());
        cp.push_back(cbuf[i].data());
      }
      SyrkVbatchedArgs<T> args;
      args.uplo = uplo;
      args.trans = trans;
      args.n = n;
      args.k = k;
      args.max_n = 449;
      args.alpha = alpha;
      args.beta = beta;
      args.a = ap.data();
      args.lda = lda;
      args.c = cp.data();
      args.ldc = ldc;
      syrk_vbatched_numerics(args);
      for (std::size_t i = 0; i < n.size(); ++i)
        EXPECT_TRUE(same_bytes(cbuf[i], expect[i]))
            << to_string(uplo) << ", " << threads << " workers, matrix " << i
            << " (n=" << n[i] << ", k=" << k[i] << ")";
    }
    util::set_host_threads(0);
  }
}

// ---------------------------------------------------------------------------
// trtri + composite trsm
// ---------------------------------------------------------------------------

/// The composite solve's cost passes, which read only the extents: one
/// trtri launch, one sweep per 32-wide diagonal block, ragged ib and
/// inactive matrices (m = 0 or ib = 0) among them.
template <typename T>
void expect_trsm_launches(const char* type) {
  const std::vector<int> m{50, 90, 0, 33, 1, 70, 129, 64, 600};
  const std::vector<int> ib{64, 64, 64, 17, 1, 0, 40, 63, 64};
  auto dev = make_dev();
  TrsmVbatchedArgs args;
  args.ib = ib;
  args.m = m;
  args.max_ib = 64;
  args.max_m = 600;
  launch_trsm_vbatched<T>(dev, args);

  // The paper's launch sequence: one trtri, one sweep per 32-wide block.
  ASSERT_EQ(dev.timeline().size(), 3u) << type;
  EXPECT_EQ(dev.timeline().count_with_prefix("vbatched_trsm_sweep"), 2u) << type;
  // The trtri costs two 32-wide blocks per matrix; a block starting at or
  // past ib exits, a live one costs trtri of its order.
  const auto& trtri = dev.timeline().records()[0];
  EXPECT_EQ(trtri.name, "vbatched_trtri_diag");
  EXPECT_EQ(trtri.grid_blocks, 18);
  EXPECT_EQ(trtri.early_exits, 4) << type;  // ib = 17 and 1: the second block; ib = 0: both
  const double want_flops = 8 * flops::trtri(32) + flops::trtri(17) + flops::trtri(1) +
                            2 * flops::trtri(32) + flops::trtri(8) + flops::trtri(31);
  EXPECT_DOUBLE_EQ(trtri.flops, want_flops) << type;
  // The second sweep covers columns 32…63, one block per 64-row strip: live
  // are the strips of m = 50, 90, 129, 64 and 600 (ib = 17, 1, 0 end
  // before column 32).
  const auto& sweep = dev.timeline().records()[2];
  EXPECT_EQ(sweep.grid_blocks, 9 * 10);
  EXPECT_EQ(sweep.early_exits, 9 * 10 - (1 + 2 + 3 + 1 + 10)) << type;
}

TEST(TrsmVbatched, CostPassLaunchesTrtriAndOneSweepPerBlock) {
  expect_trsm_launches<float>("s");
  expect_trsm_launches<double>("d");
  expect_trsm_launches<std::complex<float>>("c");
  expect_trsm_launches<std::complex<double>>("z");
}

// ---------------------------------------------------------------------------
// General triangular launch (behind trsm_vbatched / trmm_vbatched)
// ---------------------------------------------------------------------------

/// A ragged batch for the general launch: m×n operands (an empty one and
/// ones wider than a 16-wide strip among them; 48 blocks on either side, so
/// the numerics pass clears the parallel grain), ldb = m + 3 and lda = ka + 2
/// with the padding filled, so a stray write shows.
template <typename T>
struct TriangularBatch {
  std::vector<int> m{37, 0, 5, 70, 16, 1, 90, 24};
  std::vector<int> n{20, 8, 33, 17, 1, 48, 12, 90};
  std::vector<int> lda, ldb;
  std::vector<std::vector<T>> tri, b;

  explicit TriangularBatch(Side side) {
    Rng rng(71);
    for (std::size_t i = 0; i < m.size(); ++i) {
      const int ka = std::max(1, side == Side::Left ? m[i] : n[i]);
      lda.push_back(ka + 2);
      tri.emplace_back(static_cast<std::size_t>((ka + 2) * ka));
      fill_general<T>(rng, tri.back().data(), ka + 2, ka, ka + 2);
      for (int d = 0; d < ka; ++d)
        tri.back()[static_cast<std::size_t>(d * (ka + 3))] = T(3 + d % 5);
      ldb.push_back(m[i] + 3);
      b.emplace_back(static_cast<std::size_t>((m[i] + 3) * std::max(1, n[i])));
      fill_general<T>(rng, b.back().data(), m[i] + 3, std::max(1, n[i]), m[i] + 3);
    }
  }

  /// Runs the general launch's numerics over `bufs` (a copy of b).
  void numerics(bool solve, Side side, Uplo uplo, Trans trans, Diag diag, T alpha,
                std::vector<std::vector<T>>& bufs) {
    std::vector<T*> ap, bp;
    for (std::size_t i = 0; i < m.size(); ++i) {
      ap.push_back(tri[i].data());
      bp.push_back(bufs[i].data());
    }
    TriangularVbatchedArgs<T> args;
    args.side = side;
    args.uplo = uplo;
    args.trans = trans;
    args.diag = diag;
    args.alpha = alpha;
    args.a = ap.data();
    args.lda = lda;
    args.b = bp.data();
    args.ldb = ldb;
    args.m = m;
    args.n = n;
    args.max_m = *std::max_element(m.begin(), m.end());
    args.max_n = *std::max_element(n.begin(), n.end());
    if (solve) {
      trsm_general_numerics(args);
    } else {
      trmm_general_numerics(args);
    }
  }
};

template <typename T>
class TriangularGeneral : public ::testing::Test {};
TYPED_TEST_SUITE(TriangularGeneral, KernelPrecisions);

/// Full mode against one host blas::trsm / blas::trmm per 16-wide strip of
/// B's free dimension (columns for Left, rows for Right), memcmp-equal over
/// the whole buffers, at 1 and 4 workers, for every combination.
TYPED_TEST(TriangularGeneral, FullMatchesPerStripBlas) {
  using T = TypeParam;
  const T alpha = T(-1.25);
  for (Side side : {Side::Left, Side::Right}) {
    TriangularBatch<T> tb(side);
    for (bool solve : {true, false})
      for (Uplo uplo : {Uplo::Lower, Uplo::Upper})
        for (Trans trans : {Trans::NoTrans, Trans::Trans})
          for (Diag diag : {Diag::NonUnit, Diag::Unit}) {
            auto want = tb.b;
            for (std::size_t i = 0; i < tb.m.size(); ++i) {
              const index_t mi = tb.m[i], ni = tb.n[i];
              const index_t ka = side == Side::Left ? mi : ni;
              const index_t free_dim = side == Side::Left ? ni : mi;
              if (mi == 0 || ni == 0) continue;
              ConstMatrixView<T> a(tb.tri[i].data(), ka, ka, tb.lda[i]);
              for (index_t f0 = 0; f0 < free_dim; f0 += 16) {
                const index_t fw = std::min<index_t>(16, free_dim - f0);
                const index_t ld = tb.ldb[i];
                MatrixView<T> strip = side == Side::Left
                                          ? MatrixView<T>(want[i].data() + f0 * ld, mi, fw, ld)
                                          : MatrixView<T>(want[i].data() + f0, fw, ni, ld);
                if (solve) blas::trsm<T>(side, uplo, trans, diag, alpha, a, strip);
                else blas::trmm<T>(side, uplo, trans, diag, alpha, a, strip);
              }
            }
            for (unsigned threads : {1u, 4u}) {
              util::set_host_threads(threads);
              auto got = tb.b;
              tb.numerics(solve, side, uplo, trans, diag, alpha, got);
              for (std::size_t i = 0; i < got.size(); ++i)
                ASSERT_TRUE(same_bytes(want[i], got[i]))
                    << (solve ? "trsm " : "trmm ") << to_string(side) << " " << to_string(uplo)
                    << " " << to_string(trans) << " " << to_string(diag) << ", " << threads
                    << " workers, matrix " << i;
            }
          }
  }
  util::set_host_threads(0);
}

/// The front's launches read only sizes: a TimingOnly queue records the
/// Full queue's timeline, seconds and records bit for bit.
TYPED_TEST(TriangularGeneral, TimingOnlyMatchesFull) {
  using T = TypeParam;
  auto bits = [](double x) {
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
  };
  for (Side side : {Side::Left, Side::Right}) {
    TriangularBatch<T> tb(side);
    std::vector<int> ka;
    for (std::size_t i = 0; i < tb.m.size(); ++i)
      ka.push_back(side == Side::Left ? tb.m[i] : tb.n[i]);
    for (bool solve : {true, false}) {
      Queue full(sim::DeviceSpec::k40c(), sim::ExecMode::Full);
      Queue timing(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
      double seconds[2];
      for (Queue* q : {&full, &timing}) {
        Batch<T> a(*q, ka, 2);
        RectBatch<T> b(*q, tb.m, tb.n);
        if (q->full()) {
          for (int i = 0; i < a.count(); ++i) {
            const auto k = static_cast<std::size_t>(i);
            for (int c = 0; c < ka[k]; ++c)
              for (int r = 0; r < ka[k]; ++r)
                a.matrix(i)(r, c) = tb.tri[k][static_cast<std::size_t>(r + c * tb.lda[k])];
            for (int c = 0; c < tb.n[k]; ++c)
              for (int r = 0; r < tb.m[k]; ++r)
                b.matrix(i)(r, c) = tb.b[k][static_cast<std::size_t>(r + c * tb.ldb[k])];
          }
        }
        const auto run = solve ? trsm_vbatched<T> : trmm_vbatched<T>;
        seconds[q == &full ? 0 : 1] =
            run(*q, side, Uplo::Lower, Trans::Trans, Diag::NonUnit, T(1), a, b).seconds;
      }
      EXPECT_EQ(bits(seconds[0]), bits(seconds[1]));
      EXPECT_GT(seconds[0], 0.0);
      const auto& rf = full.device().timeline().records();
      const auto& rt = timing.device().timeline().records();
      ASSERT_EQ(rf.size(), rt.size());
      EXPECT_EQ(rf.back().name, solve ? "vbatched_trsm_general" : "vbatched_trmm_general");
      for (std::size_t r = 0; r < rf.size(); ++r) {
        const sim::KernelRecord& x = rf[r];
        const sim::KernelRecord& y = rt[r];
        EXPECT_EQ(x.name, y.name);
        EXPECT_EQ(bits(x.start), bits(y.start));
        EXPECT_EQ(bits(x.end), bits(y.end));
        EXPECT_EQ(bits(x.flops), bits(y.flops));
        EXPECT_EQ(bits(x.bytes), bits(y.bytes));
        EXPECT_EQ(x.grid_blocks, y.grid_blocks);
        EXPECT_EQ(x.block_threads, y.block_threads);
        EXPECT_EQ(x.shared_mem, y.shared_mem);
        EXPECT_EQ(x.resident_per_sm, y.resident_per_sm);
        EXPECT_EQ(x.early_exits, y.early_exits);
        EXPECT_EQ(x.stream, y.stream);
        EXPECT_EQ(x.fault, y.fault);
      }
    }
  }
}

}  // namespace
