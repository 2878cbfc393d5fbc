// wallclock_blas — host wall-clock benchmark for the BLAS micro-kernel
// engine (docs/blas.md).
//
// Part 1 measures Gflop/s for the level-3 kernels the library's hot paths
// use — gemm NN, gemm NT (the fused-step rank-k shape), syrk and trsm —
// over the paper's size range, three ways on identical inputs:
//
//   ref     the *_ref loops (micro::Dispatch::ForceRef);
//   scalar  the packed engine pinned to Isa::Scalar with the default
//           profile — exactly the pre-vectorization engine;
//   blk     the packed engine under the active ISA and profile.
//
// Two regression gates ride on the sweep (evaluated only when the bearing
// sizes are in --sizes, so trimmed runs stay cheap):
//   * NT vector gate — on a vector ISA, blk NT-gemm must be >= 2x the
//     scalar engine at every n in {128, 256, 384};
//   * NN n=512 gate — blk NN at 512 must hold >= 0.9x its n=384 rate (the
//     balanced NC split removed the historical tail dip; this keeps it out),
//     timed as interleaved calls of the two sizes in samples spread over
//     the run, each size's minimum.
//
// Part 2 measures the end-to-end Full-mode wall clock of a vbatched
// Cholesky run with the engine disabled (ForceRef) and enabled (Auto, the
// production policy) for every requested size distribution, and re-checks
// the factorization residual gate ‖A − L·Lᵀ‖_F / (n·‖A‖_F) on every matrix
// in both configurations.
//
// Part 3 is the potf2_batch series: 1000 matrices with n uniform in
// [1, 32], bucketed by order as the fused step's numerics pass buckets
// its diagonal tiles, factored by blas::potf2_batch (one matrix per SIMD
// lane) and by looped blas::potf2 on identical inputs. Two gates:
//   * bit gate — factors and info memcmp-identical to the loop, any ISA;
//   * lane gate — on a vector ISA, potf2_batch >= 1.5x the loop's rate.
//
// Part 4 is the rank-64 update series: the separated path's trailing
// update C -= A·Aᵀ (lower, A m×64) at m = 128/256/448, two ways on
// identical inputs:
//   tile  the per-tile loop the syrk kernel used to issue: one syrk per
//         64×64 diagonal tile, as the staged blocked syrk computed it
//         before the pack-once path (32-wide blocks, each one gemm into a
//         staging square whose lower triangle is written back, plus the
//         gemm rectangles between them), and one blas::gemm per tile below;
//   pass  the kernel's numerics pass: one pack-once blas::syrk per
//         kSyrkStripCols-wide column strip plus one blas::gemm below it.
// Both are timed as pairs, back to back (order alternating by round), and
// the gate reads the median of the rounds' ratios of the summed times:
//   * update gate — on a vector ISA, pass >= 1.2x tile.
//
// Part 5 is the panel-solve series: the separated path's panel solve
// X·L11ᵀ = B (Right/Lower/Trans, B m×64) at m = 128/256/448, two ways on
// identical inputs:
//   ref    blas::trsm's recursion as it ran before the lane base case: one
//          split at order 64, trsm_ref on each 32-order half and the same
//          blas::gemm update between them;
//   lanes  blas::trsm, whose base cases run on the SIMD lanes.
// Paired rounds as in Part 4, two gates:
//   * bit gate — memcmp-equal after one solve, any ISA;
//   * solve gate — on a vector ISA, lanes >= 1.5x ref.
//
// Part 6 is the potrf series: blas::potrf, the recursive Cholesky, against
// the blocked left-looking NB = 64 loop it replaced (kept here as the
// baseline), on one SPD matrix per order n = 64…512. Paired rounds as in
// Part 4, two gates:
//   * residual gate — both factors' residuals below 1e-12;
//   * potrf gate — under AVX2 or AVX-512, summed over n >= 128, recursive
//     >= 1.1x blocked (1.18-1.21x in three runs on a shared 4-vCPU AVX2
//     host; the rest is margin). Scalar and SSE2 read 1.06-1.07x there,
//     too close to gate, so they only report.
//
// Part 7 is the potf2 group series: the diagonal tiles of 200 launches
// shaped like replay_storm's (1–16 matrices of orders up to 128, fused nb
// 32), grouped as the fused step's numerics pass groups them — whole
// same-order groups, then the pooled rests, partial groups included — and
// factored four ways on identical inputs: looped potf2, the lanes for
// whole groups only, every group forced onto the lanes, and
// blas::potf2_batch with its lanes-or-scalar rule (which this series
// fitted). s and d, paired rounds as in Part 4, two gates:
//   * bit gate — every way memcmp-identical to the loop, any ISA;
//   * group gate — under AVX2, the rule >= 1.3x the loop (s and d),
//     >= 1.1x whole groups only for float and >= 0.9x for double. In runs
//     on a shared 4-vCPU AVX2 host the rule read 1.6-2.4x the loop, and
//     against whole groups 1.28-1.45x (s) but 1.01-1.45x (d): at W = 4
//     the rests are small and fewer groups are partial, so double is only
//     held to not falling behind the earlier contract.
//
// Part 8 is the payload fill series: fill_spd (payload rule v2,
// util/payload.hpp) for float and double at n = 8, 32 and 128, under
// Isa::Scalar (the portable path) and the active ISA, in ns per element.
// Paired rounds as in Part 4, two gates:
//   * bit gate — the two fills memcmp-equal, any ISA;
//   * fill gate — under AVX2 or AVX-512, the dispatched fill >= 2x the
//     scalar one (the median over rounds of the summed times' ratio).
//
// Output: a human-readable table on stdout plus one JSON line appended to
// BENCH_blas.json (override with --out). The run fails (non-zero exit) on a
// numerics problem or on a failed regression gate.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "gate_common.hpp"
#include "vbatch/blas/blas.hpp"
#include "vbatch/blas/microkernel.hpp"
#include "vbatch/blas/potf2_lanes.hpp"
#include "vbatch/core/autotune.hpp"
#include "vbatch/core/potrf_vbatched.hpp"
#include "vbatch/core/size_dist.hpp"
#include "vbatch/kernels/gemm_vbatched.hpp"
#include "vbatch/util/flops.hpp"
#include "vbatch/util/rng.hpp"

namespace {

using namespace vbatch;

struct Options {
  std::vector<int> sizes{8, 16, 32, 64, 96, 128, 192, 256, 384, 512};
  int batch = 300;
  int nmax = 384;
  std::vector<SizeDist> dists{SizeDist::Uniform};
  int reps = 2;
  std::uint64_t seed = 2016;
  std::string out = "BENCH_blas.json";
  bool tune = false;
};

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Times `fn` (which must redo the full operation each call) in windows of
// enough repetitions to span ~5e7 flops, taking windows until ~20 ms have
// passed (at least one); returns the best window's seconds per call. A cell
// that runs in a few milliseconds thus gets several samples per pass.
template <typename F>
double time_op(double flops, F&& fn) {
  constexpr double kMinSeconds = 0.02;
  const int reps = std::clamp(static_cast<int>(5e7 / std::max(flops, 1.0)), 1, 20000);
  const double start = now_seconds();
  double best = 1e300;
  for (;;) {
    const double t0 = now_seconds();
    for (int r = 0; r < reps; ++r) fn();
    const double t1 = now_seconds();
    best = std::min(best, (t1 - t0) / reps);
    if (t1 - start >= kMinSeconds) return best;
  }
}

struct KernelSeries {
  std::vector<double> ref_gflops;
  std::vector<double> scalar_gflops;  ///< packed engine, Isa::Scalar (PR 2 engine)
  std::vector<double> blk_gflops;     ///< packed engine, active ISA + profile
};

constexpr int kPins = 3;     // ref, scalar, blk (KernelSeries member order)
constexpr int kKernels = 4;  // gemm NN, gemm NT, syrk, trsm

/// One sweep size: its operands, built once so every pass times the same
/// inputs, and each (pin, kernel) cell's best seconds per call so far.
struct SizeCase {
  index_t n = 0;
  std::vector<double> a, b, c, tri, rhs0;
  double best[kPins][kKernels];
};

/// One timing of all four kernels on `sc` under the current pins; each
/// cell of `best` keeps its minimum.
void measure(SizeCase& sc, double (&best)[kKernels]) {
  const index_t n = sc.n;
  ConstMatrixView<double> av(sc.a.data(), n, n, n);
  ConstMatrixView<double> bv(sc.b.data(), n, n, n);
  MatrixView<double> cv(sc.c.data(), n, n, n);
  ConstMatrixView<double> triv(sc.tri.data(), n, n, n);
  const double t[kKernels] = {
      time_op(flops::gemm(n, n, n),
              [&] { blas::gemm<double>(Trans::NoTrans, Trans::NoTrans, 1.0, av, bv, 0.0, cv); }),
      time_op(flops::gemm(n, n, n),
              [&] { blas::gemm<double>(Trans::NoTrans, Trans::Trans, 1.0, av, bv, 0.0, cv); }),
      time_op(flops::syrk(n, n),
              [&] { blas::syrk<double>(Uplo::Lower, Trans::NoTrans, 1.0, av, 0.0, cv); }),
      time_op(flops::trsm(n, n, false),
              [&] {
                sc.c = sc.rhs0;
                blas::trsm<double>(Side::Right, Uplo::Lower, Trans::Trans, Diag::NonUnit, 1.0,
                                   triv, cv);
              }),
  };
  for (int k = 0; k < kKernels; ++k) best[k] = std::min(best[k], t[k]);
}

struct E2eResult {
  double wall_seconds = 0.0;
  double max_residual = 0.0;
  bool info_clean = true;
};

E2eResult run_e2e(const Options& o, const std::vector<int>& sizes) {
  Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::Full);
  Batch<double> batch(q, sizes);
  E2eResult r;
  r.wall_seconds = 1e300;
  std::vector<std::vector<double>> originals;
  for (int rep = 0; rep < o.reps; ++rep) {
    Rng rng(o.seed + 1);
    batch.fill_spd(rng);
    if (rep == 0) {
      originals.clear();
      for (int i = 0; i < batch.count(); ++i) originals.push_back(batch.copy_matrix(i));
    }
    const double t0 = now_seconds();
    potrf_vbatched<double>(q, Uplo::Lower, batch);
    r.wall_seconds = std::min(r.wall_seconds, now_seconds() - t0);
  }
  for (int info : batch.info())
    if (info != 0) r.info_clean = false;
  for (int i = 0; i < batch.count(); ++i) {
    const int n = sizes[static_cast<std::size_t>(i)];
    if (n == 0) continue;
    const auto factor = batch.copy_matrix(i);
    const auto& orig = originals[static_cast<std::size_t>(i)];
    const index_t ld = static_cast<index_t>(factor.size()) / n;
    r.max_residual = std::max(
        r.max_residual,
        blas::potrf_residual<double>(Uplo::Lower,
                                     ConstMatrixView<double>(orig.data(), n, n, ld),
                                     ConstMatrixView<double>(factor.data(), n, n, ld)));
  }
  return r;
}

struct Potf2BatchResult {
  double loop_gflops = 0.0;   ///< looped blas::potf2
  double batch_gflops = 0.0;  ///< blas::potf2_batch
  bool bits_ok = true;
};

/// Part 3: `count` SPD matrices of orders uniform in [1, max_n], sorted by
/// order; each timing restores the inputs, then factors the whole set once
/// (looped potf2, or potf2_batch per order bucket). Best of `reps` passes.
Potf2BatchResult run_potf2_batch(const Options& o, int count, int max_n) {
  Rng rng(o.seed + 2);
  std::vector<index_t> order(static_cast<std::size_t>(count));
  for (index_t& n : order) n = rng.uniform_int(1, max_n);
  std::sort(order.begin(), order.end());
  std::vector<std::vector<double>> orig(order.size()), work(order.size());
  double flops = 0.0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    orig[i].resize(static_cast<std::size_t>(order[i] * order[i]));
    fill_spd(rng, orig[i].data(), order[i], order[i]);
    work[i] = orig[i];
    flops += flops::potrf(order[i]);
  }
  std::vector<MatrixView<double>> views;
  for (std::size_t i = 0; i < order.size(); ++i)
    views.emplace_back(work[i].data(), order[i], order[i], order[i]);
  std::vector<int> info(order.size());

  auto loop = [&] {
    for (std::size_t i = 0; i < views.size(); ++i)
      info[i] = blas::potf2<double>(Uplo::Lower, views[i]);
  };
  auto batched = [&] {
    const std::span<const MatrixView<double>> all(views);
    for (std::size_t b = 0, e = 0; b < views.size(); b = e) {
      while (e < views.size() && order[e] == order[b]) ++e;
      blas::potf2_batch<double>(Uplo::Lower, all.subspan(b, e - b),
                                std::span<int>(info).subspan(b, e - b));
    }
  };
  auto restore = [&] {
    for (std::size_t i = 0; i < work.size(); ++i) work[i] = orig[i];
  };
  // ~20 ms of factoring per cell and pass, one restore before each call.
  auto best_seconds = [&](auto&& factor) {
    double best = 1e300, spent = 0.0;
    while (spent < 0.02) {
      restore();
      const double t0 = now_seconds();
      factor();
      const double dt = now_seconds() - t0;
      best = std::min(best, dt);
      spent += dt;
    }
    return best;
  };

  Potf2BatchResult r;
  restore();
  loop();
  const auto want = work;
  const auto want_info = info;
  restore();
  batched();
  for (std::size_t i = 0; i < work.size(); ++i)
    r.bits_ok = r.bits_ok && info[i] == want_info[i] &&
                std::memcmp(work[i].data(), want[i].data(), work[i].size() * sizeof(double)) == 0;

  double loop_s = 1e300, batch_s = 1e300;
  for (int pass = 0; pass < o.reps; ++pass) {
    loop_s = std::min(loop_s, best_seconds(loop));
    batch_s = std::min(batch_s, best_seconds(batched));
  }
  r.loop_gflops = flops / loop_s * 1e-9;
  r.batch_gflops = flops / batch_s * 1e-9;
  return r;
}

/// Part 4: one rank-64 lower update C -= A·Aᵀ, its operands and both ways
/// of computing it.
struct UpdateCase {
  static constexpr index_t kRank = 64, kTile = 64, kStagedBlock = 32;
  index_t m = 0;
  std::vector<double> a, c, stage;

  UpdateCase(Rng& rng, index_t rows) : m(rows), a(static_cast<std::size_t>(rows * kRank)),
                                       c(static_cast<std::size_t>(rows * rows)) {
    fill_general(rng, a.data(), m, kRank, m);
    fill_general(rng, c.data(), m, m, m);
  }
  [[nodiscard]] ConstMatrixView<double> rows(index_t r, index_t len) const {
    return {a.data() + r, len, kRank, m};
  }
  [[nodiscard]] double flops() const { return flops::syrk(m, kRank); }

  /// One diagonal tile C(r, r) -= A_r·A_rᵀ as the staged blocked syrk did
  /// it: per kStagedBlock-wide block, a gemm into the staging square and
  /// its lower triangle added back, then the gemm rectangle below.
  void staged_syrk(index_t r, index_t n) {
    stage.resize(static_cast<std::size_t>(kStagedBlock * kStagedBlock));
    MatrixView<double> cv(c.data(), m, m, m);
    for (index_t j = 0; j < n; j += kStagedBlock) {
      const index_t jb = std::min(kStagedBlock, n - j);
      MatrixView<double> sq(stage.data(), jb, jb, jb);
      blas::gemm<double>(Trans::NoTrans, Trans::Trans, -1.0, rows(r + j, jb), rows(r + j, jb),
                         0.0, sq);
      for (index_t q = 0; q < jb; ++q)
        for (index_t p = q; p < jb; ++p) cv(r + j + p, r + j + q) += sq(p, q);
      if (n - j - jb > 0)
        blas::gemm<double>(Trans::NoTrans, Trans::Trans, -1.0, rows(r + j + jb, n - j - jb),
                           rows(r + j, jb), 1.0, cv.block(r + j + jb, r + j, n - j - jb, jb));
    }
  }

  /// The per-tile loop: the 64-tiles of the lower triangle, as the syrk
  /// kernel's blocks issued them.
  void tile() {
    MatrixView<double> cv(c.data(), m, m, m);
    for (index_t c0 = 0; c0 < m; c0 += kTile) {
      const index_t tn = std::min(kTile, m - c0);
      staged_syrk(c0, tn);
      for (index_t r0 = c0 + kTile; r0 < m; r0 += kTile) {
        const index_t tm = std::min(kTile, m - r0);
        blas::gemm<double>(Trans::NoTrans, Trans::Trans, -1.0, rows(r0, tm), rows(c0, tn), 1.0,
                           cv.block(r0, c0, tm, tn));
      }
    }
  }

  /// The numerics pass: column strips of kSyrkStripCols.
  void pass() {
    MatrixView<double> cv(c.data(), m, m, m);
    for (index_t c0 = 0; c0 < m; c0 += kernels::kSyrkStripCols) {
      const index_t w = std::min<index_t>(kernels::kSyrkStripCols, m - c0);
      blas::syrk<double>(Uplo::Lower, Trans::NoTrans, -1.0, rows(c0, w), 1.0,
                         cv.block(c0, c0, w, w));
      if (m - c0 - w > 0)
        blas::gemm<double>(Trans::NoTrans, Trans::Trans, -1.0, rows(c0 + w, m - c0 - w),
                           rows(c0, w), 1.0, cv.block(c0 + w, c0, m - c0 - w, w));
    }
  }
};

struct UpdateResult {
  std::vector<int> m;
  std::vector<double> tile_gflops, pass_gflops;  ///< best of the rounds, per m
  double ratio = 0.0;       ///< median over rounds of Σ tile time / Σ pass time
  double max_diff = 0.0;    ///< max |tile − pass| / max |C| after one update
};

UpdateResult run_rank64_update(const Options& o) {
  Rng rng(o.seed + 3);
  std::vector<UpdateCase> cases;
  for (index_t m : {128, 256, 448}) cases.emplace_back(rng, m);

  UpdateResult r;
  for (UpdateCase& uc : cases) {
    UpdateCase other = uc;
    uc.tile();
    other.pass();
    double diff = 0.0, scale = 1.0;
    for (index_t j = 0; j < uc.m; ++j)
      for (index_t i = j; i < uc.m; ++i) {
        const std::size_t at = static_cast<std::size_t>(i + j * uc.m);
        diff = std::max(diff, std::abs(uc.c[at] - other.c[at]));
        scale = std::max(scale, std::abs(uc.c[at]));
      }
    r.max_diff = std::max(r.max_diff, diff / scale);
  }

  constexpr int kRounds = 15;
  std::vector<double> best_tile(cases.size(), 1e300), best_pass(cases.size(), 1e300);
  std::vector<double> ratios;
  for (int round = 0; round < kRounds; ++round) {
    double tile_s = 0.0, pass_s = 0.0;
    for (std::size_t x = 0; x < cases.size(); ++x) {
      UpdateCase& uc = cases[x];
      double t = 0.0, p = 0.0;
      if (round % 2 == 0) {
        t = time_op(uc.flops(), [&] { uc.tile(); });
        p = time_op(uc.flops(), [&] { uc.pass(); });
      } else {
        p = time_op(uc.flops(), [&] { uc.pass(); });
        t = time_op(uc.flops(), [&] { uc.tile(); });
      }
      best_tile[x] = std::min(best_tile[x], t);
      best_pass[x] = std::min(best_pass[x], p);
      tile_s += t;
      pass_s += p;
    }
    ratios.push_back(tile_s / pass_s);
  }
  std::nth_element(ratios.begin(), ratios.begin() + kRounds / 2, ratios.end());
  r.ratio = ratios[kRounds / 2];
  for (std::size_t x = 0; x < cases.size(); ++x) {
    r.m.push_back(static_cast<int>(cases[x].m));
    r.tile_gflops.push_back(cases[x].flops() / best_tile[x] * 1e-9);
    r.pass_gflops.push_back(cases[x].flops() / best_pass[x] * 1e-9);
  }
  return r;
}

/// Part 5: one m×64 panel solve X·L11ᵀ = B, its operands and both ways of
/// computing it. Each solve restores B first, so repeated solves time the
/// same numbers.
struct SolveCase {
  static constexpr index_t kOrder = 64, kHalf = 32;
  index_t m = 0;
  std::vector<double> l, b0, b;

  SolveCase(Rng& rng, index_t rows)
      : m(rows), l(static_cast<std::size_t>(kOrder * kOrder)),
        b0(static_cast<std::size_t>(rows * kOrder)) {
    fill_general(rng, l.data(), kOrder, kOrder, kOrder);
    for (index_t d = 0; d < kOrder; ++d)
      l[static_cast<std::size_t>(d * (kOrder + 1))] = 4.0 + static_cast<double>(d);
    fill_general(rng, b0.data(), m, kOrder, m);
    b = b0;
  }
  [[nodiscard]] ConstMatrixView<double> tri() const { return {l.data(), kOrder, kOrder, kOrder}; }
  [[nodiscard]] MatrixView<double> x() { return {b.data(), m, kOrder, m}; }
  [[nodiscard]] double flops() const { return flops::trsm(m, kOrder, false); }

  /// The recursion with trsm_ref base cases.
  void ref() {
    b = b0;
    const auto a = tri();
    const auto x1 = x().block(0, 0, m, kHalf), x2 = x().block(0, kHalf, m, kOrder - kHalf);
    blas::trsm_ref<double>(Side::Right, Uplo::Lower, Trans::Trans, Diag::NonUnit, 1.0,
                           a.block(0, 0, kHalf, kHalf), x1);
    blas::gemm<double>(Trans::NoTrans, Trans::Trans, -1.0, x1,
                       a.block(kHalf, 0, kOrder - kHalf, kHalf), 1.0, x2);
    blas::trsm_ref<double>(Side::Right, Uplo::Lower, Trans::Trans, Diag::NonUnit, 1.0,
                           a.block(kHalf, kHalf, kOrder - kHalf, kOrder - kHalf), x2);
  }

  void lanes() {
    b = b0;
    blas::trsm<double>(Side::Right, Uplo::Lower, Trans::Trans, Diag::NonUnit, 1.0, tri(), x());
  }
};

struct SolveResult {
  std::vector<int> m;
  std::vector<double> ref_gflops, lanes_gflops;  ///< best of the rounds, per m
  double ratio = 0.0;  ///< median over rounds of Σ ref time / Σ lanes time
  bool bits_ok = true;
};

SolveResult run_panel_solve(const Options& o) {
  Rng rng(o.seed + 4);
  std::vector<SolveCase> cases;
  for (index_t m : {128, 256, 448}) cases.emplace_back(rng, m);

  SolveResult r;
  for (SolveCase& sc : cases) {
    sc.ref();
    const std::vector<double> want = sc.b;
    sc.lanes();
    if (std::memcmp(want.data(), sc.b.data(), want.size() * sizeof(double)) != 0)
      r.bits_ok = false;
  }

  constexpr int kRounds = 15;
  std::vector<double> best_ref(cases.size(), 1e300), best_lanes(cases.size(), 1e300);
  std::vector<double> ratios;
  for (int round = 0; round < kRounds; ++round) {
    double ref_s = 0.0, lanes_s = 0.0;
    for (std::size_t x = 0; x < cases.size(); ++x) {
      SolveCase& sc = cases[x];
      double t = 0.0, p = 0.0;
      if (round % 2 == 0) {
        t = time_op(sc.flops(), [&] { sc.ref(); });
        p = time_op(sc.flops(), [&] { sc.lanes(); });
      } else {
        p = time_op(sc.flops(), [&] { sc.lanes(); });
        t = time_op(sc.flops(), [&] { sc.ref(); });
      }
      best_ref[x] = std::min(best_ref[x], t);
      best_lanes[x] = std::min(best_lanes[x], p);
      ref_s += t;
      lanes_s += p;
    }
    ratios.push_back(ref_s / lanes_s);
  }
  std::nth_element(ratios.begin(), ratios.begin() + kRounds / 2, ratios.end());
  r.ratio = ratios[kRounds / 2];
  for (std::size_t x = 0; x < cases.size(); ++x) {
    r.m.push_back(static_cast<int>(cases[x].m));
    r.ref_gflops.push_back(cases[x].flops() / best_ref[x] * 1e-9);
    r.lanes_gflops.push_back(cases[x].flops() / best_lanes[x] * 1e-9);
  }
  return r;
}

/// Part 7: potf2 groups shaped like replay_storm's fused launches. Each
/// launch holds 1–16 matrices of orders uniform in [1, 128]; its fused steps
/// (nb = 32, or the largest order rounded up to 8 when that is smaller) give
/// the diagonal tiles of the live matrices. Each step's tiles are grouped as
/// the fused step's numerics pass groups them: whole groups of W of one
/// order, then every order's rest below W, ascending, cut into groups of W
/// from the largest order down. Four ways of factoring the same groups:
///   loop    looped blas::potf2 over every tile;
///   whole   the lanes for whole same-order groups only, the rest looped
///           (potf2_batch's earlier contract);
///   forced  every group on the lanes, whatever its orders;
///   rule    blas::potf2_batch, which puts a group on the lanes only where
///           its lanes-or-scalar rule says they pay.
/// Each launch is restored before it is factored and only the factoring is
/// timed; rounds are paired as in Part 4 (order rotating by round), and the
/// gates read the median of the rounds' ratios.
template <typename T>
struct GroupSeries {
  int lanes = 1;
  int tiles = 0, groups = 0, partial_groups = 0;
  double loop_gflops = 0.0, whole_gflops = 0.0, forced_gflops = 0.0, rule_gflops = 0.0;
  double vs_loop = 0.0;   ///< median over rounds of loop time / rule time
  double vs_whole = 0.0;  ///< median over rounds of whole time / rule time
  bool bits_ok = true;
};

template <typename T>
GroupSeries<T> run_potf2_groups(const Options& o, int launches) {
  const blas::detail::LaneKernels lk = blas::detail::active_lane_kernels();
  const blas::detail::Potf2LanesFn<T> kernel = lk.vector_bytes > 0 ? lk.of<T>().potf2 : nullptr;
  const int w = blas::potf2_lanes<T>();

  struct Group {
    int begin = 0, count = 0;
    bool whole = false;  ///< w panels of one order
  };
  struct Launch {
    std::vector<std::vector<T>> orig, work;
    std::vector<MatrixView<T>> panels;
    std::vector<Group> groups;
    std::vector<int> info;
  };
  Rng rng(o.seed + 7);
  std::vector<Launch> ls(static_cast<std::size_t>(launches));
  GroupSeries<T> r;
  r.lanes = w;
  double flop_total = 0.0;
  for (Launch& l : ls) {
    const int count = static_cast<int>(rng.uniform_int(1, 16));
    std::vector<index_t> n(static_cast<std::size_t>(count));
    for (index_t& x : n) x = rng.uniform_int(1, 128);
    const index_t max_n = *std::max_element(n.begin(), n.end());
    const index_t nb = max_n >= 32 ? 32 : (max_n + 7) / 8 * 8;
    for (const index_t x : n) {
      l.orig.emplace_back(static_cast<std::size_t>(x * x));
      fill_spd(rng, l.orig.back().data(), x, x);
    }
    l.work = l.orig;
    for (index_t j = 0; j < max_n; j += nb) {
      // This step's live tiles, ascending by order (stable in matrix order).
      std::vector<std::pair<index_t, int>> live;
      for (int i = 0; i < count; ++i)
        if (n[static_cast<std::size_t>(i)] > j)
          live.emplace_back(std::min(nb, n[static_cast<std::size_t>(i)] - j), i);
      std::stable_sort(live.begin(), live.end(),
                       [](const auto& a, const auto& b) { return a.first < b.first; });
      auto panel = [&](const std::pair<index_t, int>& t) {
        const index_t ld = n[static_cast<std::size_t>(t.second)];
        return MatrixView<T>(l.work[static_cast<std::size_t>(t.second)].data() + j * ld + j,
                             t.first, t.first, ld);
      };
      std::vector<std::pair<index_t, int>> rest;
      for (std::size_t b = 0, e = 0; b < live.size(); b = e) {
        while (e < live.size() && live[e].first == live[b].first) ++e;
        std::size_t k = b;
        for (; k + static_cast<std::size_t>(w) <= e; k += static_cast<std::size_t>(w)) {
          l.groups.push_back({static_cast<int>(l.panels.size()), w, true});
          for (std::size_t q = k; q < k + static_cast<std::size_t>(w); ++q)
            l.panels.push_back(panel(live[q]));
        }
        rest.insert(rest.end(), live.begin() + static_cast<std::ptrdiff_t>(k),
                    live.begin() + static_cast<std::ptrdiff_t>(e));
      }
      const int first = static_cast<int>(l.panels.size());
      for (const auto& t : rest) l.panels.push_back(panel(t));
      for (int e = static_cast<int>(l.panels.size()); e > first; e -= w)
        l.groups.push_back({std::max(first, e - w), std::min(w, e - first), false});
      for (const auto& t : live) flop_total += flops::potrf(t.first);
    }
    l.info.assign(l.panels.size(), 0);
    r.tiles += static_cast<int>(l.panels.size());
    r.groups += static_cast<int>(l.groups.size());
    for (const Group& g : l.groups) r.partial_groups += g.count < w ? 1 : 0;
  }

  // The four ways (loop, whole, forced, rule) of factoring one group.
  auto factor = [kernel, w](int way, Launch& l, const Group& g) {
    const auto b = static_cast<std::size_t>(g.begin), c = static_cast<std::size_t>(g.count);
    if (way == 2 && kernel != nullptr) {
      T* ptrs[blas::kMaxPotf2Lanes] = {};
      index_t ord[blas::kMaxPotf2Lanes] = {}, ld[blas::kMaxPotf2Lanes] = {};
      int info[blas::kMaxPotf2Lanes] = {};
      for (std::size_t q = 0; q < static_cast<std::size_t>(w); ++q) {
        ld[q] = q < c ? l.panels[b + q].ld() : 1;
        if (q >= c) continue;
        ptrs[q] = l.panels[b + q].data();
        ord[q] = l.panels[b + q].rows();
      }
      kernel(false, ord, ptrs, ld, info);
      std::copy_n(info, c, l.info.begin() + g.begin);
    } else if (way == 3 || (way == 1 && g.whole)) {
      blas::potf2_batch<T>(Uplo::Lower, std::span<const MatrixView<T>>(l.panels).subspan(b, c),
                           std::span<int>(l.info).subspan(b, c));
    } else {
      for (std::size_t p = b; p < b + c; ++p) l.info[p] = blas::potf2<T>(Uplo::Lower, l.panels[p]);
    }
  };
  // Seconds spent factoring every launch one way, each launch restored first.
  auto time_way = [&](int way) {
    double spent = 0.0;
    for (Launch& l : ls) {
      for (std::size_t i = 0; i < l.work.size(); ++i)
        std::copy(l.orig[i].begin(), l.orig[i].end(), l.work[i].begin());
      const double t0 = now_seconds();
      for (const Group& g : l.groups) factor(way, l, g);
      spent += now_seconds() - t0;
    }
    return spent;
  };

  // Bits: every way against the loop, factors and info.
  time_way(0);
  std::vector<std::vector<T>> want;
  std::vector<int> want_info;
  for (Launch& l : ls) {
    want.insert(want.end(), l.work.begin(), l.work.end());
    want_info.insert(want_info.end(), l.info.begin(), l.info.end());
  }
  for (int v = 1; v < 4; ++v) {
    time_way(v);
    std::size_t m = 0, k = 0;
    for (Launch& l : ls) {
      for (const auto& buf : l.work)
        r.bits_ok = r.bits_ok && std::memcmp(buf.data(), want[m++].data(), buf.size() * sizeof(T)) == 0;
      for (const int i : l.info) r.bits_ok = r.bits_ok && i == want_info[k++];
    }
  }

  constexpr int kRounds = 9;
  double best[4] = {1e300, 1e300, 1e300, 1e300};
  std::vector<double> vs_loop, vs_whole;
  for (int round = 0; round < kRounds; ++round) {
    double t[4];
    for (int step = 0; step < 4; ++step) {
      const int v = (step + round) % 4;
      t[v] = time_way(v);
      best[v] = std::min(best[v], t[v]);
    }
    vs_loop.push_back(t[0] / t[3]);
    vs_whole.push_back(t[1] / t[3]);
  }
  auto median = [](std::vector<double>& x) {
    std::nth_element(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(x.size() / 2), x.end());
    return x[x.size() / 2];
  };
  r.vs_loop = median(vs_loop);
  r.vs_whole = median(vs_whole);
  r.loop_gflops = flop_total / best[0] * 1e-9;
  r.whole_gflops = flop_total / best[1] * 1e-9;
  r.forced_gflops = flop_total / best[2] * 1e-9;
  r.rule_gflops = flop_total / best[3] * 1e-9;
  return r;
}

/// Part 6: the blocked left-looking Cholesky blas::potrf ran before the
/// recursion (Lower, NB = 64): per panel, a syrk and a gemm with every
/// column to its left, then potf2 and a trsm of the panel.
int potrf_blocked64(MatrixView<double> a) {
  constexpr index_t nb = 64;
  const index_t n = a.rows();
  for (index_t j = 0; j < n; j += nb) {
    const index_t jb = std::min(nb, n - j);
    const index_t rem = n - j - jb;
    if (j > 0)
      blas::syrk<double>(Uplo::Lower, Trans::NoTrans, -1.0, a.block(j, 0, jb, j), 1.0,
                         a.block(j, j, jb, jb));
    const int info = blas::potf2<double>(Uplo::Lower, a.block(j, j, jb, jb));
    if (info != 0) return static_cast<int>(j) + info;
    if (rem == 0) continue;
    if (j > 0)
      blas::gemm<double>(Trans::NoTrans, Trans::Trans, -1.0, a.block(j + jb, 0, rem, j),
                         a.block(j, 0, jb, j), 1.0, a.block(j + jb, j, rem, jb));
    blas::trsm<double>(Side::Right, Uplo::Lower, Trans::Trans, Diag::NonUnit, 1.0,
                       a.block(j, j, jb, jb), a.block(j + jb, j, rem, jb));
  }
  return 0;
}

/// One SPD matrix and both ways of factoring it; each factorization starts
/// from the original, so repeated runs time the same numbers.
struct PotrfCase {
  index_t n = 0;
  std::vector<double> a0, a;

  PotrfCase(Rng& rng, index_t order)
      : n(order), a0(static_cast<std::size_t>(order * order)) {
    fill_spd(rng, a0.data(), n, n);
    a = a0;
  }
  [[nodiscard]] MatrixView<double> view() { return {a.data(), n, n, n}; }
  [[nodiscard]] double flops() const { return flops::potrf(n); }
  int blocked() {
    a = a0;
    return potrf_blocked64(view());
  }
  int recursive() {
    a = a0;
    return blas::potrf<double>(Uplo::Lower, view());
  }
  [[nodiscard]] double residual() const {
    return blas::potrf_residual<double>(Uplo::Lower, ConstMatrixView<double>(a0.data(), n, n, n),
                                        ConstMatrixView<double>(a.data(), n, n, n));
  }
};

struct PotrfSeries {
  std::vector<int> n;
  std::vector<double> blocked_gflops, recursive_gflops;  ///< best of the rounds, per n
  double ratio = 0.0;  ///< median over rounds of Σ blocked / Σ recursive time, n >= 128
  double max_residual = 0.0;
};

PotrfSeries run_potrf_series(const Options& o) {
  Rng rng(o.seed + 5);
  std::vector<PotrfCase> cases;
  for (index_t n : {64, 128, 192, 256, 384, 512}) cases.emplace_back(rng, n);

  PotrfSeries r;
  for (PotrfCase& pc : cases) {
    if (pc.blocked() != 0) r.max_residual = 1e300;
    r.max_residual = std::max(r.max_residual, pc.residual());
    if (pc.recursive() != 0) r.max_residual = 1e300;
    r.max_residual = std::max(r.max_residual, pc.residual());
  }

  constexpr int kRounds = 9;
  std::vector<double> best_blk(cases.size(), 1e300), best_rec(cases.size(), 1e300);
  std::vector<double> ratios;
  for (int round = 0; round < kRounds; ++round) {
    double blk_s = 0.0, rec_s = 0.0;
    for (std::size_t x = 0; x < cases.size(); ++x) {
      PotrfCase& pc = cases[x];
      double b = 0.0, c = 0.0;
      if (round % 2 == 0) {
        b = time_op(pc.flops(), [&] { (void)pc.blocked(); });
        c = time_op(pc.flops(), [&] { (void)pc.recursive(); });
      } else {
        c = time_op(pc.flops(), [&] { (void)pc.recursive(); });
        b = time_op(pc.flops(), [&] { (void)pc.blocked(); });
      }
      best_blk[x] = std::min(best_blk[x], b);
      best_rec[x] = std::min(best_rec[x], c);
      if (pc.n >= 128) {
        blk_s += b;
        rec_s += c;
      }
    }
    ratios.push_back(blk_s / rec_s);
  }
  std::nth_element(ratios.begin(), ratios.begin() + kRounds / 2, ratios.end());
  r.ratio = ratios[kRounds / 2];
  for (std::size_t x = 0; x < cases.size(); ++x) {
    r.n.push_back(static_cast<int>(cases[x].n));
    r.blocked_gflops.push_back(cases[x].flops() / best_blk[x] * 1e-9);
    r.recursive_gflops.push_back(cases[x].flops() / best_rec[x] * 1e-9);
  }
  return r;
}

/// Part 8: fill_spd's ns per element, portable path against the active
/// ISA. Every cell refills one n×n buffer for about kWindowEntries entries
/// per timing, so each cell weighs alike in the summed times; each cell
/// reads its best round.
struct PayloadFillSeries {
  std::vector<int> n;
  std::vector<double> scalar_ns_s, dispatched_ns_s;  ///< float, per n
  std::vector<double> scalar_ns_d, dispatched_ns_d;  ///< double, per n
  double ratio = 0.0;  ///< median over rounds of Σ scalar / Σ dispatched time
  bool bits_ok = true;
};

PayloadFillSeries run_payload_fill(const Options& o) {
  constexpr int kOrders[] = {8, 32, 128};
  constexpr index_t kWindowEntries = index_t{1} << 18;
  constexpr int kRounds = 9;
  struct Cell {
    index_t n = 0;
    bool dbl = false;
    int fills = 0;
    std::vector<float> s;
    std::vector<double> d;
    double best_scalar = 1e300, best_dispatched = 1e300;
  };
  std::vector<Cell> cells;
  for (const bool dbl : {false, true})
    for (const int n : kOrders) {
      Cell c;
      c.n = n;
      c.dbl = dbl;
      c.fills = static_cast<int>(std::max<index_t>(1, kWindowEntries / (c.n * c.n)));
      if (dbl) c.d.resize(static_cast<std::size_t>(c.n * c.n));
      else c.s.resize(static_cast<std::size_t>(c.n * c.n));
      cells.push_back(std::move(c));
    }
  // One window of fills from one stream; returns its seconds.
  auto window = [&o](Cell& c) {
    Rng rng(o.seed + 8);
    const double t0 = now_seconds();
    for (int k = 0; k < c.fills; ++k) {
      if (c.dbl) fill_spd(rng, c.d.data(), c.n, c.n);
      else fill_spd(rng, c.s.data(), c.n, c.n);
    }
    return now_seconds() - t0;
  };
  // The scalar anchor pins the portable path; the ProfileGuard restores a
  // tuned profile once the IsaGuard has switched the ISA back.
  auto scalar_window = [&window](Cell& c) {
    blas::micro::ProfileGuard pguard(blas::micro::active_profile());
    blas::micro::IsaGuard iguard(blas::micro::Isa::Scalar);
    return window(c);
  };

  PayloadFillSeries r;
  for (Cell& c : cells) {
    (void)scalar_window(c);
    const std::vector<float> s0 = c.s;
    const std::vector<double> d0 = c.d;
    (void)window(c);
    r.bits_ok = r.bits_ok && std::memcmp(s0.data(), c.s.data(), s0.size() * sizeof(float)) == 0 &&
                std::memcmp(d0.data(), c.d.data(), d0.size() * sizeof(double)) == 0;
  }
  std::vector<double> ratios;
  for (int round = 0; round < kRounds; ++round) {
    double scalar_s = 0.0, dispatched_s = 0.0;
    for (Cell& c : cells) {
      double sc = 0.0, di = 0.0;
      if (round % 2 == 0) {
        sc = scalar_window(c);
        di = window(c);
      } else {
        di = window(c);
        sc = scalar_window(c);
      }
      c.best_scalar = std::min(c.best_scalar, sc);
      c.best_dispatched = std::min(c.best_dispatched, di);
      scalar_s += sc;
      dispatched_s += di;
    }
    ratios.push_back(scalar_s / dispatched_s);
  }
  std::nth_element(ratios.begin(), ratios.begin() + kRounds / 2, ratios.end());
  r.ratio = ratios[kRounds / 2];
  for (const Cell& c : cells) {
    const double entries = static_cast<double>(c.fills) * static_cast<double>(c.n * c.n);
    (c.dbl ? r.scalar_ns_d : r.scalar_ns_s).push_back(c.best_scalar / entries * 1e9);
    (c.dbl ? r.dispatched_ns_d : r.dispatched_ns_s).push_back(c.best_dispatched / entries * 1e9);
    if (!c.dbl) r.n.push_back(static_cast<int>(c.n));
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  gate::Flags(argv[0])
      .list("--sizes", o.sizes, 1)
      .num("--batch", o.batch, 1)
      .num("--nmax", o.nmax, 1)
      .custom("--dist", "uniform,gaussian,skewed,cluster",
              [&o](std::string_view csv) {
                std::vector<SizeDist> dists;
                const bool ok = gate::for_each_csv(csv, [&](std::string_view tok) {
                  for (SizeDist d : {SizeDist::Uniform, SizeDist::Gaussian, SizeDist::Skewed,
                                     SizeDist::Cluster})
                    if (tok == to_string(d)) {
                      dists.push_back(d);
                      return true;
                    }
                  return false;
                });
                if (ok) o.dists = std::move(dists);
                return ok;
              })
      .num("--reps", o.reps, 1)
      .num("--seed", o.seed, 0)
      .custom("--isa", "scalar|sse2|neon|avx2|avx512",
              [](std::string_view v) {
                const auto isa = blas::micro::parse_isa(v);
                if (isa) blas::micro::set_isa(*isa);
                return isa.has_value();
              })
      .toggle("--tune", o.tune)
      .text("--out", o.out)
      .parse(argc, argv);
  if (o.tune) {
    BlasTuneSettings ts;
    ts.verbose = true;
    const BlasTuneResult tr = ensure_blas_tuned(ts);
    std::printf("wallclock_blas: tuning profile %s (%s)\n",
                tr.loaded_from_cache ? "loaded" : "swept", tr.cache_path.c_str());
  }
  const blas::micro::Isa isa = blas::micro::active_isa();
  const bool vector_isa = isa != blas::micro::Isa::Scalar;

  std::printf("wallclock_blas: isa=%s, sizes", to_string(isa));
  for (int n : o.sizes) std::printf(" %d", n);
  std::printf(", e2e batch=%d nmax=%d, reps=%d\n", o.batch, o.nmax, o.reps);

  Rng rng(o.seed);
  std::vector<SizeCase> cases;
  for (int ni : o.sizes) {
    SizeCase sc;
    const index_t n = sc.n = ni;
    const std::size_t nn = static_cast<std::size_t>(n * n);
    std::vector<double> c0(nn);
    sc.a.resize(nn);
    sc.b.resize(nn);
    sc.c.resize(nn);
    sc.tri.resize(nn);
    sc.rhs0.resize(nn);
    fill_general(rng, sc.a.data(), n, n, n);
    fill_general(rng, sc.b.data(), n, n, n);
    fill_general(rng, c0.data(), n, n, n);
    fill_general(rng, sc.rhs0.data(), n, n, n);
    fill_general(rng, sc.tri.data(), n, n, n);
    MatrixView<double> triv(sc.tri.data(), n, n, n);
    for (index_t d = 0; d < n; ++d) triv(d, d) = 4.0 + static_cast<double>(d);
    std::fill(&sc.best[0][0], &sc.best[0][0] + kPins * kKernels, 1e300);
    cases.push_back(std::move(sc));
  }

  // Gate 2: the n=512 NN rate must hold >= 0.9x the n=384 rate — the
  // balanced NC split removed the historical tail dip; keep it out. The
  // sweep's two blk cells sit a second or more apart, so a shift in host
  // speed between them reads as a dip. The gate therefore takes its own
  // samples: each times one blk NN call at both sizes per round (order
  // alternating by round), and the gate compares each size's minimum over
  // every sample. Load on a shared host only ever adds time, so minima are
  // the estimator the sweep table uses. The samples are spread over the
  // whole run (after each sweep pass and each later part): a slow spell of
  // a few seconds slows 512 more than 384, whose operands fill less of the
  // shared cache, and must not cover all of them.
  const auto it384 = std::find(o.sizes.begin(), o.sizes.end(), 384);
  const auto it512 = std::find(o.sizes.begin(), o.sizes.end(), 512);
  const bool nn512_gated = it384 != o.sizes.end() && it512 != o.sizes.end();
  double nn_best384 = 1e300, nn_best512 = 1e300;
  auto nn512_sample = [&] {
    if (!nn512_gated) return;
    auto call = [](SizeCase& sc, double& best) {
      const index_t n = sc.n;
      ConstMatrixView<double> av(sc.a.data(), n, n, n);
      ConstMatrixView<double> bv(sc.b.data(), n, n, n);
      MatrixView<double> cv(sc.c.data(), n, n, n);
      const double t0 = now_seconds();
      blas::gemm<double>(Trans::NoTrans, Trans::NoTrans, 1.0, av, bv, 0.0, cv);
      best = std::min(best, now_seconds() - t0);
    };
    SizeCase& c384 = cases[static_cast<std::size_t>(it384 - o.sizes.begin())];
    SizeCase& c512 = cases[static_cast<std::size_t>(it512 - o.sizes.begin())];
    blas::micro::DispatchGuard guard(blas::micro::Dispatch::ForceBlocked);
    constexpr int kRounds = 20;
    for (int r = 0; r < kRounds; ++r) {
      if (r % 2 == 0) {
        call(c384, nn_best384);
        call(c512, nn_best512);
      } else {
        call(c512, nn_best512);
        call(c384, nn_best384);
      }
    }
  };

  // Each cell is the best of --reps passes, and every pass sweeps all sizes
  // under all three pins back to back. The gates compare cells across pins
  // and sizes, so a slow spell on a shared host then slows one pass of every
  // cell alike instead of one pin's (or one size's) every timing.
  for (int pass = 0; pass < o.reps; ++pass) {
    for (SizeCase& sc : cases) {
      {
        blas::micro::DispatchGuard guard(blas::micro::Dispatch::ForceRef);
        measure(sc, sc.best[0]);
      }
      {
        // The scalar anchor: Isa::Scalar with the default profile is exactly
        // the pre-vectorization engine. The outer ProfileGuard restores any
        // tuned profile once the IsaGuard has switched the ISA back.
        blas::micro::ProfileGuard pguard(blas::micro::active_profile());
        blas::micro::IsaGuard iguard(blas::micro::Isa::Scalar);
        blas::micro::DispatchGuard guard(blas::micro::Dispatch::ForceBlocked);
        measure(sc, sc.best[1]);
      }
      {
        blas::micro::DispatchGuard guard(blas::micro::Dispatch::ForceBlocked);
        measure(sc, sc.best[2]);
      }
    }
    nn512_sample();
  }

  KernelSeries gemm_nn, gemm_nt, syrk_s, trsm_s;
  KernelSeries* const series[kKernels] = {&gemm_nn, &gemm_nt, &syrk_s, &trsm_s};
  std::vector<double> KernelSeries::* const pins[kPins] = {
      &KernelSeries::ref_gflops, &KernelSeries::scalar_gflops, &KernelSeries::blk_gflops};
  std::printf("  %5s | %28s | %28s | %28s | %28s\n", "n", "gemm NN ref/sc/blk Gf/s",
              "gemm NT ref/sc/blk Gf/s", "syrk ref/sc/blk Gf/s", "trsm ref/sc/blk Gf/s");
  for (const SizeCase& sc : cases) {
    const index_t n = sc.n;
    const double kernel_flops[kKernels] = {flops::gemm(n, n, n), flops::gemm(n, n, n),
                                           flops::syrk(n, n), flops::trsm(n, n, false)};
    for (int p = 0; p < kPins; ++p)
      for (int k = 0; k < kKernels; ++k)
        (series[k]->*pins[p]).push_back(kernel_flops[k] / sc.best[p][k] * 1e-9);
    auto row = [](const KernelSeries& s) {
      static char buf[64];
      std::snprintf(buf, sizeof buf, "%8.2f/%8.2f/%8.2f", s.ref_gflops.back(),
                    s.scalar_gflops.back(), s.blk_gflops.back());
      return std::string(buf);
    };
    std::printf("  %5d | %s | %s | %s | %s\n", static_cast<int>(n), row(gemm_nn).c_str(),
                row(gemm_nt).c_str(), row(syrk_s).c_str(), row(trsm_s).c_str());
  }

  // Minimum double-precision gemm speedup over the n >= 64 sizes (the
  // acceptance band); the NT shape is the fused-step hot path.
  double min_speedup_nn = 1e300, min_speedup_nt = 1e300;
  for (std::size_t i = 0; i < o.sizes.size(); ++i) {
    if (o.sizes[i] < 64) continue;
    min_speedup_nn = std::min(min_speedup_nn, gemm_nn.blk_gflops[i] / gemm_nn.ref_gflops[i]);
    min_speedup_nt = std::min(min_speedup_nt, gemm_nt.blk_gflops[i] / gemm_nt.ref_gflops[i]);
  }
  if (min_speedup_nn > 1e299) min_speedup_nn = 0.0;
  if (min_speedup_nt > 1e299) min_speedup_nt = 0.0;

  // Gate 1: vectorized NT-gemm >= 2x the scalar engine at the gate sizes
  // (only meaningful on a vector ISA; vacuous when none of the sizes ran).
  constexpr int kVectorGateSizes[] = {128, 256, 384};
  double min_vector_ratio_nt = 1e300;
  for (std::size_t i = 0; i < o.sizes.size(); ++i) {
    if (std::find(std::begin(kVectorGateSizes), std::end(kVectorGateSizes), o.sizes[i]) ==
        std::end(kVectorGateSizes))
      continue;
    min_vector_ratio_nt =
        std::min(min_vector_ratio_nt, gemm_nt.blk_gflops[i] / gemm_nt.scalar_gflops[i]);
  }
  const bool vector_gate_ran = vector_isa && min_vector_ratio_nt < 1e299;
  const bool nt_vector_2x_ok = !vector_gate_ran || min_vector_ratio_nt >= 2.0;
  if (min_vector_ratio_nt > 1e299) min_vector_ratio_nt = 0.0;

  // End-to-end Full-mode wall clock, engine off vs on, per distribution.
  struct E2ePoint {
    SizeDist dist;
    E2eResult ref, blk;
  };
  std::vector<E2ePoint> e2e;
  bool residual_ok = true;
  for (SizeDist dist : o.dists) {
    Rng size_rng(o.seed);
    const auto e2e_sizes = make_sizes(dist, size_rng, o.batch, o.nmax);
    E2ePoint pt;
    pt.dist = dist;
    {
      blas::micro::DispatchGuard guard(blas::micro::Dispatch::ForceRef);
      pt.ref = run_e2e(o, e2e_sizes);
    }
    {
      blas::micro::DispatchGuard guard(blas::micro::Dispatch::Auto);
      pt.blk = run_e2e(o, e2e_sizes);
    }
    constexpr double kResidualGate = 1e-8;
    if (pt.ref.max_residual >= kResidualGate || pt.blk.max_residual >= kResidualGate ||
        !pt.ref.info_clean || !pt.blk.info_clean)
      residual_ok = false;
    std::printf("  e2e %-8s: ref %.3f s, blocked %.3f s, speedup %.2fx, "
                "max residual %.2e/%.2e\n",
                to_string(dist), pt.ref.wall_seconds, pt.blk.wall_seconds,
                pt.blk.wall_seconds > 0.0 ? pt.ref.wall_seconds / pt.blk.wall_seconds : 0.0,
                pt.ref.max_residual, pt.blk.max_residual);
    e2e.push_back(pt);
  }
  nn512_sample();

  // Part 3: potf2_batch against looped potf2.
  constexpr int kPotf2Count = 1000, kPotf2MaxN = 32;
  const Potf2BatchResult p2 = run_potf2_batch(o, kPotf2Count, kPotf2MaxN);
  nn512_sample();
  const double p2_speedup = p2.loop_gflops > 0.0 ? p2.batch_gflops / p2.loop_gflops : 0.0;
  const int p2_lanes = blas::potf2_lanes<double>();
  const bool p2_speedup_ok = p2_lanes == 1 || p2_speedup >= 1.5;
  std::printf("  potf2_batch (%d matrices, n in [1, %d], %d lanes): loop %.2f Gf/s, "
              "batch %.2f Gf/s, %.2fx\n",
              kPotf2Count, kPotf2MaxN, p2_lanes, p2.loop_gflops, p2.batch_gflops, p2_speedup);

  // Part 4: the rank-64 update, per-tile loop against the numerics pass.
  const UpdateResult up = run_rank64_update(o);
  nn512_sample();
  const bool update_ok = !vector_isa || up.ratio >= 1.2;
  const bool update_bits_ok = up.max_diff < 1e-12;
  for (std::size_t x = 0; x < up.m.size(); ++x)
    std::printf("  rank-64 update m=%d: tile %.2f Gf/s, pass %.2f Gf/s\n", up.m[x],
                up.tile_gflops[x], up.pass_gflops[x]);

  // Part 5: the panel solve, trsm_ref base cases against the lanes.
  const SolveResult sv = run_panel_solve(o);
  nn512_sample();
  const bool solve_ok = !vector_isa || sv.ratio >= 1.5;
  for (std::size_t x = 0; x < sv.m.size(); ++x)
    std::printf("  panel solve m=%d x 64: ref %.2f Gf/s, lanes %.2f Gf/s\n", sv.m[x],
                sv.ref_gflops[x], sv.lanes_gflops[x]);

  // Part 6: the recursive potrf against the blocked NB = 64 loop.
  const PotrfSeries pf = run_potrf_series(o);
  nn512_sample();

  // Part 7: replay-shaped potf2 groups, double and float.
  constexpr int kGroupLaunches = 200;
  const GroupSeries<double> gd = run_potf2_groups<double>(o, kGroupLaunches);
  nn512_sample();
  const GroupSeries<float> gs = run_potf2_groups<float>(o, kGroupLaunches);
  nn512_sample();
  const bool groups_bits_ok = gd.bits_ok && gs.bits_ok;
  const bool groups_gated = isa == blas::micro::Isa::Avx2;
  const bool groups_ok = !groups_gated || (gd.vs_loop >= 1.3 && gs.vs_loop >= 1.3 &&
                                           gs.vs_whole >= 1.1 && gd.vs_whole >= 0.9);
  auto print_groups = [](const char* type, const auto& g) {
    std::printf("  potf2 groups %s (%d lanes, %d tiles, %d groups, %d partial): loop %.2f, "
                "whole %.2f, forced %.2f, rule %.2f Gf/s; rule/loop %.2fx, rule/whole %.2fx\n",
                type, g.lanes, g.tiles, g.groups, g.partial_groups, g.loop_gflops,
                g.whole_gflops, g.forced_gflops, g.rule_gflops, g.vs_loop, g.vs_whole);
  };
  print_groups("d", gd);
  print_groups("s", gs);
  // Part 8: the payload fill, portable path against the active ISA.
  const PayloadFillSeries fill = run_payload_fill(o);
  nn512_sample();
  const bool fill_gated = isa == blas::micro::Isa::Avx2 || isa == blas::micro::Isa::Avx512;
  const bool fill_ok = !fill_gated || fill.ratio >= 2.0;
  for (std::size_t x = 0; x < fill.n.size(); ++x)
    std::printf("  payload fill n=%d: s scalar %.2f / %s %.2f ns, d scalar %.2f / %s %.2f ns "
                "per element\n",
                fill.n[x], fill.scalar_ns_s[x], to_string(isa), fill.dispatched_ns_s[x],
                fill.scalar_ns_d[x], to_string(isa), fill.dispatched_ns_d[x]);
  const double nn512_ratio = nn512_gated ? (flops::gemm(512, 512, 512) / nn_best512) /
                                               (flops::gemm(384, 384, 384) / nn_best384)
                                         : 0.0;
  const bool nn512_ok = !nn512_gated || nn512_ratio >= 0.9;
  const bool potrf_gated = isa == blas::micro::Isa::Avx2 || isa == blas::micro::Isa::Avx512;
  const bool potrf_ok = !potrf_gated || pf.ratio >= 1.1;
  const bool potrf_residual_ok = pf.max_residual < 1e-12;
  for (std::size_t x = 0; x < pf.n.size(); ++x)
    std::printf("  potrf n=%d: blocked %.2f Gf/s, recursive %.2f Gf/s\n", pf.n[x],
                pf.blocked_gflops[x], pf.recursive_gflops[x]);

  std::printf("  gemm double min speedup vs ref (n>=64): NN %.2fx, NT %.2fx\n", min_speedup_nn,
              min_speedup_nt);
  if (vector_gate_ran)
    std::printf("  NT vector gate (>=2.0x scalar engine at 128/256/384): %.2fx (%s)\n",
                min_vector_ratio_nt, nt_vector_2x_ok ? "PASS" : "FAIL");
  if (nn512_ratio > 0.0)
    std::printf("  NN n=512 gate (>=0.9x of n=384): %.2fx (%s)\n", nn512_ratio,
                nn512_ok ? "PASS" : "FAIL");
  if (vector_isa)
    std::printf("  rank-64 update gate (pass >=1.2x per-tile, paired): %.2fx (%s)\n", up.ratio,
                update_ok ? "PASS" : "FAIL");
  std::printf("  rank-64 update numerics (tile vs pass): %.1e (%s)\n", up.max_diff,
              update_bits_ok ? "PASS" : "FAIL");
  if (vector_isa)
    std::printf("  panel solve gate (lanes >=1.5x ref base cases, paired): %.2fx (%s)\n",
                sv.ratio, solve_ok ? "PASS" : "FAIL");
  std::printf("  panel solve bit gate (memcmp vs ref base cases): %s\n",
              sv.bits_ok ? "PASS" : "FAIL");
  std::printf("  potrf gate (recursive >=1.1x blocked NB=64, n>=128, paired): %.2fx (%s)\n",
              pf.ratio, !potrf_gated ? "not gated on this ISA" : potrf_ok ? "PASS" : "FAIL");
  std::printf("  potrf residual gate (both < 1e-12): %.1e (%s)\n", pf.max_residual,
              potrf_residual_ok ? "PASS" : "FAIL");
  std::printf("  residual gates: %s\n", residual_ok ? "PASS" : "FAIL");
  std::printf("  potf2_batch bit gate (memcmp vs looped potf2): %s\n",
              p2.bits_ok ? "PASS" : "FAIL");
  if (p2_lanes > 1)
    std::printf("  potf2_batch lane gate (>=1.5x looped potf2): %.2fx (%s)\n", p2_speedup,
                p2_speedup_ok ? "PASS" : "FAIL");
  std::printf("  potf2 groups bit gate (every way memcmp vs looped potf2): %s\n",
              groups_bits_ok ? "PASS" : "FAIL");
  std::printf("  potf2 groups gate (rule >=1.3x loop, s and d; >=1.1x whole s, >=0.9x whole d; "
              "paired): %.2fx/%.2fx d, %.2fx/%.2fx s (%s)\n",
              gd.vs_loop, gd.vs_whole, gs.vs_loop, gs.vs_whole,
              !groups_gated ? "not gated on this ISA" : groups_ok ? "PASS" : "FAIL");

  std::printf("  payload fill bit gate (memcmp vs scalar): %s\n", fill.bits_ok ? "PASS" : "FAIL");
  std::printf("  payload fill gate (dispatched >=2.0x scalar, paired): %.2fx (%s)\n", fill.ratio,
              !fill_gated ? "not gated on this ISA" : fill_ok ? "PASS" : "FAIL");

  auto groups_json = [](const auto& g) {
    return gate::JsonLine{{"lanes", g.lanes},
                          {"tiles", g.tiles},
                          {"groups", g.groups},
                          {"partial_groups", g.partial_groups},
                          {"loop_gflops", g.loop_gflops},
                          {"whole_gflops", g.whole_gflops},
                          {"forced_gflops", g.forced_gflops},
                          {"rule_gflops", g.rule_gflops},
                          {"rule_vs_loop", g.vs_loop},
                          {"rule_vs_whole", g.vs_whole}};
  };
  gate::JsonLine json{{"bench", "wallclock_blas"}, {"clock", "wall"}, {"isa", to_string(isa)},
                      {"tuned", o.tune},        {"sizes", o.sizes}};
  const struct { const char* name; const KernelSeries* s; } named[] = {
      {"gemm_nn", &gemm_nn}, {"gemm_nt", &gemm_nt}, {"syrk", &syrk_s}, {"trsm", &trsm_s}};
  for (const auto& [name, s] : named) {
    json.add(std::string(name) + "_ref_gflops", s->ref_gflops);
    json.add(std::string(name) + "_scalar_gflops", s->scalar_gflops);
    json.add(std::string(name) + "_blk_gflops", s->blk_gflops);
  }
  std::vector<gate::JsonLine> e2e_json;
  for (const E2ePoint& pt : e2e)
    e2e_json.push_back(
        {{"dist", to_string(pt.dist)}, {"ref_seconds", pt.ref.wall_seconds},
         {"blocked_seconds", pt.blk.wall_seconds},
         {"speedup", pt.blk.wall_seconds > 0.0 ? pt.ref.wall_seconds / pt.blk.wall_seconds : 0.0},
         {"max_residual_ref", pt.ref.max_residual},
         {"max_residual_blocked", pt.blk.max_residual}});
  json.add("gemm_min_speedup_nn_64up", min_speedup_nn)
      .add("gemm_min_speedup_nt_64up", min_speedup_nt)
      .add("nt_vector_min_ratio", min_vector_ratio_nt)
      .add("nt_vector_2x_ok", nt_vector_2x_ok)
      .add("nn512_ratio", nn512_ratio)
      .add("nn512_ok", nn512_ok)
      .add("e2e_batch", o.batch)
      .add("e2e_nmax", o.nmax)
      .add("residual_ok", residual_ok)
      .add("e2e", e2e_json)
      .add("potf2_batch", gate::JsonLine{{"count", kPotf2Count},
                                         {"nmax", kPotf2MaxN},
                                         {"lanes", p2_lanes},
                                         {"loop_gflops", p2.loop_gflops},
                                         {"batch_gflops", p2.batch_gflops},
                                         {"speedup", p2_speedup},
                                         {"bits_ok", p2.bits_ok},
                                         {"speedup_ok", p2_speedup_ok}})
      .add("rank64_update", gate::JsonLine{{"m", up.m},
                                           {"k", static_cast<int>(UpdateCase::kRank)},
                                           {"strip_cols", kernels::kSyrkStripCols},
                                           {"tile_gflops", up.tile_gflops},
                                           {"pass_gflops", up.pass_gflops},
                                           {"ratio", up.ratio},
                                           {"ok", update_ok},
                                           {"max_diff", up.max_diff}})
      .add("panel_solve", gate::JsonLine{{"m", sv.m},
                                         {"order", static_cast<int>(SolveCase::kOrder)},
                                         {"ref_gflops", sv.ref_gflops},
                                         {"lanes_gflops", sv.lanes_gflops},
                                         {"ratio", sv.ratio},
                                         {"ok", solve_ok},
                                         {"bits_ok", sv.bits_ok}})
      .add("potf2_groups", gate::JsonLine{{"launches", kGroupLaunches},
                                          {"d", groups_json(gd)},
                                          {"s", groups_json(gs)},
                                          {"bits_ok", groups_bits_ok},
                                          {"ok", groups_ok}})
      .add("potrf", gate::JsonLine{{"n", pf.n},
                                   {"blocked_nb", 64},
                                   {"blocked_gflops", pf.blocked_gflops},
                                   {"recursive_gflops", pf.recursive_gflops},
                                   {"ratio", pf.ratio},
                                   {"ok", potrf_ok},
                                   {"max_residual", pf.max_residual}})
      .add("payload_fill", gate::JsonLine{{"n", fill.n},
                                          {"scalar_ns_s", fill.scalar_ns_s},
                                          {"dispatched_ns_s", fill.dispatched_ns_s},
                                          {"scalar_ns_d", fill.scalar_ns_d},
                                          {"dispatched_ns_d", fill.dispatched_ns_d},
                                          {"ratio", fill.ratio},
                                          {"ok", fill_ok},
                                          {"bits_ok", fill.bits_ok}});
  std::printf("%s\n", json.str().c_str());
  gate::append_json_lines(o.out, {json});

  if (!residual_ok || !p2.bits_ok || !update_bits_ok || !sv.bits_ok || !potrf_residual_ok ||
      !groups_bits_ok || !fill.bits_ok) {
    std::fprintf(stderr, "FAILED: residual gate, info check, potf2_batch bit gate, rank-64 "
                         "update numerics, panel solve bit gate, potrf residual, potf2 "
                         "groups bit gate or payload fill bit gate failed\n");
    return 1;
  }
  if (!nt_vector_2x_ok || !nn512_ok || !p2_speedup_ok || !update_ok || !solve_ok ||
      !potrf_ok || !groups_ok || !fill_ok) {
    std::fprintf(stderr, "FAILED: performance regression gate failed\n");
    return 1;
  }
  return 0;
}
