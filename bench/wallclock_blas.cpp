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
//     balanced NC split removed the historical tail dip; this keeps it out).
//
// Part 2 measures the end-to-end Full-mode wall clock of a vbatched
// Cholesky run with the engine disabled (ForceRef) and enabled (Auto, the
// production policy) for every requested size distribution, and re-checks
// the factorization residual gate ‖A − L·Lᵀ‖_F / (n·‖A‖_F) on every matrix
// in both configurations.
//
// Output: a human-readable table on stdout plus one JSON line appended to
// BENCH_blas.json (override with --out). The run fails (non-zero exit) on a
// numerics problem or on a failed regression gate.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "gate_common.hpp"
#include "vbatch/blas/blas.hpp"
#include "vbatch/blas/microkernel.hpp"
#include "vbatch/core/autotune.hpp"
#include "vbatch/core/potrf_vbatched.hpp"
#include "vbatch/core/size_dist.hpp"
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

  // Gate 2: the n=512 NN rate must hold >= 0.9x the n=384 rate — the
  // balanced NC split removed the historical tail dip; keep it out.
  double nn512_ratio = 0.0;
  bool nn512_ok = true;
  {
    const auto it384 = std::find(o.sizes.begin(), o.sizes.end(), 384);
    const auto it512 = std::find(o.sizes.begin(), o.sizes.end(), 512);
    if (it384 != o.sizes.end() && it512 != o.sizes.end()) {
      const auto i384 = static_cast<std::size_t>(it384 - o.sizes.begin());
      const auto i512 = static_cast<std::size_t>(it512 - o.sizes.begin());
      nn512_ratio = gemm_nn.blk_gflops[i512] / gemm_nn.blk_gflops[i384];
      nn512_ok = nn512_ratio >= 0.9;
    }
  }

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

  std::printf("  gemm double min speedup vs ref (n>=64): NN %.2fx, NT %.2fx\n", min_speedup_nn,
              min_speedup_nt);
  if (vector_gate_ran)
    std::printf("  NT vector gate (>=2.0x scalar engine at 128/256/384): %.2fx (%s)\n",
                min_vector_ratio_nt, nt_vector_2x_ok ? "PASS" : "FAIL");
  if (nn512_ratio > 0.0)
    std::printf("  NN n=512 gate (>=0.9x of n=384): %.2fx (%s)\n", nn512_ratio,
                nn512_ok ? "PASS" : "FAIL");
  std::printf("  residual gates: %s\n", residual_ok ? "PASS" : "FAIL");

  gate::JsonLine json{{"bench", "wallclock_blas"}, {"isa", to_string(isa)}, {"tuned", o.tune},
                      {"sizes", o.sizes}};
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
      .add("e2e", e2e_json);
  std::printf("%s\n", json.str().c_str());
  gate::append_json_lines(o.out, {json});

  if (!residual_ok) {
    std::fprintf(stderr, "FAILED: residual gate or info check failed\n");
    return 1;
  }
  if (!nt_vector_2x_ok || !nn512_ok) {
    std::fprintf(stderr, "FAILED: performance regression gate failed\n");
    return 1;
  }
  return 0;
}
