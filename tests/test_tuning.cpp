// Tests for the runtime ISA dispatcher (blas/isa.hpp), the tuning-profile
// machinery (blas/tuning.hpp) and the cache-hierarchy autotuner
// (core/autotune.hpp): conformance of every compiled register tile against
// the reference loops across ISAs and precisions (including tail
// remainders), the bit-reproducibility contract (results are a pure
// function of the (ISA, profile) pair; MC/NC/MR/NR never change bits, only
// the KC split does), profile persistence round-trips, rejection of
// corrupted and stale-version files, and the load-instead-of-sweep fast
// path of ensure_blas_tuned().
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "vbatch/blas/blas.hpp"
#include "vbatch/blas/microkernel.hpp"
#include "vbatch/core/autotune.hpp"
#include "vbatch/cpu/perf_model.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/rng.hpp"

namespace {

using namespace vbatch;
using namespace vbatch::blas::micro;

std::vector<Isa> supported_isas() {
  std::vector<Isa> out;
  for (Isa i : {Isa::Scalar, Isa::Sse2, Isa::Neon, Isa::Avx2, Isa::Avx512})
    if (isa_supported(i)) out.push_back(i);
  return out;
}

template <typename T>
T make_scalar(double re, double im) {
  if constexpr (is_complex_v<T>) {
    return T(static_cast<real_t<T>>(re), static_cast<real_t<T>>(im));
  } else {
    return static_cast<T>(re);
  }
}

template <typename T>
double tol_for(index_t k) {
  const double eps = static_cast<double>(std::numeric_limits<real_t<T>>::epsilon());
  return 64.0 * eps * static_cast<double>(std::max<index_t>(k, 1));
}

template <typename T>
double max_rel_diff(ConstMatrixView<T> x, ConstMatrixView<T> y) {
  double diff = 0.0, scale = 1.0;
  for (index_t j = 0; j < x.cols(); ++j)
    for (index_t i = 0; i < x.rows(); ++i) {
      diff = std::max(diff, static_cast<double>(std::abs(x(i, j) - y(i, j))));
      scale = std::max(scale, static_cast<double>(std::abs(y(i, j))));
    }
  return diff / scale;
}

// Runs the packed engine on a deterministic problem and returns the raw
// result buffer (for bitwise comparisons across profiles/ISAs).
template <typename T>
std::vector<T> gemm_bits(Trans ta, Trans tb, index_t m, index_t n, index_t k,
                         const KernelShape* shape = nullptr) {
  const index_t ar = ta == Trans::NoTrans ? m : k;
  const index_t ac = ta == Trans::NoTrans ? k : m;
  const index_t br = tb == Trans::NoTrans ? k : n;
  const index_t bc = tb == Trans::NoTrans ? n : k;
  Rng rng(99);
  std::vector<T> abuf(static_cast<std::size_t>(ar * ac) + 1),
      bbuf(static_cast<std::size_t>(br * bc) + 1), cbuf(static_cast<std::size_t>(m * n) + 1);
  if (ar && ac) fill_general(rng, abuf.data(), ar, ac, ar);
  if (br && bc) fill_general(rng, bbuf.data(), br, bc, br);
  ConstMatrixView<T> a(abuf.data(), ar, ac, ar);
  ConstMatrixView<T> b(bbuf.data(), br, bc, br);
  MatrixView<T> c(cbuf.data(), m, n, m);
  if (shape)
    gemm_blocked_shaped<T>(ta, tb, make_scalar<T>(1.1, -0.2), a, b, T(0), c, *shape);
  else
    gemm_blocked<T>(ta, tb, make_scalar<T>(1.1, -0.2), a, b, T(0), c);
  return cbuf;
}

template <typename T>
void expect_conformance(index_t m, index_t n, index_t k, const char* what) {
  const index_t ar = m, ac = k;  // NoTrans x Trans covers both packing paths
  Rng rng(7);
  std::vector<T> abuf(static_cast<std::size_t>(ar * ac) + 1),
      bbuf(static_cast<std::size_t>(n * k) + 1), cblk(static_cast<std::size_t>(m * n) + 1);
  if (m && k) fill_general(rng, abuf.data(), m, k, m);
  if (n && k) fill_general(rng, bbuf.data(), n, k, n);
  fill_general(rng, cblk.data(), std::max<index_t>(m, 1), std::max<index_t>(n, 1),
               std::max<index_t>(m, 1));
  auto cref = cblk;
  ConstMatrixView<T> a(abuf.data(), m, k, m);
  ConstMatrixView<T> b(bbuf.data(), n, k, n);
  MatrixView<T> c1(cblk.data(), m, n, m);
  MatrixView<T> c2(cref.data(), m, n, m);
  const T alpha = make_scalar<T>(1.3, -0.4), beta = make_scalar<T>(-0.7, 0.2);
  gemm_blocked<T>(Trans::NoTrans, Trans::Trans, alpha, a, b, beta, c1);
  blas::gemm_ref<T>(Trans::NoTrans, Trans::Trans, alpha, a, b, beta, c2);
  ASSERT_LT(max_rel_diff<T>(c1, c2), tol_for<T>(k))
      << what << " m=" << m << " n=" << n << " k=" << k;
}

// ---------------------------------------------------------------------------
// ISA detection / selection
// ---------------------------------------------------------------------------

TEST(TuningIsaTest, ParseRoundTripsEveryName) {
  for (Isa i : {Isa::Scalar, Isa::Sse2, Isa::Neon, Isa::Avx2, Isa::Avx512}) {
    const auto parsed = parse_isa(to_string(i));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, i);
  }
  EXPECT_FALSE(parse_isa("avx9000").has_value());
  EXPECT_FALSE(parse_isa("").has_value());
}

TEST(TuningIsaTest, ScalarAlwaysSupportedAndDetectNeverPicksAvx512) {
  EXPECT_TRUE(isa_supported(Isa::Scalar));
  EXPECT_TRUE(isa_supported(detect_isa()));
  EXPECT_NE(detect_isa(), Isa::Avx512);  // opt-in only
}

TEST(TuningIsaTest, SetIsaClampsToSupportedAndGuardRestores) {
  const Isa before = active_isa();
  {
    IsaGuard guard(Isa::Avx512);
    EXPECT_TRUE(isa_supported(active_isa()));
    // The profile always tracks the installed ISA.
    EXPECT_EQ(active_profile().isa, active_isa());
  }
  EXPECT_EQ(active_isa(), before);
  {
    IsaGuard guard(Isa::Scalar);
    EXPECT_EQ(active_isa(), Isa::Scalar);
  }
  EXPECT_EQ(active_isa(), before);
}

// ---------------------------------------------------------------------------
// Profile defaults / validation
// ---------------------------------------------------------------------------

TEST(TuningProfileTest, ScalarDefaultsMatchTheTilingAnchor) {
  const TuningProfile p = TuningProfile::defaults(Isa::Scalar);
  EXPECT_EQ(p.shapes[0].mr, Tiling<float>::MR);
  EXPECT_EQ(p.shapes[0].nr, Tiling<float>::NR);
  EXPECT_EQ(p.shapes[0].kc, Tiling<float>::KC);
  EXPECT_EQ(p.shapes[0].mc, Tiling<float>::MC);
  EXPECT_EQ(p.shapes[0].nc, Tiling<float>::NC);
  EXPECT_EQ(p.shapes[1].mr, Tiling<double>::MR);
  EXPECT_EQ(p.shapes[1].kc, Tiling<double>::KC);
  EXPECT_EQ(p.shapes[2].nr, Tiling<std::complex<float>>::NR);
  EXPECT_EQ(p.shapes[3].mr, Tiling<std::complex<double>>::MR);
  // The crossover matches the historical use_blocked constants.
  EXPECT_EQ(p.shapes[1].min_m, Tiling<double>::MR);
  EXPECT_DOUBLE_EQ(p.shapes[1].min_mnk, 4096.0);
}

TEST(TuningProfileTest, ValidateRejectsOutOfRangeShapes) {
  TuningProfile p = TuningProfile::defaults(Isa::Scalar);
  std::string why;
  EXPECT_TRUE(validate_profile(p, &why)) << why;
  p.shapes[0].mr = 0;
  EXPECT_FALSE(validate_profile(p, &why));
  EXPECT_NE(why.find("mr"), std::string::npos);
  p = TuningProfile::defaults(Isa::Scalar);
  p.shapes[2].nr = kMaxNR + 1;
  EXPECT_FALSE(validate_profile(p, &why));
  p = TuningProfile::defaults(Isa::Scalar);
  p.shapes[3].mc = 1;  // < mr is inconsistent
  p.shapes[3].mr = 4;
  EXPECT_FALSE(validate_profile(p, &why));
  EXPECT_THROW(set_tuning_profile(p), Error);
}

TEST(TuningProfileTest, SupportedTilesCoverTheDefaults) {
  for (Isa isa : supported_isas()) {
    const TuningProfile p = TuningProfile::defaults(isa);
    const auto ftiles = supported_tiles<float>(isa);
    const auto dtiles = supported_tiles<double>(isa);
    ASSERT_FALSE(ftiles.empty());
    ASSERT_FALSE(dtiles.empty());
    auto has = [](const std::vector<TilePair>& v, int mr, int nr) {
      for (const TilePair& t : v)
        if (t.mr == mr && t.nr == nr) return true;
      return false;
    };
    EXPECT_TRUE(has(ftiles, p.shapes[0].mr, p.shapes[0].nr)) << to_string(isa);
    EXPECT_TRUE(has(dtiles, p.shapes[1].mr, p.shapes[1].nr)) << to_string(isa);
  }
}

TEST(TuningProfileTest, UseBlockedFollowsTheProfileCrossover) {
  TuningProfile p = active_profile();
  p.shapes[1].min_mnk = 1e9;  // nothing short of n=1000 qualifies
  {
    ProfileGuard guard(p);
    EXPECT_FALSE(blas::micro::use_blocked<double>(64, 64, 64));
  }
  EXPECT_TRUE(blas::micro::use_blocked<double>(64, 64, 64));
}

// ---------------------------------------------------------------------------
// Conformance across ISAs, precisions, tiles and tail remainders
// ---------------------------------------------------------------------------

template <typename T>
class TuningConformanceTest : public ::testing::Test {};

using Precisions = ::testing::Types<float, double, std::complex<float>, std::complex<double>>;
TYPED_TEST_SUITE(TuningConformanceTest, Precisions);

TYPED_TEST(TuningConformanceTest, EveryIsaMatchesRefIncludingTails) {
  using T = TypeParam;
  for (Isa isa : supported_isas()) {
    IsaGuard guard(isa);
    const KernelShape& s = shape_of<T>(active_profile());
    // Exact multiples of the tile plus every remainder class around it.
    const index_t ms[] = {1, s.mr - 1, s.mr, 2 * s.mr + 1, 3 * s.mr + 2};
    const index_t ns[] = {1, s.nr, 2 * s.nr + 1, 17};
    for (index_t m : ms)
      for (index_t n : ns)
        for (index_t k : {index_t{1}, index_t{9}, s.kc + 3})
          expect_conformance<T>(std::max<index_t>(m, 1), n, k, to_string(isa));
  }
}

TYPED_TEST(TuningConformanceTest, EveryCompiledTileMatchesRef) {
  using T = TypeParam;
  for (Isa isa : supported_isas()) {
    IsaGuard guard(isa);
    for (const TilePair& t : supported_tiles<T>(isa)) {
      KernelShape s = shape_of<T>(active_profile());
      s.mr = t.mr;
      s.nr = t.nr;
      s.mc = std::max<index_t>(s.mc / t.mr * t.mr, t.mr);
      s.nc = std::max<index_t>(s.nc / t.nr * t.nr, t.nr);
      const index_t m = 2 * t.mr + 1, n = 2 * t.nr + 1, k = 37;
      Rng rng(23);
      std::vector<T> abuf(static_cast<std::size_t>(m * k)), bbuf(static_cast<std::size_t>(k * n)),
          cblk(static_cast<std::size_t>(m * n));
      fill_general(rng, abuf.data(), m, k, m);
      fill_general(rng, bbuf.data(), k, n, k);
      fill_general(rng, cblk.data(), m, n, m);
      auto cref = cblk;
      ConstMatrixView<T> a(abuf.data(), m, k, m);
      ConstMatrixView<T> b(bbuf.data(), k, n, k);
      MatrixView<T> c1(cblk.data(), m, n, m);
      MatrixView<T> c2(cref.data(), m, n, m);
      gemm_blocked_shaped<T>(Trans::NoTrans, Trans::NoTrans, make_scalar<T>(0.9, 0.1), a, b,
                             make_scalar<T>(1.0, 0.0), c1, s);
      blas::gemm_ref<T>(Trans::NoTrans, Trans::NoTrans, make_scalar<T>(0.9, 0.1), a, b,
                        make_scalar<T>(1.0, 0.0), c2);
      ASSERT_LT(max_rel_diff<T>(c1, c2), tol_for<T>(k))
          << to_string(isa) << " tile " << t.mr << "x" << t.nr;
    }
  }
}

// ---------------------------------------------------------------------------
// Bit-reproducibility contract
// ---------------------------------------------------------------------------

TEST(TuningDeterminismTest, SameIsaAndProfileAreBitIdentical) {
  for (Isa isa : supported_isas()) {
    IsaGuard guard(isa);
    const auto r1 = gemm_bits<double>(Trans::NoTrans, Trans::Trans, 67, 45, 300);
    const auto r2 = gemm_bits<double>(Trans::NoTrans, Trans::Trans, 67, 45, 300);
    ASSERT_EQ(std::memcmp(r1.data(), r2.data(), r1.size() * sizeof(double)), 0)
        << to_string(isa);
  }
}

TEST(TuningDeterminismTest, OuterBlockingNeverChangesBits) {
  // MC/NC/MR/NR partition the *output*; only the KC split orders the
  // accumulation. Changing everything but kc must be bit-identical — this
  // is what lets the autotuner move the outer blocking freely and what the
  // balanced NC split relies on.
  for (Isa isa : supported_isas()) {
    IsaGuard guard(isa);
    KernelShape s = shape_of<double>(active_profile());
    const auto base = gemm_bits<double>(Trans::NoTrans, Trans::NoTrans, 70, 90, 110, &s);
    KernelShape mod = s;
    mod.mc = 2 * s.mr;
    mod.nc = 3 * s.nr;
    const auto blocked = gemm_bits<double>(Trans::NoTrans, Trans::NoTrans, 70, 90, 110, &mod);
    ASSERT_EQ(std::memcmp(base.data(), blocked.data(), base.size() * sizeof(double)), 0)
        << to_string(isa) << ": outer blocking changed bits";
  }
}

TEST(TuningDeterminismTest, ScalarTileShapeNeverChangesBits) {
  // Under Isa::Scalar every tile accumulates l-outer — mr/nr are free too.
  IsaGuard guard(Isa::Scalar);
  KernelShape s = shape_of<double>(active_profile());
  const auto base = gemm_bits<double>(Trans::Trans, Trans::NoTrans, 53, 61, 140, &s);
  KernelShape mod = s;
  mod.mr = 7;
  mod.nr = 3;
  mod.mc = 35;
  mod.nc = 27;
  const auto other = gemm_bits<double>(Trans::Trans, Trans::NoTrans, 53, 61, 140, &mod);
  ASSERT_EQ(std::memcmp(base.data(), other.data(), base.size() * sizeof(double)), 0);
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

class TuningPersistTest : public ::testing::Test {
 protected:
  // One file per case: ctest runs every case as its own process, in parallel.
  std::string path_ = ::testing::TempDir() + "vbatch_tuning_" +
                      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".json";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(TuningPersistTest, SaveLoadRoundTripsExactly) {
  TuningProfile p = TuningProfile::defaults(active_isa());
  p.shapes[1].kc = 192;
  p.shapes[1].nc = 384;
  p.shapes[0].min_mnk = 8192.0;
  std::string err;
  ASSERT_TRUE(save_tuning_profile(p, path_, &err)) << err;
  std::string why;
  const auto loaded = load_tuning_profile(path_, &why);
  ASSERT_TRUE(loaded.has_value()) << why;
  EXPECT_TRUE(*loaded == p);
}

TEST_F(TuningPersistTest, ReloadedProfileGivesByteIdenticalResults) {
  const TuningProfile p = active_profile();
  std::string err;
  ASSERT_TRUE(save_tuning_profile(p, path_, &err)) << err;
  const auto before = gemm_bits<double>(Trans::NoTrans, Trans::Trans, 67, 45, 300);
  const auto loaded = load_tuning_profile(path_);
  ASSERT_TRUE(loaded.has_value());
  ProfileGuard guard(*loaded);
  const auto after = gemm_bits<double>(Trans::NoTrans, Trans::Trans, 67, 45, 300);
  ASSERT_EQ(std::memcmp(before.data(), after.data(), before.size() * sizeof(double)), 0);
}

TEST_F(TuningPersistTest, RejectsMissingCorruptAndStaleFiles) {
  std::string why;
  EXPECT_FALSE(load_tuning_profile(path_ + ".nope", &why).has_value());

  std::ofstream(path_) << "this is not json at all";
  EXPECT_FALSE(load_tuning_profile(path_, &why).has_value());
  EXPECT_NE(why.find("not a vbatch tuning file"), std::string::npos);

  // A stale format version must be rejected so the caller re-tunes.
  std::ofstream(path_) << "{\"vbatch_tuning\": true, \"version\": 1, \"isa\": \"scalar\"}";
  EXPECT_FALSE(load_tuning_profile(path_, &why).has_value());
  EXPECT_NE(why.find("stale format version"), std::string::npos);

  // Unknown ISA names and out-of-range fields are rejected, not clamped.
  TuningProfile p = TuningProfile::defaults(Isa::Scalar);
  std::string err;
  ASSERT_TRUE(save_tuning_profile(p, path_, &err)) << err;
  {
    std::ifstream in(path_);
    std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    in.close();
    const auto pos = text.find("\"mr\": 8");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 7, "\"mr\": 999");
    std::ofstream(path_) << text;
  }
  EXPECT_FALSE(load_tuning_profile(path_, &why).has_value());
  EXPECT_NE(why.find("invalid profile"), std::string::npos);
}

TEST_F(TuningPersistTest, CachePathHonoursEnvOverride) {
  ASSERT_EQ(setenv("VBATCH_TUNING_FILE", path_.c_str(), 1), 0);
  EXPECT_EQ(tuning_cache_path(Isa::Avx2), path_);
  unsetenv("VBATCH_TUNING_FILE");
  const std::string def = tuning_cache_path(Isa::Avx2);
  EXPECT_NE(def.find("vbatch/tuning-"), std::string::npos);
  EXPECT_NE(def.find("avx2.json"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Autotuner
// ---------------------------------------------------------------------------

TEST(TuningAutotuneTest, CacheInfoIsSane) {
  const CacheInfo ci = CacheInfo::detect();
  EXPECT_GE(ci.l1d, 4u * 1024u);
  EXPECT_GE(ci.l2, ci.l1d);
  EXPECT_GE(ci.l3, ci.l2);
}

TEST(TuningAutotuneTest, SweepInstallsAValidProfileAndSecondRunLoadsIt) {
  const std::string path = ::testing::TempDir() + "vbatch_autotune_test.json";
  std::remove(path.c_str());
  const TuningProfile before = active_profile();

  BlasTuneSettings s;
  s.cache_path = path;
  s.bench_n = 64;  // keep the sweep fast; candidate ranking is not under test
  s.reps = 1;
  const BlasTuneResult first = ensure_blas_tuned(s);
  EXPECT_FALSE(first.loaded_from_cache);
  EXPECT_GT(first.candidates_swept, 0);
  std::string why;
  EXPECT_TRUE(validate_profile(first.profile, &why)) << why;
  EXPECT_EQ(first.profile.isa, active_isa());
  EXPECT_TRUE(first.profile == active_profile());
  const auto tuned_bits = gemm_bits<double>(Trans::NoTrans, Trans::Trans, 67, 45, 300);

  // Second run: the persisted profile short-circuits the sweep and the
  // engine produces byte-identical factors.
  reset_tuning_profile();
  const BlasTuneResult second = ensure_blas_tuned(s);
  EXPECT_TRUE(second.loaded_from_cache);
  EXPECT_EQ(second.candidates_swept, 0);
  EXPECT_TRUE(second.profile == first.profile);
  const auto reloaded_bits = gemm_bits<double>(Trans::NoTrans, Trans::Trans, 67, 45, 300);
  EXPECT_EQ(std::memcmp(tuned_bits.data(), reloaded_bits.data(),
                        tuned_bits.size() * sizeof(double)),
            0);

  set_tuning_profile(before);
  std::remove(path.c_str());
}

TEST(TuningAutotuneTest, BenchmarkShapeMeasuresSomething) {
  const KernelShape s = shape_of<double>(active_profile());
  EXPECT_GT(benchmark_shape<double>(s, 48, 1), 0.0);
}

TEST(TuningAutotuneTest, HostCalibratedCpuSpecTracksTheActiveIsa) {
  const cpu::CpuSpec spec = cpu::CpuSpec::host_calibrated(/*bench_n=*/48, /*reps=*/1);
  EXPECT_GE(spec.cores, 1);
  EXPECT_GT(spec.core_peak_gflops(Precision::Single), 0.0);
  EXPECT_GT(spec.core_peak_gflops(Precision::Double), 0.0);
  EXPECT_NE(std::string(spec.name).find(to_string(active_isa())), std::string::npos);
}

}  // namespace
