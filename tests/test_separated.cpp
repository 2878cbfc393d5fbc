// SeparatedMatrixMajor — the separated path's matrix-major numerics.
//
// In Full mode the separated driver factors every matrix with one
// blas::potrf before its first launch and runs its launches as cost passes;
// the panel releases each matrix's final info at the inner step that holds
// the failing column. Under test: the factors and info are blas::potrf's
// bit for bit (whole buffers, lda padding included, at 1 and 4 workers, on
// one device and on a pool), the panel's early exits follow the failing
// column, and edge-case values at every panel position give blas::potrf's
// info while clean matrices stay bit-exact.
#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "poison.hpp"
#include "vbatch/blas/blas.hpp"
#include "vbatch/blas/isa.hpp"
#include "vbatch/core/potrf_vbatched.hpp"
#include "vbatch/hetero/potrf_hetero.hpp"
#include "vbatch/util/rng.hpp"
#include "vbatch/util/thread_pool.hpp"

namespace {

using namespace vbatch;
using vbatch::testing::kPoisons;
using vbatch::testing::plant;
using vbatch::testing::Poison;

/// Matrix i's whole lda × n storage, padding rows included.
template <typename T>
std::vector<T> storage(Batch<T>& batch, int i) {
  const MatrixView<T> a = batch.matrix(i);
  return std::vector<T>(a.data(), a.data() + a.ld() * a.cols());
}

/// Byte equality (memcmp: NaN payloads count).
template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// The oracle: blas::potrf on a copy of matrix i's storage; returns its info.
template <typename T>
int blas_factor(std::vector<T>& a, index_t n, index_t ld, Uplo uplo) {
  return n == 0 ? 0 : blas::potrf<T>(uplo, MatrixView<T>(a.data(), n, n, ld));
}

/// Runs the separated path on one k40c or on the cpu,k40c,p100 pool.
template <typename T>
void factor_separated(Uplo uplo, Batch<T>& batch, bool pooled) {
  PotrfOptions opts;
  opts.path = PotrfPath::Separated;
  if (pooled) {
    hetero::DevicePool pool = hetero::DevicePool::parse("cpu,k40c,p100");
    hetero::HeteroOptions hopts;
    hopts.potrf = opts;
    hetero::potrf_vbatched_hetero<T>(pool, uplo, batch, hopts);
  } else {
    Queue q;
    potrf_vbatched<T>(q, uplo, batch, opts);
  }
}

template <typename T>
class SeparatedMatrixMajor : public ::testing::Test {};
using Precisions = ::testing::Types<float, double, std::complex<float>, std::complex<double>>;
TYPED_TEST_SUITE(SeparatedMatrixMajor, Precisions);

TYPED_TEST(SeparatedMatrixMajor, FactorsAreBlasPotrfBitForBit) {
  using T = TypeParam;
  const std::vector<int> sizes{0, 1, 31, 63, 64, 65, 128, 129, 300};
  for (int pad : {0, 3})
    for (Uplo uplo : {Uplo::Lower, Uplo::Upper})
      for (unsigned threads : {1u, 4u})
        for (bool pooled : {false, true}) {
          util::set_host_threads(threads);
          Queue q;
          Batch<T> batch(q, sizes, pad);
          Rng rng(2016);
          batch.fill_spd(rng);
          batch.matrix(7)(100, 100) = T(-1);  // n = 129 fails at column 101
          std::vector<std::vector<T>> want;
          for (int i = 0; i < batch.count(); ++i) want.push_back(storage(batch, i));

          factor_separated<T>(uplo, batch, pooled);

          const std::string what = std::string(to_string(uplo)) + " pad=" + std::to_string(pad) +
                                   ", " + std::to_string(threads) + " workers" +
                                   (pooled ? ", pool" : ", k40c");
          for (int i = 0; i < batch.count(); ++i) {
            const auto k = static_cast<std::size_t>(i);
            const int want_info = blas_factor<T>(want[k], sizes[k], batch.ldas()[k], uplo);
            EXPECT_EQ(batch.info()[k], want_info) << what << ", matrix " << i;
            EXPECT_TRUE(same_bytes(storage(batch, i), want[k]))
                << what << ", matrix " << i << " (n=" << sizes[k] << ")";
          }
          EXPECT_EQ(batch.info()[7], 101) << what;
        }
  util::set_host_threads(0);
}

/// Failures planted at columns 1, 16, 17, 64, 65, 100 and the last (1-based)
/// of order-130 matrices, beside clean ones of orders 130, 40 and 0. Every
/// vbatched_potf2_panel record's early exits equal the hand count: at inner
/// step column j a block exits once j ≥ n_i or j ≥ c_i, its final info.
TYPED_TEST(SeparatedMatrixMajor, PanelEarlyExitsFollowTheFailingColumn) {
  using T = TypeParam;
  constexpr int kOrder = 130;
  constexpr int kClean = std::numeric_limits<int>::max();
  const std::vector<int> fail_at{1, 16, 17, 64, 65, 100, kOrder, kClean, kClean, kClean};
  const std::vector<int> sizes{kOrder, kOrder, kOrder, kOrder, kOrder,
                               kOrder, kOrder, kOrder, 40,     0};
  const int NB = detail::default_separated_nb(sizeof(T));
  for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
    Queue q;
    Batch<T> batch(q, sizes, 1);
    Rng rng(77);
    batch.fill_spd(rng);
    for (std::size_t i = 0; i < sizes.size(); ++i)
      if (fail_at[i] != kClean) {
        const index_t c = fail_at[i] - 1;
        batch.matrix(static_cast<int>(i))(c, c) = T(-1);
      }
    PotrfOptions opts;
    opts.path = PotrfPath::Separated;
    potrf_vbatched<T>(q, uplo, batch, opts);

    std::vector<int> want_exits;
    for (int p = 0; p < kOrder; p += NB)
      for (int s = 0; 16 * s < NB; ++s) {
        const int j = p + 16 * s;
        int exits = 0;
        for (std::size_t i = 0; i < sizes.size(); ++i)
          if (j >= sizes[i] || j >= fail_at[i]) ++exits;
        want_exits.push_back(exits);
      }
    std::vector<int> got_exits;
    for (const auto& r : q.device().timeline().records())
      if (r.name == "vbatched_potf2_panel") got_exits.push_back(r.early_exits);
    EXPECT_EQ(got_exits, want_exits) << to_string(uplo) << ", NB=" << NB;
    for (std::size_t i = 0; i < sizes.size(); ++i)
      EXPECT_EQ(batch.info()[i], fail_at[i] == kClean ? 0 : fail_at[i])
          << to_string(uplo) << ", matrix " << i;
  }
}

/// The fused suite's poison sweep on the separated path: every poison at
/// every panel position (a column inside each 16-wide inner step of every
/// panel of an order-200 matrix), at every host ISA, both triangles. Info
/// equals blas::potrf's on the original matrix and every buffer, the clean
/// ones included, is blas::potrf's byte for byte.
template <typename T>
void expect_poison_sweep_matches_blas(const char* type) {
  constexpr index_t kOrder = 200;
  std::vector<int> sizes;
  std::vector<std::pair<Poison, index_t>> plan;
  for (Poison p : kPoisons)
    for (index_t c = 5; c < kOrder; c += 16) {
      sizes.push_back(static_cast<int>(kOrder));
      plan.emplace_back(p, c);
    }
  for (int n : {200, 65, 17, 0}) {
    sizes.push_back(n);
    plan.emplace_back(Poison::None, 0);
  }
  for (auto isa : {blas::micro::Isa::Scalar, blas::micro::Isa::Sse2, blas::micro::Isa::Avx2,
                   blas::micro::Isa::Avx512}) {
    if (!blas::micro::isa_supported(isa)) continue;
    blas::micro::IsaGuard guard(isa);
    for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
      Queue q;
      Batch<T> batch(q, sizes, 2);
      Rng rng(11);
      batch.fill_spd(rng);
      for (std::size_t i = 0; i < plan.size(); ++i) {
        const auto [p, c] = plan[i];
        plant(p, batch.matrix(static_cast<int>(i)), uplo, c + kOrder * static_cast<index_t>(i));
      }
      std::vector<std::vector<T>> want;
      for (int i = 0; i < batch.count(); ++i) want.push_back(storage(batch, i));
      PotrfOptions opts;
      opts.path = PotrfPath::Separated;
      potrf_vbatched<T>(q, uplo, batch, opts);

      const std::string what = std::string(to_string(isa)) + "/" + std::string(to_string(uplo)) +
                               "/" + type;
      for (int i = 0; i < batch.count(); ++i) {
        const auto k = static_cast<std::size_t>(i);
        const int want_info = blas_factor<T>(want[k], sizes[k], batch.ldas()[k], uplo);
        ASSERT_EQ(batch.info()[k], want_info) << what << ", matrix " << i;
        ASSERT_TRUE(same_bytes(storage(batch, i), want[k])) << what << ", matrix " << i;
        if (plan[k].first == Poison::None || plan[k].first == Poison::NanUnref) {
          EXPECT_EQ(want_info, 0) << what << ", matrix " << i;
        } else if (plan[k].first == Poison::NotSpd) {
          EXPECT_EQ(want_info, plan[k].second + 1) << what << ", matrix " << i;
        }
      }
    }
  }
}

TEST(SeparatedMatrixMajorPoisons, InfoMatchesBlasPotrfAtEveryPanelPosition) {
  expect_poison_sweep_matches_blas<float>("s");
  expect_poison_sweep_matches_blas<double>("d");
}

}  // namespace
