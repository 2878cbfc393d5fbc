// FusedInterleave — the batch-interleaved potf2 (blas::potf2_batch) and the
// fused step's numerics pass that groups diagonal tiles for it.
//
// The contract under test is bit identity: every panel's factor bytes and
// info equal blas::potf2 on that panel alone, and a fused factorization
// equals running fused_step_math matrix by matrix, at every ISA the host
// supports, for both precisions and both triangles, whatever the lane
// position of a panel and whatever sits in it (NaN, ±Inf and denormals in
// the referenced triangle, NaN in the unreferenced one, a non-positive
// pivot at any column). Whole buffers are compared, padding rows of
// lda > n included, so a stray write anywhere shows.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "poison.hpp"
#include "vbatch/blas/blas.hpp"
#include "vbatch/blas/isa.hpp"
#include "vbatch/core/potrf_vbatched.hpp"
#include "vbatch/hetero/potrf_hetero.hpp"
#include "vbatch/kernels/fused_step_math.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/rng.hpp"
#include "vbatch/util/thread_pool.hpp"

namespace {

using namespace vbatch;
using blas::micro::Isa;
using blas::micro::IsaGuard;
using vbatch::testing::kPoisons;
using vbatch::testing::plant;
using vbatch::testing::Poison;

/// Every x86 ISA the host can run, scalar first.
std::vector<Isa> host_isas() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::Scalar, Isa::Sse2, Isa::Avx2, Isa::Avx512})
    if (blas::micro::isa_supported(isa)) out.push_back(isa);
  return out;
}

std::string label(Isa isa, Uplo uplo, const char* type) {
  return std::string(to_string(isa)) + "/" + (uplo == Uplo::Lower ? "L" : "U") + "/" + type;
}

/// Byte equality of two buffers (memcmp: NaN payloads count, an empty
/// n = 0 buffer has no data pointer to compare).
template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// `count` panels of order n with leading dimension ld, filled SPD, panel k
/// poisoned with poisons[k] (None past the end).
template <typename T>
struct Panels {
  index_t n, ld;
  std::vector<std::vector<T>> data;

  Panels(int count, index_t order, index_t lda, Uplo uplo, const std::vector<Poison>& poisons,
         std::uint64_t seed)
      : n(order), ld(lda) {
    Rng rng(seed);
    for (int k = 0; k < count; ++k) {
      std::vector<T> buf(static_cast<std::size_t>(std::max<index_t>(1, ld * n)));
      fill_general<T>(rng, buf.data(), ld, n, ld);  // padding rows hold values too
      if (n > 0) fill_spd<T>(rng, buf.data(), n, ld);
      const Poison p = k < static_cast<int>(poisons.size()) ? poisons[static_cast<std::size_t>(k)]
                                                             : Poison::None;
      plant(p, MatrixView<T>(buf.data(), n, n, ld), uplo, 5 * k + 3);
      data.push_back(std::move(buf));
    }
  }
  std::vector<MatrixView<T>> views() {
    std::vector<MatrixView<T>> v;
    for (auto& d : data) v.emplace_back(d.data(), n, n, ld);
    return v;
  }
};

/// potf2_batch against looped potf2 on identical inputs: info equal, every
/// buffer byte equal.
template <typename T>
void expect_batch_matches(Uplo uplo, int count, index_t n, index_t ld,
                          const std::vector<Poison>& poisons, std::uint64_t seed,
                          const std::string& what) {
  Panels<T> got(count, n, ld, uplo, poisons, seed);
  Panels<T> want(count, n, ld, uplo, poisons, seed);
  std::vector<int> got_info(static_cast<std::size_t>(count), -7);
  const auto views = got.views();
  blas::potf2_batch<T>(uplo, views, got_info);
  for (int k = 0; k < count; ++k) {
    const auto kk = static_cast<std::size_t>(k);
    const int want_info = blas::potf2<T>(uplo, want.views()[kk]);
    ASSERT_EQ(want_info, got_info[kk]) << what << " n=" << n << " panel " << k;
    ASSERT_TRUE(same_bytes(want.data[kk], got.data[kk]))
        << what << " n=" << n << " ld=" << ld << " count=" << count << " panel " << k;
  }
}

template <typename T>
void sweep_orders_and_residues(const char* type) {
  for (Isa isa : host_isas()) {
    IsaGuard guard(isa);
    const int w = blas::potf2_lanes<T>();
    if (isa == Isa::Scalar) EXPECT_EQ(w, 1);
    else EXPECT_EQ(w, (isa == Isa::Sse2 ? 16 : isa == Isa::Avx2 ? 32 : 64) / int(sizeof(T)));
    for (Uplo uplo : {Uplo::Lower, Uplo::Upper})
      for (index_t n = 0; n <= 32; ++n)
        for (int residue = 0; residue < w; ++residue)
          expect_batch_matches<T>(uplo, w + residue, n, n + (n + residue) % 3, {},
                                  static_cast<std::uint64_t>(100 * n + residue),
                                  label(isa, uplo, type));
  }
}

TEST(FusedInterleave, Potf2BatchMatchesPotf2AtEveryOrderAndResidueFloat) {
  sweep_orders_and_residues<float>("s");
}

TEST(FusedInterleave, Potf2BatchMatchesPotf2AtEveryOrderAndResidueDouble) {
  sweep_orders_and_residues<double>("d");
}

template <typename T>
void sweep_edge_cases(const char* type) {
  for (Isa isa : host_isas()) {
    IsaGuard guard(isa);
    const int w = blas::potf2_lanes<T>();
    for (Uplo uplo : {Uplo::Lower, Uplo::Upper})
      for (index_t n : {1, 2, 3, 7, 16, 31, 32})
        for (Poison p : kPoisons) {
          // The poisoned panel in every lane position of a two-group batch.
          for (int lane = 0; lane < w; ++lane) {
            std::vector<Poison> poisons(static_cast<std::size_t>(lane), Poison::None);
            poisons.push_back(p);
            expect_batch_matches<T>(uplo, 2 * w, n, n + 1, poisons, 7 + n,
                                    label(isa, uplo, type));
          }
          // Every lane poisoned (at different spots): all-lanes-failed exit.
          expect_batch_matches<T>(uplo, w, n, n, std::vector<Poison>(w, p), 11 + n,
                                  label(isa, uplo, type));
        }
  }
}

TEST(FusedInterleave, Potf2BatchKeepsEdgeCaseBitsInEveryLaneFloat) {
  sweep_edge_cases<float>("s");
}

TEST(FusedInterleave, Potf2BatchKeepsEdgeCaseBitsInEveryLaneDouble) {
  sweep_edge_cases<double>("d");
}

TEST(FusedInterleave, Potf2BatchRejectsMixedOrdersInOneGroup) {
  IsaGuard guard(blas::micro::detect_isa());
  const int w = blas::potf2_lanes<double>();
  if (w == 1) GTEST_SKIP() << "no vector ISA on this host";
  std::vector<double> a(64, 0.0);
  std::vector<MatrixView<double>> views;
  for (int l = 0; l < w; ++l) {
    const index_t n = l == 1 ? 3 : 4;  // lane 1 breaks the group's order
    views.emplace_back(a.data(), n, n, 8);
  }
  std::vector<int> info(static_cast<std::size_t>(w));
  EXPECT_THROW(blas::potf2_batch<double>(Uplo::Lower, views, info), Error);
}

// ---------------------------------------------------------------------------
// The fused step's numerics pass, single device and heterogeneous pool.
// ---------------------------------------------------------------------------

/// A batch of orders 0…nmax, 40 copies each: whole lane groups at every W
/// and a tail at most.
std::vector<int> fused_sizes(int nmax) {
  std::vector<int> sizes;
  for (int n : {0, 1, 2, 5, 8, 13, 16, 17, 31, 32, 33, 47, 64, 65, 100, 127, 128}) {
    if (n > nmax) continue;
    for (int c = 0; c < 40; ++c) sizes.push_back(n);
  }
  return sizes;
}

/// Poisons the first 16 copies of every order — every lane position of the
/// first group at any W — with a non-positive pivot at varying columns
/// (hence varying steps) or a NaN; the other copies stay SPD.
template <typename T>
void poison_batch(Batch<T>& batch, Uplo uplo) {
  const auto sizes = batch.sizes();
  int copy = 0;
  for (int i = 0; i < batch.count(); ++i) {
    copy = (i > 0 && sizes[static_cast<std::size_t>(i)] == sizes[static_cast<std::size_t>(i - 1)])
               ? copy + 1
               : 0;
    if (copy < 16)
      plant(copy % 3 == 2 ? Poison::NanRef : Poison::NotSpd, batch.matrix(i), uplo, 7 * copy + 1);
  }
}

/// Matrix i's whole lda × n storage, padding rows included.
template <typename T>
std::vector<T> storage(Batch<T>& batch, int i) {
  const MatrixView<T> a = batch.matrix(i);
  return std::vector<T>(a.data(), a.data() + a.ld() * a.cols());
}

/// The per-matrix oracle: fused_step_math step by step until the matrix is
/// done or fails, exactly what the fused kernel did per block before the
/// numerics pass grouped diagonal tiles.
template <typename T>
void reference_factor(std::vector<T>& a, index_t n, index_t ld, Uplo uplo, int nb, int& info) {
  info = 0;
  MatrixView<T> view(a.data(), n, n, ld);
  for (int step = 0; static_cast<index_t>(step) * nb < n; ++step) {
    info = kernels::fused_step_math<T>(uplo, view, step, nb);
    if (info != 0) return;
  }
}

template <typename T, typename Factor>
void expect_fused_matches_reference(int nmax, int nb, Factor&& factor, const char* type) {
  const auto sizes = fused_sizes(nmax);
  for (Isa isa : host_isas()) {
    IsaGuard guard(isa);
    for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
      Queue q;
      Batch<T> batch(q, sizes, 3);
      Rng rng(2016);
      batch.fill_spd(rng);
      poison_batch(batch, uplo);
      std::vector<std::vector<T>> want;
      for (int i = 0; i < batch.count(); ++i) want.push_back(storage(batch, i));

      PotrfOptions opts;
      opts.path = PotrfPath::Fused;
      opts.fused_nb = nb;
      factor(q, uplo, batch, opts);

      const std::string what = label(isa, uplo, type) + " nb=" + std::to_string(nb);
      for (int i = 0; i < batch.count(); ++i) {
        const auto k = static_cast<std::size_t>(i);
        const index_t n = sizes[k];
        int want_info = 0;
        reference_factor<T>(want[k], n, batch.ldas()[k], uplo, nb, want_info);
        ASSERT_EQ(want_info, batch.info()[k]) << what << ": info of matrix " << i << " (n=" << n
                                              << ")";
        const auto got = storage(batch, i);
        ASSERT_TRUE(same_bytes(want[k], got))
            << what << ": matrix " << i << " (n=" << n << ") differs";
      }
    }
  }
}

template <typename T>
void single_device(Queue& q, Uplo uplo, Batch<T>& batch, const PotrfOptions& opts) {
  potrf_vbatched<T>(q, uplo, batch, opts);
}

template <typename T>
void hetero_pool(Queue&, Uplo uplo, Batch<T>& batch, const PotrfOptions& opts) {
  hetero::DevicePool pool = hetero::DevicePool::parse("cpu,k40c,p100");
  hetero::HeteroOptions hopts;
  hopts.potrf = opts;
  hetero::potrf_vbatched_hetero<T>(pool, uplo, batch, hopts);
}

TEST(FusedInterleave, SingleDeviceWholeMatrixStepMatchesPerMatrixMath) {
  expect_fused_matches_reference<float>(32, 32, single_device<float>, "s");
  expect_fused_matches_reference<double>(32, 32, single_device<double>, "d");
}

TEST(FusedInterleave, SingleDeviceMultiStepMatchesPerMatrixMath) {
  expect_fused_matches_reference<float>(128, 16, single_device<float>, "s");
  expect_fused_matches_reference<double>(128, 16, single_device<double>, "d");
  expect_fused_matches_reference<double>(128, 24, single_device<double>, "d");
}

TEST(FusedInterleave, HeteroPoolMatchesPerMatrixMath) {
  expect_fused_matches_reference<float>(128, 16, hetero_pool<float>, "s");
  expect_fused_matches_reference<double>(128, 16, hetero_pool<double>, "d");
  expect_fused_matches_reference<double>(32, 32, hetero_pool<double>, "d");
}

TEST(FusedInterleave, ResultsDoNotDependOnWorkerCount) {
  const auto sizes = fused_sizes(64);
  std::vector<std::vector<double>> first;
  for (unsigned threads : {1u, 4u}) {
    util::set_host_threads(threads);
    Queue q;
    Batch<double> batch(q, sizes, 1);
    Rng rng(5);
    batch.fill_spd(rng);
    poison_batch(batch, Uplo::Lower);
    PotrfOptions opts;
    opts.path = PotrfPath::Fused;
    potrf_vbatched<double>(q, Uplo::Lower, batch, opts);
    std::vector<std::vector<double>> got;
    for (int i = 0; i < batch.count(); ++i) got.push_back(batch.copy_matrix(i));
    if (first.empty()) {
      first = std::move(got);
      continue;
    }
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_TRUE(same_bytes(first[i], got[i]))
          << "matrix " << i;
  }
  util::set_host_threads(0);
}

}  // namespace
