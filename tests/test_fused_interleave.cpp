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
// lda > n included, so a stray write anywhere shows. FusedEarlyExits pins
// the fused launches' early exits against each matrix's failing column.
#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "poison.hpp"
#include "vbatch/blas/blas.hpp"
#include "vbatch/blas/isa.hpp"
#include "vbatch/blas/potf2_lanes.hpp"
#include "vbatch/core/potrf_vbatched.hpp"
#include "vbatch/hetero/potrf_hetero.hpp"
#include "vbatch/kernels/fused_potrf.hpp"
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
      if (n > 0) {
        fill_general<T>(rng, buf.data(), ld, n, ld);  // padding rows hold values too
        fill_spd<T>(rng, buf.data(), n, ld);
      }
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

/// Panels of the given orders (0 allowed), each with its own leading
/// dimension ≥ its order and values in the padding rows, filled SPD, panel
/// k poisoned with poisons[k].
template <typename T>
struct MixedPanels {
  std::vector<index_t> n, ld;
  std::vector<std::vector<T>> data;

  MixedPanels(const std::vector<index_t>& orders, Uplo uplo, const std::vector<Poison>& poisons,
              std::uint64_t seed)
      : n(orders) {
    Rng rng(seed);
    for (std::size_t k = 0; k < n.size(); ++k) {
      ld.push_back(n[k] + static_cast<index_t>((seed + k) % 3));
      std::vector<T> buf(static_cast<std::size_t>(std::max<index_t>(1, ld[k] * n[k])));
      if (n[k] > 0) {
        fill_general<T>(rng, buf.data(), ld[k], n[k], ld[k]);
        fill_spd<T>(rng, buf.data(), n[k], ld[k]);
      }
      plant(poisons[k], MatrixView<T>(buf.data(), n[k], n[k], ld[k]), uplo,
            static_cast<index_t>(seed % 97 + 5 * k));
      data.push_back(std::move(buf));
    }
  }
  MatrixView<T> view(std::size_t k) { return {data[k].data(), n[k], n[k], ld[k]}; }
};

/// One group of panels of mixed orders, factored by potf2_batch (lanes =
/// false) or by the active ISA's lane kernel directly, whatever
/// potf2_batch's lanes-or-scalar rule picks (lanes = true); info and every
/// buffer byte must equal potf2 per panel.
template <typename T>
::testing::AssertionResult factored_like_potf2(Uplo uplo, const std::vector<index_t>& orders,
                                               const std::vector<Poison>& poisons,
                                               std::uint64_t seed, bool lanes) {
  MixedPanels<T> want(orders, uplo, poisons, seed), got(orders, uplo, poisons, seed);
  const std::size_t count = orders.size();
  std::vector<int> want_info(count), got_info(count, -7);
  for (std::size_t k = 0; k < count; ++k) want_info[k] = blas::potf2<T>(uplo, want.view(k));
  if (lanes) {
    const blas::detail::LaneKernels kernels = blas::detail::active_lane_kernels();
    T* ptrs[blas::kMaxPotf2Lanes] = {};
    index_t n[blas::kMaxPotf2Lanes] = {}, ld[blas::kMaxPotf2Lanes];
    int info[blas::kMaxPotf2Lanes];
    for (int l = 0; l < blas::potf2_lanes<T>(); ++l) {
      const auto k = static_cast<std::size_t>(l);
      ld[l] = 1;
      if (k >= count) continue;
      ptrs[l] = got.data[k].data();
      n[l] = got.n[k];
      ld[l] = got.ld[k];
    }
    kernels.of<T>().potf2(uplo == Uplo::Upper, n, ptrs, ld, info);
    std::copy_n(info, count, got_info.begin());
  } else {
    std::vector<MatrixView<T>> views;
    for (std::size_t k = 0; k < count; ++k) views.push_back(got.view(k));
    blas::potf2_batch<T>(uplo, views, got_info);
  }
  for (std::size_t k = 0; k < count; ++k)
    if (want_info[k] != got_info[k] || !same_bytes(want.data[k], got.data[k]))
      return ::testing::AssertionFailure()
             << (lanes ? "lane kernel" : "potf2_batch") << " panel " << k << " of " << count
             << " (order " << orders[k] << ", info " << got_info[k] << " want " << want_info[k]
             << ") differs";
  return ::testing::AssertionSuccess();
}

/// factored_like_potf2 through potf2_batch and, on a vector ISA, through the
/// lane kernel.
template <typename T>
::testing::AssertionResult group_matches(Uplo uplo, const std::vector<index_t>& orders,
                                         const std::vector<Poison>& poisons, std::uint64_t seed) {
  const auto batch = factored_like_potf2<T>(uplo, orders, poisons, seed, false);
  if (!batch || blas::potf2_lanes<T>() == 1) return batch;
  return factored_like_potf2<T>(uplo, orders, poisons, seed, true);
}

/// Groups of 1…W panels with random orders 0…32 (unsorted, so any lane may
/// hold the largest), clean and with every poison in every lane position.
template <typename T>
void sweep_mixed_groups(const char* type) {
  for (Isa isa : host_isas()) {
    IsaGuard guard(isa);
    const int w = blas::potf2_lanes<T>();
    Rng rng(static_cast<std::uint64_t>(w) * 31 + sizeof(T));
    for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
      const std::string what = label(isa, uplo, type);
      auto orders = [&](int count) {
        std::vector<index_t> o(static_cast<std::size_t>(count));
        for (index_t& n : o) n = rng.uniform_int(0, 32);
        return o;
      };
      for (int trial = 0; trial < 8 * w; ++trial) {
        const int count = 1 + trial % w;
        const auto o = orders(count);
        const std::vector<Poison> clean(o.size(), Poison::None);
        const auto seed = static_cast<std::uint64_t>(trial);
        ASSERT_TRUE(group_matches<T>(uplo, o, clean, seed)) << what;
      }
      for (Poison p : kPoisons)
        for (int lane = 0; lane < w; ++lane) {
          // The poisoned panel at `lane` of a partial group (a whole one at
          // lane W − 1), and its order the largest, the smallest or random.
          auto o = orders(lane + 1);
          if (lane % 3 == 0) o[static_cast<std::size_t>(lane)] = 32;
          if (lane % 3 == 1) o[static_cast<std::size_t>(lane)] = std::max<index_t>(1, lane % 4);
          std::vector<Poison> poisons(o.size(), Poison::None);
          poisons[static_cast<std::size_t>(lane)] = p;
          const auto seed = static_cast<std::uint64_t>(100 + lane);
          ASSERT_TRUE(group_matches<T>(uplo, o, poisons, seed)) << what;
          // Every panel poisoned: the sweep stops once every lane failed.
          ASSERT_TRUE(group_matches<T>(uplo, o, std::vector<Poison>(o.size(), p), seed + 1))
              << what;
        }
    }
  }
}

TEST(FusedInterleave, MixedOrderAndPartialGroupsMatchPotf2Float) {
  sweep_mixed_groups<float>("s");
}

TEST(FusedInterleave, MixedOrderAndPartialGroupsMatchPotf2Double) {
  sweep_mixed_groups<double>("d");
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

/// Fused factorization of `sizes` with blocking nb, poisoned by `poison`,
/// against the per-matrix oracle at every host ISA.
template <typename T, typename Factor, typename Poisoner>
void expect_fused_matches_reference(const std::vector<int>& sizes, int nb, Factor&& factor,
                                    const char* type, Poisoner&& poison) {
  for (Isa isa : host_isas()) {
    IsaGuard guard(isa);
    for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
      Queue q;
      Batch<T> batch(q, sizes, 3);
      Rng rng(2016);
      batch.fill_spd(rng);
      poison(batch, uplo);
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
  expect_fused_matches_reference<float>(fused_sizes(32), 32, single_device<float>, "s",
                                        poison_batch<float>);
  expect_fused_matches_reference<double>(fused_sizes(32), 32, single_device<double>, "d",
                                         poison_batch<double>);
}

TEST(FusedInterleave, SingleDeviceMultiStepMatchesPerMatrixMath) {
  expect_fused_matches_reference<float>(fused_sizes(128), 16, single_device<float>, "s",
                                        poison_batch<float>);
  expect_fused_matches_reference<double>(fused_sizes(128), 16, single_device<double>, "d",
                                         poison_batch<double>);
  expect_fused_matches_reference<double>(fused_sizes(128), 24, single_device<double>, "d",
                                         poison_batch<double>);
}

TEST(FusedInterleave, HeteroPoolMatchesPerMatrixMath) {
  expect_fused_matches_reference<float>(fused_sizes(128), 16, hetero_pool<float>, "s",
                                        poison_batch<float>);
  expect_fused_matches_reference<double>(fused_sizes(128), 16, hetero_pool<double>, "d",
                                         poison_batch<double>);
  expect_fused_matches_reference<double>(fused_sizes(32), 32, hetero_pool<double>, "d",
                                         poison_batch<double>);
}

/// Batches shaped like replay_storm's launches: 1–16 matrices of orders
/// uniform in [1, 128], so the diagonal tiles of a step mix orders and the
/// numerics pass forms mixed-order and partial lane groups; every fourth
/// matrix gets a non-positive pivot or a NaN.
template <typename T, typename Factor>
void expect_replay_shaped_matches_reference(Factor&& factor, const char* type) {
  Rng rng(sizeof(T) * 1000 + 28);
  for (int b = 0; b < 6; ++b) {
    std::vector<int> sizes(static_cast<std::size_t>(rng.uniform_int(1, 16)));
    for (int& n : sizes) n = static_cast<int>(rng.uniform_int(1, 128));
    expect_fused_matches_reference<T>(sizes, 32, factor, type, [](Batch<T>& batch, Uplo uplo) {
      for (int i = 0; i < batch.count(); i += 4)
        plant(i % 8 == 0 ? Poison::NotSpd : Poison::NanRef, batch.matrix(i), uplo, 13 * i + 3);
    });
  }
}

TEST(FusedInterleave, ReplayShapedBatchesMatchPerMatrixMath) {
  expect_replay_shaped_matches_reference<float>(single_device<float>, "s");
  expect_replay_shaped_matches_reference<double>(single_device<double>, "d");
  expect_replay_shaped_matches_reference<float>(hetero_pool<float>, "s");
  expect_replay_shaped_matches_reference<double>(hetero_pool<double>, "d");
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

// ---------------------------------------------------------------------------
// The fused launches' early exits follow the failing column.
// ---------------------------------------------------------------------------

template <typename T>
class FusedEarlyExits : public ::testing::Test {};
using Precisions = ::testing::Types<float, double, std::complex<float>, std::complex<double>>;
TYPED_TEST_SUITE(FusedEarlyExits, Precisions);

/// The fused twin of SeparatedMatrixMajor.PanelEarlyExitsFollowTheFailingColumn.
/// Failures are planted at columns 1, nb, nb + 1, 150 and the last (1-based)
/// of order-300 matrices, beside clean ones of orders 300, 40 and 0; order 300
/// runs the sorting driver's single-launch steps as well as its windows. At
/// step column j a block exits once j >= n_i or j >= c_i, its final info.
/// Without sorting every step is one launch over the batch, whose early exits
/// equal that hand count; with sorting a step's launches together run
/// Σ(grid_blocks − early_exits) = the live count. Steps start at the
/// sorting driver's aux_build_window / aux_build_partition sweep.
TYPED_TEST(FusedEarlyExits, FollowTheFailingColumn) {
  using T = TypeParam;
  constexpr int kOrder = 300;
  constexpr int kClean = std::numeric_limits<int>::max();
  const int nb = kernels::choose_fused_nb(sim::DeviceSpec::k40c(), kOrder, sizeof(T));
  const std::vector<int> fail_at{1, nb, nb + 1, 150, kOrder, kClean, kClean, kClean};
  const std::vector<int> sizes{kOrder, kOrder, kOrder, kOrder, kOrder, kOrder, 40, 0};
  auto exits_at = [&](int j) {
    int exits = 0;
    for (std::size_t i = 0; i < sizes.size(); ++i)
      if (j >= sizes[i] || j >= fail_at[i]) ++exits;
    return exits;
  };
  const int count = static_cast<int>(sizes.size());
  for (Uplo uplo : {Uplo::Lower, Uplo::Upper})
    for (bool sorting : {false, true}) {
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
      opts.path = PotrfPath::Fused;
      opts.implicit_sorting = sorting;
      potrf_vbatched<T>(q, uplo, batch, opts);

      std::vector<int> want, got;
      for (int j = 0; j < kOrder; j += nb)
        want.push_back(sorting ? count - exits_at(j) : exits_at(j));
      for (const auto& r : q.device().timeline().records()) {
        if (r.name == "aux_build_window" || r.name == "aux_build_partition") got.push_back(0);
        if (r.name != "fused_potrf_step") continue;
        if (sorting) {
          ASSERT_FALSE(got.empty()) << "a fused launch before the first step's sweep";
          got.back() += r.grid_blocks - r.early_exits;
        } else {
          EXPECT_EQ(r.grid_blocks, count);
          got.push_back(r.early_exits);
        }
      }
      const std::string what = std::string(to_string(uplo)) + (sorting ? ", sorting" : "") +
                               ", nb=" + std::to_string(nb);
      EXPECT_EQ(got, want) << what;
      for (std::size_t i = 0; i < sizes.size(); ++i)
        EXPECT_EQ(batch.info()[i], fail_at[i] == kClean ? 0 : fail_at[i])
            << what << ", matrix " << i;
    }
}

}  // namespace
