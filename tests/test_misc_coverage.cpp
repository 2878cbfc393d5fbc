// Coverage for surfaces not exercised elsewhere: container move semantics,
// energy timeline slicing, zero-size operands in the general triangular
// kernels, warp rounding helpers, and error formatting.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "vbatch/blas/blas.hpp"
#include "vbatch/core/batch.hpp"
#include "vbatch/core/geqrf_vbatched.hpp"
#include "vbatch/core/getrf_vbatched.hpp"
#include "vbatch/core/potrf_vbatched.hpp"
#include "vbatch/core/size_dist.hpp"
#include "vbatch/energy/energy_meter.hpp"
#include "vbatch/kernels/common.hpp"
#include "vbatch/kernels/trsm_vbatched.hpp"
#include "vbatch/util/error.hpp"

namespace {

using namespace vbatch;

// ---------------------------------------------------------------------------
// Containers
// ---------------------------------------------------------------------------

/// Builds every arena-slab container over per-item extents, exposes the
/// first element of item i, and checks item i's extent (and, for the batch
/// types, its metadata and first element read back through matrix(i)).
template <typename C>
struct ContainerAccess;
/// Shared by both batch types: the rows/cols/lda arrays say item i is
/// extent × extent, the info array kept its values, and matrix(i) built from
/// them reads `first` at (0, 0).
inline void expect_matrix(RectBatch<double>& c, int i, int extent, double first) {
  EXPECT_EQ(c.rows()[i], extent);
  EXPECT_EQ(c.cols()[i], extent);
  EXPECT_EQ(c.ldas()[i], extent);
  EXPECT_EQ(c.info()[i], 7);
  const auto m = c.matrix(i);
  EXPECT_EQ(m.rows(), extent);
  EXPECT_EQ(m.cols(), extent);
  EXPECT_EQ(m.ld(), extent);
  EXPECT_EQ(m(0, 0), first);
}
template <>
struct ContainerAccess<Batch<double>> {
  static Batch<double> make(Queue& q, std::span<const int> n) { return Batch<double>(q, n); }
  static double* item(Batch<double>& c, int i) { return c.device_ptrs()[i]; }
  static void mark(Batch<double>& c, int i) { c.info()[i] = 7; }
  static void expect_item(Batch<double>& c, int i, int extent, double first) {
    EXPECT_EQ(c.sizes()[i], extent);
    expect_matrix(c, i, extent, first);
  }
};
template <>
struct ContainerAccess<RectBatch<double>> {
  static RectBatch<double> make(Queue& q, std::span<const int> n) {
    return RectBatch<double>(q, n, n);
  }
  static double* item(RectBatch<double>& c, int i) { return c.device_ptrs()[i]; }
  static void mark(RectBatch<double>& c, int i) { c.info()[i] = 7; }
  static void expect_item(RectBatch<double>& c, int i, int extent, double first) {
    expect_matrix(c, i, extent, first);
  }
};
template <typename T>
struct ContainerAccess<SlabArrays<T>> {
  static SlabArrays<T> make(Queue& q, std::span<const int> n) { return SlabArrays<T>(q, n); }
  static T* item(SlabArrays<T>& c, int i) { return c.ptrs()[i]; }
  static void mark(SlabArrays<T>&, int) {}
  static void expect_item(SlabArrays<T>& c, int i, int extent, T first) {
    ASSERT_EQ(c.item(i).size(), static_cast<std::size_t>(extent));
    EXPECT_EQ(c.item(i)[0], first);
  }
};

template <typename C>
class BatchContainer : public ::testing::Test {};
using Containers =
    ::testing::Types<Batch<double>, RectBatch<double>, PivotArrays, TauArrays<double>>;
TYPED_TEST_SUITE(BatchContainer, Containers);

TYPED_TEST(BatchContainer, MoveTransfersOwnership) {
  using Access = ContainerAccess<TypeParam>;
  Queue q;
  const std::size_t before = q.device().mem_used();
  {
    const std::vector<int> sizes{8, 16};
    TypeParam a = Access::make(q, sizes);
    *Access::item(a, 1) = 42;
    Access::mark(a, 1);
    TypeParam b(std::move(a));
    EXPECT_EQ(b.count(), 2);
    EXPECT_EQ(*Access::item(b, 1), 42);  // data survived the move
    Access::expect_item(b, 1, 16, 42);   // so did the extents and metadata
  }
  EXPECT_EQ(q.device().mem_used(), before);  // single free, no double free
}

TYPED_TEST(BatchContainer, ArenaAccountingRoundTrips) {
  using Access = ContainerAccess<TypeParam>;
  Queue q;
  const std::size_t before = q.device().mem_used();
  {
    const std::vector<int> sizes{32, 64, 0};
    TypeParam a = Access::make(q, sizes);
    EXPECT_GT(q.device().mem_used(), before);
  }
  EXPECT_EQ(q.device().mem_used(), before);
}

TEST(BatchContainer, ZeroSizeMatrixSupported) {
  Queue q;
  std::vector<int> sizes{0, 4};
  Batch<double> a(q, sizes);
  EXPECT_EQ(a.max_size(), 4);
  EXPECT_EQ(a.copy_matrix(0).size(), 0u);
}

TEST(BatchContainer, NegativeSizeRejected) {
  Queue q;
  std::vector<int> sizes{4, -1};
  EXPECT_THROW(Batch<double>(q, sizes), Error);
}

TEST(BatchContainer, ArenaChargesEveryByteAndOverflowsAtTheSameCount) {
  // A square batch charges its n, lda and info arrays (one int per matrix
  // each), its payload pointer array and its payload slab (Σ lda·n
  // elements). The metadata arrays are charged, not allocated; the byte
  // count at which a batch stops fitting is what it always was.
  const std::vector<int> sizes{3, 5, 0};
  constexpr int kPad = 2;  // lda = 5, 7, 2
  const std::size_t need =
      3 * 3 * sizeof(int) + 3 * sizeof(double*) + (5 * 3 + 7 * 5 + 2 * 0) * sizeof(double);
  for (const sim::ExecMode mode : {sim::ExecMode::Full, sim::ExecMode::TimingOnly}) {
    sim::DeviceSpec spec = sim::DeviceSpec::k40c();
    spec.global_mem_bytes = need;
    Queue exact(spec, mode);
    {
      const Batch<double> fits(exact, sizes, kPad);
      EXPECT_EQ(exact.device().mem_used(), need);
    }
    EXPECT_EQ(exact.device().mem_used(), 0u);
    spec.global_mem_bytes = need - 1;
    Queue tight(spec, mode);
    try {
      const Batch<double> over(tight, sizes, kPad);
      ADD_FAILURE() << "a batch one byte over the arena fitted";
    } catch (const Error& e) {
      EXPECT_EQ(e.status(), Status::OutOfDeviceMemory);
    }
    EXPECT_EQ(tight.device().mem_used(), 0u);  // the partial batch released its charges
    // An empty array still charges one byte, as an empty allocation does.
    spec.global_mem_bytes = 1 + sizeof(double);
    Queue tiny(spec, mode);
    {
      const SlabArrays<double> empty(tiny, std::span<const int>{});
      EXPECT_EQ(tiny.device().mem_used(), 1 + sizeof(double));
    }
    EXPECT_EQ(tiny.device().mem_used(), 0u);
  }
}

TEST(RectBatchContainer, MismatchedDimensionArraysRejected) {
  Queue q;
  std::vector<int> m{4, 5}, n{4};
  EXPECT_THROW(RectBatch<double>(q, m, n), Error);
}

// ---------------------------------------------------------------------------
// Energy timeline slicing
// ---------------------------------------------------------------------------

TEST(EnergySlicing, T0ExcludesEarlierKernels) {
  Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  Rng rng(2);
  auto sizes = uniform_sizes(rng, 100, 96);
  Batch<double> b1(q, sizes);
  potrf_vbatched<double>(q, Uplo::Lower, b1);
  const double mid = q.time();
  Batch<double> b2(q, sizes);
  potrf_vbatched<double>(q, Uplo::Lower, b2);

  const auto whole = energy::gpu_run_energy(q.spec(), energy::PowerModel::k40c(),
                                            energy::PowerModel::dual_e5_2670(),
                                            q.device().timeline(), Precision::Double, 0.0);
  const auto second = energy::gpu_run_energy(q.spec(), energy::PowerModel::k40c(),
                                             energy::PowerModel::dual_e5_2670(),
                                             q.device().timeline(), Precision::Double, mid);
  EXPECT_GT(whole.joules, second.joules);
  EXPECT_NEAR(second.seconds, whole.seconds - mid, whole.seconds * 1e-9);
}

// ---------------------------------------------------------------------------
// General triangular kernels, degenerate shapes
// ---------------------------------------------------------------------------

TEST(TriangularGeneral, ZeroSizeMatricesExitCleanly) {
  sim::Device dev(sim::DeviceSpec::k40c());
  Rng rng(3);
  const std::vector<int> m{0, 6}, n{4, 0};  // one empty per matrix
  std::vector<std::vector<double>> tris(2), bs(2);
  std::vector<double*> tp, bp;
  std::vector<int> lda{1, 6}, ldb{1, 6};
  tris[0].resize(1);
  tris[1].resize(36);
  bs[0].resize(4);
  bs[1].resize(36);
  fill_general(rng, tris[1].data(), 6, 6, 6);
  for (int d = 0; d < 6; ++d) tris[1][static_cast<std::size_t>(d + d * 6)] = 3.0;
  for (auto& t : tris) tp.push_back(t.data());
  for (auto& b : bs) bp.push_back(b.data());

  kernels::TriangularVbatchedArgs<double> args;
  args.side = Side::Left;
  args.a = tp.data();
  args.lda = lda;
  args.b = bp.data();
  args.ldb = ldb;
  args.m = m;
  args.n = n;
  args.max_m = 6;
  args.max_n = 4;
  EXPECT_NO_THROW(kernels::launch_trsm_general(dev, args));
  EXPECT_NO_THROW(kernels::trsm_general_numerics(args));
}

TEST(KernelHelpers, RoundUpWarpBounds) {
  const auto spec = sim::DeviceSpec::k40c();
  EXPECT_EQ(kernels::round_up_warp(spec, 1), 32);
  EXPECT_EQ(kernels::round_up_warp(spec, 32), 32);
  EXPECT_EQ(kernels::round_up_warp(spec, 33), 64);
  EXPECT_EQ(kernels::round_up_warp(spec, 5000), spec.max_threads_per_block);
}

// ---------------------------------------------------------------------------
// Error formatting
// ---------------------------------------------------------------------------

TEST(Errors, StatusStringsAndMessageComposition) {
  EXPECT_STREQ(to_string(Status::OutOfDeviceMemory), "out of device memory");
  EXPECT_STREQ(to_string(Status::LaunchFailure), "kernel launch failure");
  try {
    throw_error(Status::InvalidArgument, "test message");
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::InvalidArgument);
    EXPECT_NE(std::string(e.what()).find("test message"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("invalid argument"), std::string::npos);
  }
}

TEST(Errors, RequirePassesAndThrows) {
  EXPECT_NO_THROW(require(true, "fine"));
  EXPECT_THROW(require(false, "broken"), Error);
}

// ---------------------------------------------------------------------------
// Queue basics
// ---------------------------------------------------------------------------

TEST(Queue, ModesAndClockExposure) {
  Queue qf(sim::DeviceSpec::k40c(), sim::ExecMode::Full);
  Queue qt(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  EXPECT_TRUE(qf.full());
  EXPECT_FALSE(qt.full());
  EXPECT_DOUBLE_EQ(qf.time(), 0.0);
  Rng rng(4);
  auto sizes = uniform_sizes(rng, 10, 32);
  Batch<double> b(qt, sizes);
  potrf_vbatched<double>(qt, Uplo::Lower, b);
  EXPECT_GT(qt.time(), 0.0);
  EXPECT_DOUBLE_EQ(qf.time(), 0.0);  // queues are independent devices
}

}  // namespace
