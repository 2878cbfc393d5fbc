// vbatch::hetero — the estimate memo and the call-level numerics pass.
//
// A GPU executor simulates each distinct chunk once: its estimate (seconds,
// occupancy and the dry run's kernel records) is memoized under
// ChunkWork::key, and committing a chunk places those records without
// running the driver again. The numerics run once per call, after the
// schedule, over every committed chunk. Under test: a memo hit is the fresh
// dry run bit for bit; the key holds everything a dry run reads and nothing
// it does not; the LRU bound; the timeline follows the schedule whatever the
// data; a lost chunk is never computed and a retried one is computed once.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <complex>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "poison.hpp"
#include "vbatch/core/potrf_vbatched.hpp"
#include "vbatch/core/size_dist.hpp"
#include "vbatch/fault/fault_plan.hpp"
#include "vbatch/hetero/potrf_hetero.hpp"
#include "vbatch/kernels/fused_potrf.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/thread_pool.hpp"

namespace {

using namespace vbatch;
using namespace vbatch::hetero;

/// Descending random orders, as a chunk of a size-sorted batch holds them.
std::vector<int> chunk_sizes(Rng& rng, int count, int nmax) {
  std::vector<int> n = gaussian_sizes(rng, count, nmax);
  std::sort(n.rbegin(), n.rend());
  return n;
}

/// The plan the hetero front pins for `path` against a K40c.
template <typename T>
detail::PotrfPlan plan_for(PotrfPath path, int max_n) {
  detail::PotrfPlan plan;
  plan.max_n = max_n;
  plan.path = path;
  plan.nb = path == PotrfPath::Fused
                ? kernels::choose_fused_nb(sim::DeviceSpec::k40c(), max_n, sizeof(T))
                : detail::default_separated_nb(sizeof(T));
  return plan;
}

/// A keyed chunk over the whole of `batch` (orders descending), built the
/// way potrf_vbatched_hetero builds its chunks.
template <typename T>
ChunkWork chunk_of(Batch<T>& batch, const detail::PotrfPlan& plan, Uplo uplo,
                   const PotrfOptions& po) {
  const VbatchedProblem<T> prob = batch.problem();
  ChunkWork w;
  w.n = prob.n;
  w.max_n = batch.max_size();
  w.prec = precision_v<T>;
  w.key = potrf_chunk_key<T>(plan, uplo, po, w.max_n, w.n);
  w.run = [prob, uplo, plan, po, max_n = w.max_n](Queue& q, std::span<int> info) {
    if (max_n < 1) return 0.0;
    const VbatchedProblem<T> cp{prob.ptrs, prob.n, prob.lda, info};
    return detail::run_potrf_plan<T>(q, uplo, cp, max_n, plan, po);
  };
  return w;
}

GpuExecutor& gpu(DevicePool& pool, int e) { return static_cast<GpuExecutor&>(pool.executor(e)); }

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// memcmp equality of two matrices (NaN and signed zeros included).
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(const std::vector<std::vector<double>>& a,
               const std::vector<std::vector<double>>& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin(),
                                            [](const auto& x, const auto& y) {
                                              return same_bits(x, y);
                                            });
}

/// Two estimates from (possibly different) executors are the same dry run:
/// seconds and occupancy bit for bit, records field by field.
void expect_same_estimate(const ChunkEstimate& a, const GpuExecutor& ea, const ChunkEstimate& b,
                          const GpuExecutor& eb, const std::string& what) {
  EXPECT_EQ(bits(a.seconds), bits(b.seconds)) << what;
  EXPECT_EQ(bits(a.occupancy), bits(b.occupancy)) << what;
  ASSERT_TRUE(a.records && b.records) << what;
  ASSERT_EQ(a.records->size(), b.records->size()) << what;
  for (std::size_t k = 0; k < a.records->size(); ++k) {
    const DryRecord& x = (*a.records)[k];
    const DryRecord& y = (*b.records)[k];
    const std::string at = what + ", record " + std::to_string(k);
    EXPECT_EQ(ea.kernel_name(x.name), eb.kernel_name(y.name)) << at;
    EXPECT_EQ(bits(x.start), bits(y.start)) << at;
    EXPECT_EQ(bits(x.end), bits(y.end)) << at;
    EXPECT_EQ(bits(x.flops), bits(y.flops)) << at;
    EXPECT_EQ(bits(x.bytes), bits(y.bytes)) << at;
    EXPECT_EQ(x.shared_mem, y.shared_mem) << at;
    EXPECT_EQ(x.grid_blocks, y.grid_blocks) << at;
    EXPECT_EQ(x.block_threads, y.block_threads) << at;
    EXPECT_EQ(x.resident_per_sm, y.resident_per_sm) << at;
    EXPECT_EQ(x.early_exits, y.early_exits) << at;
    EXPECT_EQ(x.stream, y.stream) << at;
  }
}

// ---------------------------------------------------------------------------
// The memo
// ---------------------------------------------------------------------------

template <typename T>
void check_hits_are_fresh_dry_runs(std::uint64_t seed) {
  Rng rng(seed);
  for (const PotrfPath path : {PotrfPath::Fused, PotrfPath::Separated}) {
    for (const Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
      for (int round = 0; round < 3; ++round) {
        const int nmax = path == PotrfPath::Fused ? 160 : 300;
        const auto sizes = chunk_sizes(rng, 1 + static_cast<int>(rng.next() % 12), nmax);
        Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
        Batch<T> batch(q, sizes);
        PotrfOptions po;
        po.streamed_syrk = round == 2;
        const auto plan = plan_for<T>(path, std::max(1, batch.max_size()));
        const ChunkWork w = chunk_of(batch, plan, uplo, po);
        ChunkWork keyless = w;
        keyless.key.clear();

        DevicePool memo_pool = DevicePool::parse("k40c,p100");
        DevicePool fresh_pool = DevicePool::parse("k40c,p100");
        for (int e = 0; e < 2; ++e) {
          GpuExecutor& memo = gpu(memo_pool, e);
          GpuExecutor& fresh = gpu(fresh_pool, e);
          const ChunkEstimate miss = memo.estimate(w);
          const ChunkEstimate hit = memo.estimate(w);
          const ChunkEstimate ref = fresh.estimate(keyless);
          const std::string what = std::string(to_string(path)) + " " + memo.name() + " round " +
                                   std::to_string(round) + (uplo == Uplo::Lower ? " L" : " U");
          EXPECT_FALSE(miss.memo_hit) << what;
          EXPECT_TRUE(hit.memo_hit) << what;
          EXPECT_FALSE(ref.memo_hit) << what;
          EXPECT_EQ(fresh.memo_size(), 0u) << what;  // keyless: never stored
          expect_same_estimate(hit, memo, ref, fresh, what);
          expect_same_estimate(miss, memo, ref, fresh, what);
        }
      }
    }
  }
}

TEST(HeteroEstimateMemo, HitIsTheFreshDryRunBitForBit) {
  check_hits_are_fresh_dry_runs<float>(11);
  check_hits_are_fresh_dry_runs<double>(12);
  check_hits_are_fresh_dry_runs<std::complex<float>>(13);
  check_hits_are_fresh_dry_runs<std::complex<double>>(14);
}

TEST(HeteroEstimateMemo, FlippingAnyKeyComponentMisses) {
  Rng rng(21);
  const auto sizes = chunk_sizes(rng, 9, 150);
  Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  Batch<double> batch(q, sizes);
  const PotrfOptions base_po;
  const auto base_plan = plan_for<double>(PotrfPath::Fused, batch.max_size());
  const std::string base_key =
      potrf_chunk_key<double>(base_plan, Uplo::Lower, base_po, batch.max_size(), sizes);

  // One component changed at a time; every one must give a new key.
  struct Variant {
    const char* what;
    detail::PotrfPlan plan;
    Uplo uplo;
    PotrfOptions po;
    int max_n;
    std::vector<int> n;
  };
  std::vector<Variant> variants;
  auto add = [&](const char* what, auto&& edit) {
    Variant v{what, base_plan, Uplo::Lower, base_po, batch.max_size(), sizes};
    edit(v);
    variants.push_back(std::move(v));
  };
  add("path", [](Variant& v) {
    v.plan.path = PotrfPath::Separated;
    v.plan.nb = detail::default_separated_nb(sizeof(double));
  });
  add("nb", [](Variant& v) { v.plan.nb = v.plan.nb == 8 ? 16 : 8; });
  add("uplo", [](Variant& v) { v.uplo = Uplo::Upper; });
  add("max_n", [](Variant& v) { v.max_n += 1; });
  add("etm", [](Variant& v) { v.po.etm = EtmMode::Classic; });
  add("implicit_sorting", [](Variant& v) { v.po.implicit_sorting = false; });
  add("sort_window", [](Variant& v) { v.po.sort_window = 48; });
  add("streamed_syrk", [](Variant& v) { v.po.streamed_syrk = true; });
  add("num_streams", [](Variant& v) { v.po.num_streams = 4; });
  add("one order", [](Variant& v) { v.n.back() = v.n.back() > 0 ? v.n.back() - 1 : 1; });
  add("one order fewer", [](Variant& v) { v.n.pop_back(); });
  add("one order more", [](Variant& v) { v.n.push_back(1); });

  DevicePool pool = DevicePool::parse("k40c");
  GpuExecutor& ex = gpu(pool, 0);
  EXPECT_FALSE(ex.estimate(chunk_of(batch, base_plan, Uplo::Lower, base_po)).memo_hit);
  ASSERT_TRUE(ex.estimate(chunk_of(batch, base_plan, Uplo::Lower, base_po)).memo_hit);
  std::vector<std::string> keys{base_key};
  for (const Variant& v : variants) {
    Batch<double> vb(q, v.n);
    ChunkWork w = chunk_of(vb, v.plan, v.uplo, v.po);
    w.max_n = v.max_n;
    w.key = potrf_chunk_key<double>(v.plan, v.uplo, v.po, v.max_n, v.n);
    EXPECT_FALSE(ex.estimate(w).memo_hit) << v.what;
    keys.push_back(w.key);
  }
  // The scalar type: float, and complex<float> (the same element size as
  // double).
  keys.push_back(
      potrf_chunk_key<float>(base_plan, Uplo::Lower, base_po, batch.max_size(), sizes));
  keys.push_back(potrf_chunk_key<std::complex<float>>(base_plan, Uplo::Lower, base_po,
                                                      batch.max_size(), sizes));
  keys.push_back(potrf_chunk_key<std::complex<double>>(base_plan, Uplo::Lower, base_po,
                                                       batch.max_size(), sizes));
  std::vector<std::string> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end())
      << "two key components collide";
}

template <typename T>
void check_key_leaves_out_lda_and_pointers(std::uint64_t seed) {
  Rng rng(seed);
  for (const PotrfPath path : {PotrfPath::Fused, PotrfPath::Separated}) {
    for (const Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
      const auto sizes = chunk_sizes(rng, 7, path == PotrfPath::Fused ? 150 : 280);
      // Two payloads at different addresses, one with padded columns.
      Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::Full);
      Batch<T> tight(q, sizes);
      Batch<T> padded(q, sizes, 5);
      ASSERT_NE(tight.problem().ptrs[0], padded.problem().ptrs[0]);
      const PotrfOptions po;
      const auto plan = plan_for<T>(path, tight.max_size());
      ChunkWork a = chunk_of(tight, plan, uplo, po);
      ChunkWork b = chunk_of(padded, plan, uplo, po);
      EXPECT_EQ(a.key, b.key);
      a.key.clear();
      b.key.clear();
      DevicePool pa = DevicePool::parse("k40c");
      DevicePool pb = DevicePool::parse("k40c");
      expect_same_estimate(gpu(pa, 0).estimate(a), gpu(pa, 0), gpu(pb, 0).estimate(b),
                           gpu(pb, 0), std::string(to_string(path)) + " lda/pointers");
    }
  }
}

TEST(HeteroEstimateMemo, DryRunReadsNeitherLdaNorPointers) {
  check_key_leaves_out_lda_and_pointers<double>(31);
  check_key_leaves_out_lda_and_pointers<std::complex<double>>(32);
}

TEST(HeteroEstimateMemo, LruEvictsTheLeastRecentlyUsedKeyAtCapacity) {
  // The memo trusts its keys, so one tiny chunk under many keys exercises
  // the container alone.
  Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  const std::vector<int> sizes{24, 9};
  Batch<double> batch(q, sizes);
  ChunkWork w = chunk_of(batch, plan_for<double>(PotrfPath::Fused, 24), Uplo::Lower, {});
  DevicePool pool = DevicePool::parse("k40c");
  GpuExecutor& ex = gpu(pool, 0);
  const std::size_t cap = GpuExecutor::kEstimateMemoCapacity;
  auto estimate = [&](std::size_t k) {
    w.key = "key" + std::to_string(k);
    return ex.estimate(w).memo_hit;
  };
  for (std::size_t k = 0; k < cap; ++k) EXPECT_FALSE(estimate(k)) << k;
  EXPECT_EQ(ex.memo_size(), cap);
  EXPECT_TRUE(estimate(0));   // key0 becomes the most recently used
  EXPECT_FALSE(estimate(cap));  // full: evicts key1, the least recently used
  EXPECT_EQ(ex.memo_size(), cap);
  EXPECT_TRUE(estimate(0));
  EXPECT_TRUE(estimate(2));
  EXPECT_FALSE(estimate(1));  // evicted; coming back evicts key3
  EXPECT_FALSE(estimate(3));
  EXPECT_TRUE(estimate(cap));
  EXPECT_EQ(ex.memo_size(), cap);
}

TEST(HeteroEstimateMemo, HitAndMissCountsAppearInTheResult) {
  Rng rng(41);
  const auto sizes = gaussian_sizes(rng, 80, 220);
  auto run = [&](DevicePool& pool, const HeteroOptions& opts) {
    Queue q;
    Batch<double> batch(q, sizes);
    Rng fill(3);
    batch.fill_spd(fill);
    HeteroResult r = potrf_vbatched_hetero<double>(pool, Uplo::Lower, batch, opts);
    std::vector<std::vector<double>> factors;
    for (int i = 0; i < batch.count(); ++i) factors.push_back(batch.copy_matrix(i));
    return std::make_pair(r, factors);
  };
  DevicePool pool = DevicePool::parse("cpu,k40c,p100");
  const int gpus = 2;
  const auto [first, f1] = run(pool, {});
  EXPECT_EQ(first.estimate_memo_hits + first.estimate_memo_misses, gpus * first.chunks);
  EXPECT_GT(first.estimate_memo_misses, 0);
  // The same call again: every GPU estimate is a hit, and nothing moves.
  const auto [again, f2] = run(pool, {});
  EXPECT_EQ(again.estimate_memo_hits, gpus * again.chunks);
  EXPECT_EQ(again.estimate_memo_misses, 0);
  EXPECT_EQ(bits(again.seconds), bits(first.seconds));
  EXPECT_TRUE(same_bits(f1, f2));
  // One option the drivers read changes every key.
  HeteroOptions classic;
  classic.potrf.etm = EtmMode::Classic;
  const auto [other, f3] = run(pool, classic);
  EXPECT_EQ(other.estimate_memo_hits, 0);
  EXPECT_EQ(other.estimate_memo_misses, gpus * other.chunks);
  EXPECT_TRUE(same_bits(f1, f3));
  // A CPU-only pool has nothing to memoize.
  DevicePool cpu = DevicePool::parse("cpu");
  const auto [host, f4] = run(cpu, {});
  EXPECT_EQ(host.estimate_memo_hits + host.estimate_memo_misses, 0);
  EXPECT_TRUE(same_bits(f1, f4));
}

// ---------------------------------------------------------------------------
// The timeline follows the schedule, whatever the data
// ---------------------------------------------------------------------------

/// Fills an SPD batch, then (with `poisoned`) plants NaN, +Inf or a
/// non-positive pivot in every third matrix at a varying column.
template <typename T>
void fill(Batch<T>& batch, Uplo uplo, bool poisoned) {
  Rng rng(5);
  batch.fill_spd(rng);
  if (!poisoned) return;
  using vbatch::testing::Poison;
  const Poison kinds[] = {Poison::NanRef, Poison::PosInfRef, Poison::NotSpd};
  for (int i = 0; i < batch.count(); i += 3)
    vbatch::testing::plant(kinds[(i / 3) % 3], batch.matrix(i), uplo, 7 * i + 20);
}

struct Factored {
  HeteroResult result;
  std::vector<std::vector<double>> factors;
  std::vector<int> info;
  std::vector<std::vector<sim::KernelRecord>> timelines;  ///< per executor (empty: CPU)
};

Factored factor_on(const char* pool_desc, const std::vector<int>& sizes, PotrfPath path,
                   bool poisoned, const char* faults = "") {
  DevicePool pool = DevicePool::parse(pool_desc);
  if (*faults != '\0') pool.set_faults(fault::parse_fault_spec(faults));
  Queue q;
  Batch<double> batch(q, sizes);
  fill(batch, Uplo::Lower, poisoned);
  HeteroOptions opts;
  opts.potrf.path = path;
  Factored f;
  f.result = potrf_vbatched_hetero<double>(pool, Uplo::Lower, batch, opts);
  for (int i = 0; i < batch.count(); ++i) f.factors.push_back(batch.copy_matrix(i));
  f.info.assign(batch.info().begin(), batch.info().end());
  for (int e = 0; e < pool.size(); ++e)
    f.timelines.push_back(pool.executor(e).is_gpu()
                              ? pool.executor(e).queue().device().timeline().records()
                              : std::vector<sim::KernelRecord>{});
  return f;
}

Factored factor_single(const std::vector<int>& sizes, PotrfPath path, bool poisoned) {
  Queue q;
  Batch<double> batch(q, sizes);
  fill(batch, Uplo::Lower, poisoned);
  PotrfOptions opts;
  opts.path = path;
  (void)potrf_vbatched<double>(q, Uplo::Lower, batch, opts);
  Factored f;
  for (int i = 0; i < batch.count(); ++i) f.factors.push_back(batch.copy_matrix(i));
  f.info.assign(batch.info().begin(), batch.info().end());
  return f;
}

TEST(HeteroNonSpd, TimelineFollowsTheScheduleWhateverTheData) {
  // A Full re-run's early exits on failed matrices used to make the GPU
  // timelines disagree with the schedule (whose estimates assume info = 0).
  // Placed dry-run records cannot see the data: the kernel records of an
  // SPD batch and of the same batch with NaN, Inf and non-positive pivots
  // are the same, and sum to the same multiple of each busy time.
  Rng rng(51);
  for (const PotrfPath path : {PotrfPath::Fused, PotrfPath::Separated}) {
    const auto sizes = gaussian_sizes(rng, 64, path == PotrfPath::Fused ? 200 : 400);
    for (const char* pool : {"k40c", "cpu,k40c,p100", "k40c:2streams,p100:3streams"}) {
      const std::string what = std::string(to_string(path)) + " on " + pool;
      const Factored spd = factor_on(pool, sizes, path, false);
      const Factored bad = factor_on(pool, sizes, path, true);
      EXPECT_TRUE(std::any_of(bad.info.begin(), bad.info.end(), [](int v) { return v > 0; }))
          << what;
      ASSERT_EQ(spd.timelines.size(), bad.timelines.size());
      for (std::size_t e = 0; e < spd.timelines.size(); ++e) {
        const auto& a = spd.timelines[e];
        const auto& b = bad.timelines[e];
        ASSERT_EQ(a.size(), b.size()) << what << ", executor " << e;
        double sum_a = 0.0, sum_b = 0.0;
        for (std::size_t k = 0; k < a.size(); ++k) {
          EXPECT_EQ(a[k].name, b[k].name) << what;
          EXPECT_EQ(bits(a[k].start), bits(b[k].start)) << what;
          EXPECT_EQ(bits(a[k].end), bits(b[k].end)) << what;
          EXPECT_EQ(a[k].early_exits, b[k].early_exits) << what;
          EXPECT_EQ(a[k].stream, b[k].stream) << what;
          sum_a += a[k].end - a[k].start;
          sum_b += b[k].end - b[k].start;
        }
        const double busy_a = spd.result.executors[e].busy_seconds;
        const double busy_b = bad.result.executors[e].busy_seconds;
        EXPECT_EQ(bits(busy_a), bits(busy_b)) << what;
        if (!a.empty()) {
          EXPECT_EQ(bits(sum_a / busy_a), bits(sum_b / busy_b)) << what;
        }
      }
    }
  }
}

TEST(HeteroNonSpd, FactorsAndInfoMatchSingleDeviceAtOneAndFourWorkers) {
  Rng rng(52);
  for (const PotrfPath path : {PotrfPath::Fused, PotrfPath::Separated}) {
    const auto sizes = gaussian_sizes(rng, 72, path == PotrfPath::Fused ? 200 : 360);
    for (const unsigned workers : {1u, 4u}) {
      util::set_host_threads(workers);
      const Factored base = factor_single(sizes, path, true);
      for (const char* pool : {"k40c", "cpu,k40c,p100", "k40c:4streams,p100"}) {
        const Factored h = factor_on(pool, sizes, path, true);
        const std::string what = std::string(to_string(path)) + " on " + pool + ", " +
                                 std::to_string(workers) + " workers";
        EXPECT_EQ(h.info, base.info) << what;
        EXPECT_TRUE(same_bits(h.factors, base.factors)) << what;
      }
    }
  }
  util::set_host_threads(0);
}

// ---------------------------------------------------------------------------
// Faults: lost chunks are never computed, retried ones once
// ---------------------------------------------------------------------------

TEST(HeteroChunkNumerics, ChunkLostToEveryExecutorKeepsItsInput) {
  Rng rng(61);
  const auto sizes = gaussian_sizes(rng, 60, 220);
  const Factored base = factor_single(sizes, PotrfPath::Auto, false);
  Queue q;
  Batch<double> input(q, sizes);
  fill(input, Uplo::Lower, false);
  // Both GPUs die after one chunk each: the rest of the batch is lost.
  const Factored h =
      factor_on("k40c,p100", sizes, PotrfPath::Auto, false, "die:exec=0,after=1;die:exec=1,after=1");
  ASSERT_GT(h.result.chunks_poisoned, 0);
  int lost = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (h.info[i] == kInfoChunkLost) {
      ++lost;
      EXPECT_TRUE(same_bits(h.factors[i], input.copy_matrix(static_cast<int>(i))))
          << "matrix " << i;
    } else {
      EXPECT_EQ(h.info[i], base.info[i]) << "matrix " << i;
      EXPECT_TRUE(same_bits(h.factors[i], base.factors[i])) << "matrix " << i;
    }
  }
  EXPECT_GT(lost, 0);
}

TEST(HeteroChunkNumerics, RetriedChunksAreFactoredOnce) {
  // Factoring a matrix twice would overwrite its factor with the factor of
  // its factor, so equal bits to the fault-free run show it ran once.
  Rng rng(62);
  for (const PotrfPath path : {PotrfPath::Fused, PotrfPath::Separated}) {
    const auto sizes = gaussian_sizes(rng, 64, path == PotrfPath::Fused ? 200 : 360);
    const Factored clean = factor_on("cpu,k40c,p100", sizes, path, true);
    for (const char* spec : {"transient:exec=-1,chunk=-1,times=1", "die:exec=1,after=1",
                             "seed=3;transient:rate=0.3;die:exec=2,after=2"}) {
      const Factored h = factor_on("cpu,k40c,p100", sizes, path, true, spec);
      const std::string what = std::string(to_string(path)) + ", " + spec;
      EXPECT_GT(h.result.fault_events.size(), 0u) << what;
      EXPECT_EQ(h.result.chunks_poisoned, 0) << what;
      EXPECT_EQ(h.info, clean.info) << what;
      EXPECT_TRUE(same_bits(h.factors, clean.factors)) << what;
    }
  }
}

}  // namespace
