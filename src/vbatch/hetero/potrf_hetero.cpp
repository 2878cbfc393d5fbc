#include "vbatch/hetero/potrf_hetero.hpp"

#include <algorithm>
#include <cstring>

#include "vbatch/util/error.hpp"
#include "vbatch/util/flops.hpp"

namespace vbatch::hetero {

template <typename T>
std::string potrf_chunk_key(const detail::PotrfPlan& plan, Uplo uplo, const PotrfOptions& opts,
                            int max_n, std::span<const int> n) {
  const int head[] = {static_cast<int>(plan.path),
                      plan.nb,
                      static_cast<int>(uplo),
                      static_cast<int>(sizeof(T)),
                      static_cast<int>(is_complex_v<T>),
                      max_n,
                      static_cast<int>(opts.etm),
                      static_cast<int>(opts.implicit_sorting),
                      opts.sort_window,
                      static_cast<int>(opts.streamed_syrk),
                      opts.num_streams};
  std::string key(sizeof head + n.size_bytes(), '\0');
  std::memcpy(key.data(), head, sizeof head);
  if (!n.empty()) std::memcpy(key.data() + sizeof head, n.data(), n.size_bytes());
  return key;
}

namespace {

template <typename T>
HeteroResult hetero_impl(DevicePool& pool, Uplo uplo, Batch<T>& batch,
                         std::optional<int> caller_max_n, const HeteroOptions& opts) {
  // Host-side validation first: nothing below may touch a device clock or
  // the info array of a call that is going to be rejected.
  require(pool.size() >= 1, "potrf_vbatched_hetero: empty device pool");
  require(opts.chunks_per_executor >= 1,
          "potrf_vbatched_hetero: chunks_per_executor must be positive");

  const int E = pool.size();
  std::vector<const sim::DeviceSpec*> targets;
  for (int e = 0; e < E; ++e) {
    pool.executor(e).begin_call();
    targets.push_back(&pool.executor(e).queue().spec());
  }

  // --- The single-device front, planned once for the whole batch: the
  // metadata sweep runs on executor 0 (its seconds become that executor's
  // initial virtual clock, so the schedule charges the cost faithfully), and
  // path and blocking are pinned from the GLOBAL maximum against the
  // reference device. The fused launch must fit every executor, since work
  // stealing may route any chunk anywhere. Every chunk driver receives the
  // same plan; only its local max_n differs — which changes launch geometry
  // (the speedup) but never per-matrix math (the bit-identity guarantee).
  auto prob = batch.problem();
  const PotrfOptions& po = opts.potrf;
  const detail::PotrfPlan plan =
      detail::plan_potrf<T>(pool.executor(0).queue(), prob, caller_max_n, po,
                            pool.reference_spec(), targets, "potrf_vbatched_hetero");

  // --- Gather the batch in size-sorted order and chunk it.
  const std::vector<int> order = sort_indices_desc(prob.n);
  std::vector<T*> sorted_ptrs(order.size());
  std::vector<int> sorted_n(order.size());
  std::vector<int> sorted_lda(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto src = static_cast<std::size_t>(order[i]);
    sorted_ptrs[i] = prob.ptrs[src];
    sorted_n[i] = prob.n[src];
    sorted_lda[i] = prob.lda[src];
  }
  const std::vector<Chunk> chunks =
      build_chunks(sorted_n, plan.nb, opts.chunks_per_executor * E);

  // --- One dry-run closure per chunk, over its slice of the sorted arrays.
  std::vector<ChunkWork> work(chunks.size());
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    const Chunk& ck = chunks[c];
    const auto begin = static_cast<std::size_t>(ck.begin);
    const auto count = static_cast<std::size_t>(ck.count());
    ChunkWork& w = work[c];
    w.n = std::span<const int>(sorted_n).subspan(begin, count);
    for (std::size_t i = begin; i < begin + count; ++i)
      w.bytes += static_cast<double>(sorted_lda[i]) * static_cast<double>(sorted_n[i]) *
                 static_cast<double>(sizeof(T));
    w.flops = ck.flops;
    w.max_n = ck.max_n;
    w.prec = precision_v<T>;
    w.key = potrf_chunk_key<T>(plan, uplo, po, ck.max_n, w.n);
    const std::span<const int> lda = std::span<const int>(sorted_lda).subspan(begin, count);
    T* const* ptrs = sorted_ptrs.data() + begin;
    const int chunk_max = ck.max_n;
    w.run = [ptrs, n = w.n, lda, uplo, chunk_max, plan, po](Queue& q,
                                                            std::span<int> info) -> double {
      if (chunk_max < 1) return 0.0;  // an all-empty tail chunk has no work
      VbatchedProblem<T> cp{ptrs, n, lda, info};
      return detail::run_potrf_plan<T>(q, uplo, cp, chunk_max, plan, po);
    };
  }

  // --- The call's numerics (Full mode): one pass over every committed
  // chunk's matrices, with the plan's per-matrix math — each matrix's bits
  // depend only on its own data and the pinned plan. A lost chunk's
  // matrices count as order 0, so nothing touches them.
  std::vector<int> sorted_info(order.size(), 0);
  ChunkNumerics numerics;
  if (batch.queue().full()) {
    numerics = [&](std::span<const int> committed) {
      std::vector<int> live_n(sorted_n.size(), 0);
      for (const int c : committed) {
        const Chunk& ck = chunks[static_cast<std::size_t>(c)];
        std::copy(sorted_n.begin() + ck.begin, sorted_n.begin() + ck.end,
                  live_n.begin() + ck.begin);
      }
      detail::potrf_numerics<T>(uplo, plan, {sorted_ptrs.data(), live_n, sorted_lda, sorted_info});
    };
  }

  // --- Run the chunks, then scatter the size-sorted statuses back to
  // submission order.
  HeteroResult result =
      run_chunked(pool, chunks, work, sorted_info, opts, plan.sweep_seconds, numerics);
  for (std::size_t i = 0; i < order.size(); ++i)
    prob.info[static_cast<std::size_t>(order[i])] = sorted_info[i];
  result.flops = flops::potrf_batch(prob.n);
  result.path_taken = plan.path;
  return result;
}

}  // namespace

template <typename T>
HeteroResult potrf_vbatched_hetero(DevicePool& pool, Uplo uplo, Batch<T>& batch,
                                   const HeteroOptions& opts) {
  return hetero_impl<T>(pool, uplo, batch, std::nullopt, opts);
}

template <typename T>
HeteroResult potrf_vbatched_hetero_max(DevicePool& pool, Uplo uplo, Batch<T>& batch, int max_n,
                                       const HeteroOptions& opts) {
  return hetero_impl<T>(pool, uplo, batch, max_n, opts);
}

#define VBATCH_INSTANTIATE_HETERO(T)                                                       \
  template HeteroResult potrf_vbatched_hetero<T>(DevicePool&, Uplo, Batch<T>&,             \
                                                 const HeteroOptions&);                    \
  template HeteroResult potrf_vbatched_hetero_max<T>(DevicePool&, Uplo, Batch<T>&, int,    \
                                                     const HeteroOptions&);                \
  template std::string potrf_chunk_key<T>(const detail::PotrfPlan&, Uplo,                 \
                                          const PotrfOptions&, int, std::span<const int>);

VBATCH_INSTANTIATE_HETERO(float)
VBATCH_INSTANTIATE_HETERO(double)
VBATCH_INSTANTIATE_HETERO(std::complex<float>)
VBATCH_INSTANTIATE_HETERO(std::complex<double>)

#undef VBATCH_INSTANTIATE_HETERO

}  // namespace vbatch::hetero
