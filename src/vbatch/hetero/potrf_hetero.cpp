#include "vbatch/hetero/potrf_hetero.hpp"

#include "vbatch/util/error.hpp"
#include "vbatch/util/flops.hpp"

namespace vbatch::hetero {

namespace {

/// Gathered chunk-local metadata. The ChunkWork closures hold spans into
/// these vectors, so ChunkData must stay alive (and unmoved) for the whole
/// call — the driver stores them in a pre-sized vector.
template <typename T>
struct ChunkData {
  std::vector<T*> ptrs;
  std::vector<int> n;
  std::vector<int> lda;
};

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
    pool.executor(e).begin_call(batch.queue().mode());
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

  // --- Chunk the size-sorted order and build the per-chunk work units.
  const std::vector<int> order = sort_indices_desc(prob.n);
  std::vector<int> sorted_n(order.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    sorted_n[i] = prob.n[static_cast<std::size_t>(order[i])];
  const std::vector<Chunk> chunks =
      build_chunks(sorted_n, plan.nb, opts.chunks_per_executor * E);

  std::vector<ChunkData<T>> data(chunks.size());
  std::vector<ChunkWork> work(chunks.size());
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    const Chunk& ck = chunks[c];
    ChunkData<T>& d = data[c];
    ChunkWork& w = work[c];
    for (int i = ck.begin; i < ck.end; ++i) {
      const std::size_t src = static_cast<std::size_t>(order[static_cast<std::size_t>(i)]);
      d.ptrs.push_back(prob.ptrs[src]);
      d.n.push_back(prob.n[src]);
      d.lda.push_back(prob.lda[src]);
      w.bytes += static_cast<double>(prob.lda[src]) * static_cast<double>(prob.n[src]) *
                 static_cast<double>(sizeof(T));
    }
    w.n = d.n;
    w.flops = ck.flops;
    w.max_n = ck.max_n;
    w.prec = precision_v<T>;
    const int chunk_max = ck.max_n;
    w.run = [&d, uplo, chunk_max, plan, po](Queue& q, std::span<int> info) -> double {
      if (chunk_max < 1) return 0.0;  // an all-empty tail chunk has no work
      VbatchedProblem<T> cp{d.ptrs.data(), d.n, d.lda, info};
      return detail::run_potrf_plan<T>(q, uplo, cp, chunk_max, plan, po);
    };
  }

  // --- Run the chunks, then scatter the size-sorted statuses back to
  // submission order.
  std::vector<int> sorted_info(order.size(), 0);
  HeteroResult result = run_chunked(pool, chunks, work, sorted_info, opts, plan.sweep_seconds);
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
                                                     const HeteroOptions&);

VBATCH_INSTANTIATE_HETERO(float)
VBATCH_INSTANTIATE_HETERO(double)
VBATCH_INSTANTIATE_HETERO(std::complex<float>)
VBATCH_INSTANTIATE_HETERO(std::complex<double>)

#undef VBATCH_INSTANTIATE_HETERO

}  // namespace vbatch::hetero
