#include "vbatch/hetero/potrf_hetero.hpp"

#include "vbatch/core/arg_check.hpp"
#include "vbatch/core/crossover.hpp"
#include "vbatch/kernels/fused_potrf.hpp"
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

/// True when the pinned fused launch fits every executor the chunks might
/// land on (work stealing may route any chunk anywhere).
bool fused_fits_everywhere(DevicePool& pool, int nb, int max_n, std::size_t elem_size) {
  for (int e = 0; e < pool.size(); ++e) {
    const sim::DeviceSpec& spec = pool.executor(e).queue().spec();
    if (max_n > kernels::fused_max_size(spec, nb, elem_size)) return false;
  }
  return true;
}

template <typename T>
HeteroResult hetero_impl(DevicePool& pool, Uplo uplo, Batch<T>& batch, int caller_max_n,
                         bool reduce_max, const HeteroOptions& opts) {
  // Host-side validation first: nothing below may touch a device clock or
  // the info array of a call that is going to be rejected.
  require(pool.size() >= 1, "potrf_vbatched_hetero: empty device pool");
  require(opts.chunks_per_executor >= 1,
          "potrf_vbatched_hetero: chunks_per_executor must be positive");
  auto prob = batch.problem();
  require(prob.count() > 0, "potrf_vbatched_hetero: empty batch");
  require(static_cast<int>(prob.lda.size()) == prob.count() &&
              static_cast<int>(prob.info.size()) == prob.count(),
          "potrf_vbatched_hetero: metadata array size mismatch");

  const int E = pool.size();
  for (int e = 0; e < E; ++e) pool.executor(e).begin_call(batch.queue().mode());

  // Metadata sweep (validation + info reset, plus the max reduction for the
  // LAPACK-like interface) runs on executor 0; the sweep seconds become its
  // initial virtual clock so the schedule charges the cost faithfully. The
  // dimension rules are the single-device entry's (potrf_vbatched.cpp).
  const ArgRule rules[] = {{ArgRule::Kind::NonNegative, prob.n, {}, 2, "n"},
                           {ArgRule::Kind::AtLeastOther, prob.lda, prob.n, 4, "lda"}};
  Queue& q0 = pool.executor(0).queue();
  const double sweep_t0 = q0.time();
  const ArgSweep sweep = check_args_reduce(
      q0.device(), rules, reduce_max ? prob.n : std::span<const int>{}, prob.info);
  require_args_ok(sweep.report, "potrf_vbatched_hetero");
  int max_n = caller_max_n;
  if (reduce_max) {
    max_n = sweep.max_value;
    require(max_n >= 1, "potrf_vbatched_hetero: all matrices are empty");
  } else {
    require(max_n >= 1, "potrf_vbatched_hetero: max_n must be positive");
  }
  const double sweep_seconds = q0.time() - sweep_t0;

  // --- Pin the options once, from the GLOBAL maximum against the reference
  // device. Every chunk driver receives the same path and blocking sizes;
  // only its local max_n differs — which changes launch geometry (the
  // speedup) but never per-matrix math (the bit-identity guarantee).
  const Precision prec = precision_v<T>;
  const sim::DeviceSpec& ref = pool.reference_spec();
  const PotrfOptions& po = opts.potrf;
  bool fused = false;
  switch (po.path) {
    case PotrfPath::Fused: fused = true; break;
    case PotrfPath::Separated: fused = false; break;
    case PotrfPath::Auto: fused = use_fused(ref, prec, max_n, po.crossover); break;
  }
  int fused_nb = 0;
  if (fused) {
    fused_nb = po.fused_nb > 0 ? po.fused_nb : kernels::choose_fused_nb(ref, max_n, sizeof(T));
    if (po.path == PotrfPath::Auto && !fused_fits_everywhere(pool, fused_nb, max_n, sizeof(T)))
      fused = false;  // fall back rather than fail on a smaller-memory peer
  }
  const int separated_nb =
      po.separated_nb > 0 ? po.separated_nb : detail::default_separated_nb(sizeof(T));

  // --- Chunk the size-sorted order and build the per-chunk work units.
  const std::vector<int> order = sort_indices_desc(prob.n);
  std::vector<int> sorted_n(order.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    sorted_n[i] = prob.n[static_cast<std::size_t>(order[i])];
  const std::vector<Chunk> chunks =
      build_chunks(sorted_n, fused ? fused_nb : separated_nb, opts.chunks_per_executor * E);

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
    w.prec = prec;
    const int chunk_max = ck.max_n;
    w.run = [&d, uplo, chunk_max, fused, fused_nb, separated_nb, po](
                Queue& q, std::span<int> info) -> double {
      if (chunk_max < 1) return 0.0;  // an all-empty tail chunk has no work
      VbatchedProblem<T> cp{d.ptrs.data(), d.n, d.lda, info};
      if (fused)
        return detail::potrf_fused_run<T>(q, uplo, cp, chunk_max, po.etm, po.implicit_sorting,
                                          fused_nb, po.sort_window);
      return detail::potrf_separated_run<T>(q, uplo, cp, chunk_max, separated_nb,
                                            po.streamed_syrk, po.num_streams);
    };
  }

  // --- Run the chunks, then scatter the size-sorted statuses back to
  // submission order.
  std::vector<int> sorted_info(order.size(), 0);
  HeteroResult result = run_chunked(pool, chunks, work, sorted_info, opts, sweep_seconds);
  for (std::size_t i = 0; i < order.size(); ++i)
    prob.info[static_cast<std::size_t>(order[i])] = sorted_info[i];
  result.flops = flops::potrf_batch(prob.n);
  result.path_taken = fused ? PotrfPath::Fused : PotrfPath::Separated;
  return result;
}

}  // namespace

template <typename T>
HeteroResult potrf_vbatched_hetero(DevicePool& pool, Uplo uplo, Batch<T>& batch,
                                   const HeteroOptions& opts) {
  return hetero_impl<T>(pool, uplo, batch, 0, /*reduce_max=*/true, opts);
}

template <typename T>
HeteroResult potrf_vbatched_hetero_max(DevicePool& pool, Uplo uplo, Batch<T>& batch, int max_n,
                                       const HeteroOptions& opts) {
  return hetero_impl<T>(pool, uplo, batch, max_n, /*reduce_max=*/false, opts);
}

template HeteroResult potrf_vbatched_hetero<float>(DevicePool&, Uplo, Batch<float>&,
                                                   const HeteroOptions&);
template HeteroResult potrf_vbatched_hetero<double>(DevicePool&, Uplo, Batch<double>&,
                                                    const HeteroOptions&);
template HeteroResult potrf_vbatched_hetero<std::complex<float>>(
    DevicePool&, Uplo, Batch<std::complex<float>>&, const HeteroOptions&);
template HeteroResult potrf_vbatched_hetero<std::complex<double>>(
    DevicePool&, Uplo, Batch<std::complex<double>>&, const HeteroOptions&);
template HeteroResult potrf_vbatched_hetero_max<float>(DevicePool&, Uplo, Batch<float>&, int,
                                                       const HeteroOptions&);
template HeteroResult potrf_vbatched_hetero_max<double>(DevicePool&, Uplo, Batch<double>&, int,
                                                        const HeteroOptions&);
template HeteroResult potrf_vbatched_hetero_max<std::complex<float>>(
    DevicePool&, Uplo, Batch<std::complex<float>>&, int, const HeteroOptions&);
template HeteroResult potrf_vbatched_hetero_max<std::complex<double>>(
    DevicePool&, Uplo, Batch<std::complex<double>>&, int, const HeteroOptions&);

}  // namespace vbatch::hetero
