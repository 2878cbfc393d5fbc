// Re-execution of one merged launch from the benchmark's side, using only
// public library calls, so the traced run can split its host time by layer.
//
// A Launch is the set of requests one batch carried, in admission order.
// fill_launch reproduces the service's payload rule (each request filled
// from its own payload_seed, sequentially over its own matrices), so a
// rebuilt launch computes the very bits — and, on a pool with the same call
// history, the very modelled seconds — the service computed.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "vbatch/blas/blas.hpp"
#include "vbatch/core/potrf_vbatched.hpp"
#include "vbatch/core/potrs_vbatched.hpp"
#include "vbatch/hetero/potrf_hetero.hpp"
#include "vbatch/kernels/fused_potrf.hpp"
#include "vbatch/service/service.hpp"
#include "vbatch/util/thread_pool.hpp"

namespace e2e {

using namespace vbatch;
namespace svc = vbatch::service;

struct Launch {
  svc::GroupKey key;
  std::vector<const svc::Request*> reqs;
  const svc::BatchRecord* record = nullptr;  ///< what the service logged for it
};

inline std::vector<int> launch_sizes(const Launch& l) {
  std::vector<int> sizes;
  for (const svc::Request* r : l.reqs) sizes.insert(sizes.end(), r->sizes.begin(), r->sizes.end());
  return sizes;
}

/// Groups a report's served outcomes back into its launches (batch ids are
/// dispatch sequence numbers; outcomes of one launch are in admission order).
inline std::vector<Launch> launches_of(const svc::ServiceReport& report,
                                       const std::vector<svc::Request>& requests) {
  std::vector<Launch> out(report.batch_log.size());
  for (std::size_t b = 0; b < out.size(); ++b) {
    out[b].key = report.batch_log[b].key;
    out[b].record = &report.batch_log[b];
  }
  for (const svc::RequestOutcome& o : report.outcomes)
    if (o.batch_id >= 0 && static_cast<std::size_t>(o.batch_id) < out.size())
      out[static_cast<std::size_t>(o.batch_id)].reqs.push_back(&requests.at(o.id - 1));
  return out;
}

template <typename T>
void fill_launch(Batch<T>& batch, const Launch& l) {
  int k = 0;
  for (const svc::Request* r : l.reqs) {
    Rng rng(r->payload_seed());
    for (std::size_t j = 0; j < r->sizes.size(); ++j, ++k) {
      MatrixView<T> v = batch.matrix(k);
      fill_spd(rng, v.data(), v.rows(), v.ld());
    }
  }
}

template <typename T>
void fill_rhs(RectBatch<T>& rhs, const Launch& l) {
  int k = 0;
  for (const svc::Request* r : l.reqs) {
    Rng rng(r->payload_seed() ^ 0xD1B54A32D192ED03ull);
    for (std::size_t j = 0; j < r->sizes.size(); ++j, ++k) {
      MatrixView<T> v = rhs.matrix(k);
      fill_general(rng, v.data(), v.rows(), v.cols(), v.ld());
    }
  }
}

/// Checks ‖A − L·Lᵀ‖ on every matrix of `factors` against the regenerated
/// input, plus info == 0. One check per matrix.
template <typename T>
void check_factors(Results& res, Batch<T>& factors, const Launch& l, const std::string& what) {
  const double tol = precision_v<T> == Precision::Double ? 1e-12 : 2e-5;
  const std::vector<int> sizes = launch_sizes(l);
  std::vector<std::pair<const svc::Request*, int>> owner;  // (request, index in request)
  for (const svc::Request* r : l.reqs)
    for (int j = 0; j < r->matrices(); ++j) owner.emplace_back(r, j);
  std::vector<double> resid(sizes.size(), 0.0);
  util::host_pool().parallel_for(static_cast<int>(sizes.size()), [&](int i) {
    const auto [r, j] = owner[static_cast<std::size_t>(i)];
    Rng rng(r->payload_seed());
    std::vector<T> orig;
    for (int m = 0; m <= j; ++m) {  // replay the request's stream up to matrix j
      const int n = r->sizes[static_cast<std::size_t>(m)];
      orig.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), T(0));
      fill_spd(rng, orig.data(), n, n);
    }
    const int n = sizes[static_cast<std::size_t>(i)];
    resid[static_cast<std::size_t>(i)] = blas::potrf_residual<T>(
        Uplo::Lower, ConstMatrixView<T>(orig.data(), n, n, n), factors.matrix(i));
  });
  const std::span<int> info = factors.info();
  for (std::size_t i = 0; i < sizes.size(); ++i)
    res.check(info[i] == 0 && resid[i] < tol,
              what + ": matrix " + std::to_string(i) + " (n=" + std::to_string(sizes[i]) +
                  ") info " + std::to_string(info[i]) + " residual " + std::to_string(resid[i]));
}

/// Order-sensitive 64-bit checksum of every factor's bytes.
template <typename T>
std::uint64_t checksum(Batch<T>& batch) {
  std::uint64_t h = 1469598103934665603ull;
  for (int i = 0; i < batch.count(); ++i) {
    const MatrixView<T> v = batch.matrix(i);
    const auto* p = reinterpret_cast<const unsigned char*>(v.data());
    const std::size_t bytes = static_cast<std::size_t>(v.ld()) *
                              static_cast<std::size_t>(v.cols()) * sizeof(T);
    std::size_t k = 0;
    for (; k + 8 <= bytes; k += 8) {
      std::uint64_t w;
      std::memcpy(&w, p + k, 8);
      h = (h ^ w) * 1099511628211ull;
    }
    for (; k < bytes; ++k) h = (h ^ p[k]) * 1099511628211ull;
  }
  return h;
}

/// The first GPU executor's spec: the device the service's host queue
/// mirrors and the reference the hetero driver pins options against.
inline const sim::DeviceSpec& first_gpu_spec(const hetero::DevicePool& pool) {
  for (int e = 0; e < pool.size(); ++e)
    if (pool.executor(e).is_gpu())
      return static_cast<const hetero::GpuExecutor&>(pool.executor(e)).spec();
  static const sim::DeviceSpec k40c = sim::DeviceSpec::k40c();
  return k40c;
}

struct LaunchRun {
  double seconds = 0.0;  ///< modelled: factor (+ solve)
  double flops = 0.0;
  hetero::HeteroResult hr;
};

/// Runs a launch the way the service's engine does: fill, hetero potrf,
/// and for posv the vbatched solve on a host queue. With `res`, also checks
/// every factor.
template <typename T>
LaunchRun rerun_launch(hetero::DevicePool& pool, const Launch& l, const svc::ServiceConfig& cfg,
                       Tracer& tr, Results* res = nullptr, const std::string& what = {}) {
  const std::vector<int> sizes = launch_sizes(l);
  Queue q(first_gpu_spec(pool), cfg.mode);
  Batch<T> batch(q, sizes);
  if (q.full()) {
    Span s(tr, "service.fill", "service");
    fill_launch(batch, l);
  }
  LaunchRun out;
  {
    Span s(tr, "hetero.potrf_vbatched_hetero", "hetero");
    out.hr = hetero::potrf_vbatched_hetero<T>(pool, cfg.uplo, batch, cfg.hetero);
  }
  out.seconds = out.hr.seconds;
  out.flops = out.hr.flops;
  if (l.key.op == svc::Op::Posv) {
    std::vector<int> cols;
    for (const svc::Request* r : l.reqs) cols.insert(cols.end(), r->sizes.size(), r->nrhs);
    RectBatch<T> rhs(q, sizes, cols);
    if (q.full()) {
      Span s(tr, "service.fill", "service");
      fill_rhs(rhs, l);
    }
    FactorResult sr;
    {
      Span s(tr, "core.potrs_vbatched", "core");
      sr = potrs_vbatched<T>(q, cfg.uplo, batch, rhs);
    }
    out.seconds += sr.seconds;
    out.flops += sr.flops;
  }
  if (res != nullptr && q.full()) check_factors(*res, batch, l, what);
  return out;
}

/// Host-side counters of the decomposition, summed over launches.
struct Split {
  long estimate_calls = 0;
  long gpu_estimates = 0;
  long cpu_estimates = 0;
  long chunks = 0;
  long steals = 0;
  double busy = 0.0;      ///< Σ executor busy seconds (modelled)
  double capacity = 0.0;  ///< Σ executors × makespan (modelled)
  long kernel_launches = 0;
  long early_exits = 0;
  double kernel_flops = 0.0;
  double kernel_bytes = 0.0;
  double energy_flops = 0.0;
  double energy_joules = 0.0;
};

/// Re-times the hetero driver's planning on a launch with the options it
/// pinned (`path` is the call's HeteroResult::path_taken): sort, chunking,
/// every executor's estimate, and the assignment. Returns the number of
/// chunks, which must equal the call's HeteroResult::chunks.
template <typename T>
int retime_plan(hetero::DevicePool& pool, const std::vector<int>& sizes,
                PotrfPath path, const hetero::HeteroOptions& opts, Tracer& tr,
                Split& split) {
  Queue q(first_gpu_spec(pool), sim::ExecMode::TimingOnly);  // metadata only, no payload
  Batch<T> batch(q, sizes);
  const VbatchedProblem<T> prob = batch.problem();
  const int E = pool.size();
  const int max_n = batch.max_size();
  const sim::DeviceSpec& ref = first_gpu_spec(pool);
  const bool fused = path == PotrfPath::Fused;
  const int fused_nb = !fused ? 0
                       : opts.potrf.fused_nb > 0
                           ? opts.potrf.fused_nb
                           : kernels::choose_fused_nb(ref, max_n, sizeof(T));
  const int separated_nb = opts.potrf.separated_nb > 0
                               ? opts.potrf.separated_nb
                               : detail::default_separated_nb(sizeof(T));
  const PotrfOptions& po = opts.potrf;

  Span plan(tr, "hetero.plan", "hetero");
  std::vector<int> order;
  {
    Span s(tr, "hetero.sort_indices_desc", "hetero");
    order = hetero::sort_indices_desc(prob.n);
  }
  std::vector<int> sorted_n(order.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    sorted_n[i] = prob.n[static_cast<std::size_t>(order[i])];
  std::vector<hetero::Chunk> chunks;
  {
    Span s(tr, "hetero.build_chunks", "hetero");
    chunks = hetero::build_chunks(sorted_n, fused ? fused_nb : separated_nb,
                                  opts.chunks_per_executor * E);
  }
  const std::size_t C = chunks.size();
  struct Data {
    std::vector<T*> ptrs;
    std::vector<int> n, lda;
  };
  std::vector<Data> data(C);
  std::vector<hetero::ChunkWork> work(C);
  for (std::size_t c = 0; c < C; ++c) {
    const hetero::Chunk& ck = chunks[c];
    Data& d = data[c];
    for (int i = ck.begin; i < ck.end; ++i) {
      const std::size_t src = static_cast<std::size_t>(order[static_cast<std::size_t>(i)]);
      d.ptrs.push_back(prob.ptrs[src]);
      d.n.push_back(prob.n[src]);
      d.lda.push_back(prob.lda[src]);
    }
    hetero::ChunkWork& w = work[c];
    w.n = d.n;
    w.flops = ck.flops;
    w.max_n = ck.max_n;
    w.prec = precision_v<T>;
    const int chunk_max = ck.max_n;
    w.run = [&d, chunk_max, fused, fused_nb, separated_nb, po](Queue& cq,
                                                                std::span<int> info) -> double {
      if (chunk_max < 1) return 0.0;
      VbatchedProblem<T> cp{d.ptrs.data(), d.n, d.lda, info};
      if (fused)
        return detail::potrf_fused_run<T>(cq, Uplo::Lower, cp, chunk_max, po.etm,
                                          po.implicit_sorting, fused_nb, po.sort_window);
      return detail::potrf_separated_run<T>(cq, Uplo::Lower, cp, chunk_max, separated_nb,
                                            po.streamed_syrk, po.num_streams);
    };
  }
  std::vector<std::vector<double>> est(static_cast<std::size_t>(E), std::vector<double>(C));
  std::vector<std::vector<double>> occ(static_cast<std::size_t>(E), std::vector<double>(C));
  std::vector<int> streams(static_cast<std::size_t>(E), 1);
  for (int e = 0; e < E; ++e) {
    hetero::Executor& ex = pool.executor(e);
    streams[static_cast<std::size_t>(e)] = ex.streams();
    Span s(tr, ex.is_gpu() ? "hetero.estimate.gpu" : "cpu.estimate", ex.is_gpu() ? "hetero" : "cpu");
    for (std::size_t c = 0; c < C; ++c) {
      const hetero::ChunkEstimate ce = ex.estimate(work[c]);
      est[static_cast<std::size_t>(e)][c] = ce.seconds;
      occ[static_cast<std::size_t>(e)][c] = ce.occupancy;
    }
    (ex.is_gpu() ? split.gpu_estimates : split.cpu_estimates) += static_cast<long>(C);
  }
  {
    Span s(tr, "hetero.assign_chunks", "hetero");
    const auto owner =
        hetero::assign_chunks(hetero::effective_load(est, occ, streams), opts.partition, E);
    (void)owner;
  }
  split.estimate_calls += static_cast<long>(E) * static_cast<long>(C);
  return static_cast<int>(C);
}

/// The launch on one simulated K40c with the path the hetero call pinned:
/// Full mode (simulator + numerics), TimingOnly (simulator only), and the
/// plain host blas::potrf loop over the same matrices (numerics only, on
/// the same worker pool).
template <typename T>
void split_single_device(const Launch& l, PotrfPath path, Tracer& tr, Split& split) {
  const std::vector<int> sizes = launch_sizes(l);
  int max_n = 1;
  for (int n : sizes) max_n = std::max(max_n, n);
  PotrfOptions opts;
  opts.path = path;
  {
    Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::Full);
    Batch<T> b(q, sizes);
    fill_launch(b, l);
    {
      Span s(tr, "core.potrf_vbatched_max", "core");
      (void)potrf_vbatched_max<T>(q, Uplo::Lower, b, max_n, opts);
    }
    double flops = 0.0;
    for (const sim::KernelRecord& rec : q.device().timeline().records()) {
      if (rec.fault) continue;
      ++split.kernel_launches;
      split.early_exits += rec.early_exits;
      split.kernel_flops += rec.flops;
      split.kernel_bytes += rec.bytes;
      flops += rec.flops;
    }
    const energy::EnergyResult en = energy::gpu_timeline_energy(
        q.spec(), energy::PowerModel::k40c(), q.device().timeline(), precision_v<T>);
    split.energy_flops += flops;
    split.energy_joules += en.joules;
    fill_launch(b, l);
    Span s(tr, "blas.potrf", "blas");
    util::host_pool().parallel_for(b.count(), [&b](int i) {
      (void)blas::potrf<T>(Uplo::Lower, b.matrix(i));
    });
  }
  Queue q(sim::DeviceSpec::k40c(), sim::ExecMode::TimingOnly);
  Batch<T> b(q, sizes);
  Span s(tr, "sim.timing", "sim");
  (void)potrf_vbatched_max<T>(q, Uplo::Lower, b, max_n, opts);
}

/// Calls f.template operator()<T>() with T = float or double per precision.
template <typename F>
decltype(auto) by_precision(Precision p, F&& f) {
  return p == Precision::Single ? f.template operator()<float>() : f.template operator()<double>();
}

}  // namespace e2e
