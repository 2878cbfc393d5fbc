// Public vbatched Cholesky entry points (paper §III-A interfaces) and the
// potrf front they share with the heterogeneous pool.
#include "vbatch/core/potrf_vbatched.hpp"

#include <algorithm>
#include <string>

#include "vbatch/core/arg_check.hpp"
#include "vbatch/core/crossover.hpp"
#include "vbatch/cpu/cpu_batched.hpp"
#include "vbatch/kernels/fused_potrf.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/flops.hpp"

namespace vbatch {

namespace detail {

template <typename T>
PotrfPlan plan_potrf(Queue& q, const VbatchedProblem<T>& prob, std::optional<int> max_n,
                     const PotrfOptions& opts, const sim::DeviceSpec& ref,
                     std::span<const sim::DeviceSpec* const> targets, const char* who) {
  auto check = [who](bool cond, const char* what) {
    if (!cond) throw_error(Status::InvalidArgument, std::string(who) + ": " + what);
  };
  check(prob.count() > 0, "empty batch");
  check(static_cast<int>(prob.lda.size()) == prob.count() &&
            static_cast<int>(prob.info.size()) == prob.count(),
        "metadata array size mismatch");

  // One metadata pass validates the LAPACK dimension rules of
  // potrf(uplo, n, A, lda, info) — n >= 0 (argument 2), lda >= max(1, n)
  // (argument 4) — resets info and, for the LAPACK-like interface, reduces
  // the maximum: the arrays are read once, not once per concern. The expert
  // interface takes max_n from the caller (§III-A).
  const ArgRule rules[] = {{ArgRule::Kind::NonNegative, prob.n, {}, 2, "n"},
                           {ArgRule::Kind::AtLeastOther, prob.lda, prob.n, 4, "lda"}};
  PotrfPlan plan;
  const ArgSweep sweep = check_args_reduce(
      q.device(), rules, max_n ? std::span<const int>{} : prob.n, prob.info);
  require_args_ok(sweep.report, who);
  plan.sweep_seconds = sweep.seconds;
  plan.max_n = max_n.value_or(sweep.max_value);
  check(plan.max_n >= 1, max_n ? "max_n must be positive" : "all matrices are empty");

  // Path and blocking, resolved once from the global maximum.
  switch (opts.path) {
    case PotrfPath::Fused: plan.path = PotrfPath::Fused; break;
    case PotrfPath::Separated: plan.path = PotrfPath::Separated; break;
    case PotrfPath::Auto:
      plan.path = use_fused(ref, precision_v<T>, sizeof(T), plan.max_n, opts.crossover)
                      ? PotrfPath::Fused
                      : PotrfPath::Separated;
      break;
  }
  if (plan.path == PotrfPath::Fused) {
    plan.nb = opts.fused_nb > 0 ? opts.fused_nb
                                : kernels::choose_fused_nb(ref, plan.max_n, sizeof(T));
    const bool fits_everywhere =
        std::all_of(targets.begin(), targets.end(), [&](const sim::DeviceSpec* spec) {
          return plan.max_n <= kernels::fused_max_size(*spec, plan.nb, sizeof(T));
        });
    // Fall back rather than fail on an infeasible launch or a
    // smaller-memory peer; only a pinned Fused reaches the fused launch's size check.
    if (opts.path == PotrfPath::Auto && !fits_everywhere) plan.path = PotrfPath::Separated;
  }
  if (plan.path == PotrfPath::Separated)
    plan.nb = opts.separated_nb > 0 ? opts.separated_nb : default_separated_nb(sizeof(T));
  return plan;
}

template <typename T>
double run_potrf_plan(Queue& q, Uplo uplo, const VbatchedProblem<T>& prob, int max_n,
                      const PotrfPlan& plan, const PotrfOptions& opts) {
  if (plan.path == PotrfPath::Fused)
    return potrf_fused_run<T>(q, uplo, prob, max_n, opts.etm, opts.implicit_sorting, plan.nb,
                              opts.sort_window);
  return potrf_separated_run<T>(q, uplo, prob, max_n, plan.nb, opts.streamed_syrk,
                                opts.num_streams);
}

template <typename T>
void potrf_numerics(Uplo uplo, const PotrfPlan& plan, const VbatchedProblem<T>& prob) {
  if (plan.path == PotrfPath::Fused) {
    kernels::fused_potrf_numerics<T>(uplo, {prob.ptrs, prob.n, prob.lda}, plan.nb, prob.info);
  } else {
    cpu::potrf_each<T>(uplo, prob.n, prob.ptrs, prob.lda, prob.info);
  }
}

}  // namespace detail

namespace {

/// Both single-device interfaces: plan against the queue's own device, run.
template <typename T>
PotrfResult potrf_front(Queue& q, Uplo uplo, const VbatchedProblem<T>& prob,
                        std::optional<int> max_n, const PotrfOptions& opts) {
  const double t0 = q.time();
  const sim::DeviceSpec* target = &q.spec();
  const detail::PotrfPlan plan =
      detail::plan_potrf<T>(q, prob, max_n, opts, q.spec(), {&target, 1}, "potrf_vbatched");
  // Full mode: the call's math first, so every launch reads final info. A
  // pinned fused plan past the device's bound is rejected before it.
  if (q.full()) {
    require(plan.path != PotrfPath::Fused ||
                plan.max_n <= kernels::fused_max_size(q.spec(), plan.nb, sizeof(T)),
            "potrf_fused: batch exceeds the fused kernel's shared-memory bound");
    detail::potrf_numerics<T>(uplo, plan, prob);
  }
  PotrfResult result;
  result.flops = flops::potrf_batch(prob.n);
  result.path_taken = plan.path;
  result.seconds = detail::run_potrf_plan<T>(q, uplo, prob, plan.max_n, plan, opts);
  // The LAPACK-like interface's max reduction is part of the call (§III-A:
  // "The latter wraps the first interface and calls GPU kernels to compute
  // these maximums"), so its sweep time is reported with it.
  if (!max_n) result.seconds = q.time() - t0;
  return result;
}

}  // namespace

template <typename T>
PotrfResult potrf_vbatched_max(Queue& q, Uplo uplo, const VbatchedProblem<T>& prob, int max_n,
                               const PotrfOptions& opts) {
  return potrf_front<T>(q, uplo, prob, max_n, opts);
}

template <typename T>
PotrfResult potrf_vbatched_max(Queue& q, Uplo uplo, Batch<T>& batch, int max_n,
                               const PotrfOptions& opts) {
  return potrf_front<T>(q, uplo, batch.problem(), max_n, opts);
}

template <typename T>
PotrfResult potrf_vbatched(Queue& q, Uplo uplo, Batch<T>& batch, const PotrfOptions& opts) {
  return potrf_front<T>(q, uplo, batch.problem(), std::nullopt, opts);
}

#define VBATCH_INSTANTIATE_POTRF(T)                                                          \
  template detail::PotrfPlan detail::plan_potrf<T>(                                          \
      Queue&, const VbatchedProblem<T>&, std::optional<int>, const PotrfOptions&,            \
      const sim::DeviceSpec&, std::span<const sim::DeviceSpec* const>, const char*);         \
  template double detail::run_potrf_plan<T>(Queue&, Uplo, const VbatchedProblem<T>&, int,    \
                                            const detail::PotrfPlan&, const PotrfOptions&);  \
  template void detail::potrf_numerics<T>(Uplo, const detail::PotrfPlan&,                    \
                                          const VbatchedProblem<T>&);                        \
  template PotrfResult potrf_vbatched_max<T>(Queue&, Uplo, const VbatchedProblem<T>&, int,   \
                                             const PotrfOptions&);                           \
  template PotrfResult potrf_vbatched_max<T>(Queue&, Uplo, Batch<T>&, int,                   \
                                             const PotrfOptions&);                           \
  template PotrfResult potrf_vbatched<T>(Queue&, Uplo, Batch<T>&, const PotrfOptions&);

VBATCH_INSTANTIATE_POTRF(float)
VBATCH_INSTANTIATE_POTRF(double)
VBATCH_INSTANTIATE_POTRF(std::complex<float>)
VBATCH_INSTANTIATE_POTRF(std::complex<double>)

#undef VBATCH_INSTANTIATE_POTRF

}  // namespace vbatch
