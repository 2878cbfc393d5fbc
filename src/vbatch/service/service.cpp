#include "vbatch/service/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>

#include "vbatch/core/batch.hpp"
#include "vbatch/core/potrs_vbatched.hpp"
#include "vbatch/hetero/executor.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/rng.hpp"

namespace vbatch::service {

namespace {

/// Result of one merged launch, before the caller stamps the service-clock
/// times and batch id onto the outcomes.
struct LaunchResult {
  double seconds = 0.0;  ///< modelled seconds (factor + solve)
  double flops = 0.0;
  double joules = 0.0;
  std::vector<RequestOutcome> outcomes;  ///< admission order
  /// Per-executor permanent-loss flags from the fault layer — the capacity
  /// feedback the admission controller tightens on.
  std::vector<char> lost;
};

/// Resolves the admission config: an explicitly enabled config wins;
/// otherwise the VBATCH_ADMISSION env knob applies (mirroring the
/// VBATCH_INJECT_FAULTS precedence rule).
AdmissionConfig resolve_admission(const AdmissionConfig& explicit_cfg) {
  if (explicit_cfg.enabled) return explicit_cfg;
  if (const char* env = std::getenv("VBATCH_ADMISSION"); env != nullptr && *env != '\0')
    return parse_admission_spec(env);
  return explicit_cfg;
}

/// Nominal per-executor peaks seeding the capacity model. Double precision:
/// the conservative end — single-precision requests only make the estimate
/// safer, and calibration corrects it after the first launch anyway.
std::vector<double> executor_peaks(const hetero::DevicePool& pool) {
  std::vector<double> peaks;
  peaks.reserve(static_cast<std::size_t>(pool.size()));
  for (int e = 0; e < pool.size(); ++e)
    peaks.push_back(pool.executor(e).peak_gflops(Precision::Double));
  return peaks;
}

/// Outcome of a request shed by the admission layer at instant `t`: no
/// launch slice, zero latency (it never queued past the decision point).
RequestOutcome rejected_outcome(const Request& r, RequestStatus status, double t) {
  RequestOutcome o;
  o.id = r.id;
  o.tenant = r.tenant;
  o.status = status;
  o.submit_time = r.submit_time;
  o.dispatch_time = t;
  o.complete_time = t;
  o.deadline = r.deadline;
  o.flops = r.flops();
  return o;
}

template <typename T>
std::vector<unsigned char> to_bytes(const std::vector<T>& v) {
  std::vector<unsigned char> bytes(v.size() * sizeof(T));
  if (!bytes.empty()) std::memcpy(bytes.data(), v.data(), bytes.size());
  return bytes;
}

/// Executes one coalesced flush as a single variable-size launch and
/// demultiplexes the per-request slices. Payload rule: every request is
/// filled from its own payload_seed, sequentially over its own matrices —
/// so its numerics are a pure function of the request, not of whatever the
/// coalescer merged it with.
template <typename T>
LaunchResult run_merged(hetero::DevicePool& pool, const Coalescer::Flush& flush,
                        const ServiceConfig& cfg) {
  std::vector<int> sizes;
  for (const Request& r : flush.admitted)
    sizes.insert(sizes.end(), r.sizes.begin(), r.sizes.end());
  const int total = static_cast<int>(sizes.size());

  // The host queue mirrors the pool's reference device, so arena accounting
  // and the potrs solve stage are charged against a consistent model.
  Queue q(pool.reference_spec(), cfg.mode);
  Batch<T> batch(q, sizes);
  if (q.full()) {
    int k = 0;
    for (const Request& r : flush.admitted) {
      Rng rng(r.payload_seed());
      for (std::size_t j = 0; j < r.sizes.size(); ++j, ++k) {
        MatrixView<T> v = batch.matrix(k);
        fill_spd(rng, v.data(), v.rows(), v.ld());
      }
    }
  }

  const auto hr = hetero::potrf_vbatched_hetero<T>(pool, cfg.uplo, batch, cfg.hetero);

  LaunchResult out;
  out.seconds = hr.seconds;
  out.flops = hr.flops;
  out.joules = hr.energy.joules;
  out.lost.reserve(hr.executors.size());
  for (const auto& rep : hr.executors) out.lost.push_back(rep.lost ? 1 : 0);

  // Posv requests continue into the vbatched triangular solve on the host
  // queue (matrices whose factorization failed or was poisoned are skipped
  // by potrs itself). The solve's modelled seconds extend the launch.
  std::unique_ptr<RectBatch<T>> rhs;
  if (flush.key.op == Op::Posv) {
    std::vector<int> cols;
    cols.reserve(sizes.size());
    for (const Request& r : flush.admitted)
      cols.insert(cols.end(), r.sizes.size(), r.nrhs);
    rhs = std::make_unique<RectBatch<T>>(q, sizes, cols);
    if (q.full()) {
      int k = 0;
      for (const Request& r : flush.admitted) {
        // A different stream than the SPD fill so A and B are independent.
        Rng rng(r.payload_seed() ^ 0xD1B54A32D192ED03ull);
        for (std::size_t j = 0; j < r.sizes.size(); ++j, ++k) {
          MatrixView<T> v = rhs->matrix(k);
          fill_general(rng, v.data(), v.rows(), v.cols(), v.ld());
        }
      }
    }
    const auto sr = potrs_vbatched<T>(q, cfg.uplo, batch, *rhs);
    out.seconds += sr.seconds;
    out.flops += sr.flops;
  }

  const std::span<const int> info = batch.info();
  int k = 0;
  for (const Request& r : flush.admitted) {
    RequestOutcome o;
    o.id = r.id;
    o.tenant = r.tenant;
    o.submit_time = r.submit_time;
    o.deadline = r.deadline;
    o.flops = r.flops();
    o.merged_with = total;
    o.info.assign(info.begin() + k, info.begin() + k + r.matrices());
    o.status = RequestStatus::Ok;
    for (int s : o.info) {
      if (s == kInfoChunkLost) {
        o.status = RequestStatus::Poisoned;
        break;
      }
      if (s != 0) o.status = RequestStatus::Failed;
    }
    // Energy slice: the launch's ∫P dt split by useful-flops share — the
    // same currency the fairness scheduler budgets with.
    o.joules = out.flops > 0.0 ? out.joules * (o.flops / out.flops) : 0.0;
    if (cfg.keep_payloads && q.full()) {
      for (int j = 0; j < r.matrices(); ++j) {
        // Payload bytes only for cleanly completed matrices: a poisoned
        // matrix's buffer holds whatever the aborted schedule left behind.
        o.factors.push_back(info[k + j] == 0 ? to_bytes(batch.copy_matrix(k + j))
                                             : std::vector<unsigned char>{});
        if (rhs)
          o.solutions.push_back(info[k + j] == 0 ? to_bytes(rhs->copy_matrix(k + j))
                                                 : std::vector<unsigned char>{});
      }
    }
    k += r.matrices();
    out.outcomes.push_back(std::move(o));
  }
  return out;
}

LaunchResult run_flush(hetero::DevicePool& pool, const Coalescer::Flush& flush,
                       const ServiceConfig& cfg) {
  return flush.key.prec == Precision::Single ? run_merged<float>(pool, flush, cfg)
                                             : run_merged<double>(pool, flush, cfg);
}

BatchRecord record_of(int id, const Coalescer::Flush& flush, const LaunchResult& lr,
                      double dispatch_time) {
  BatchRecord b;
  b.id = id;
  b.key = flush.key;
  b.reason = flush.reason;
  b.requests = static_cast<int>(flush.admitted.size());
  for (const Request& r : flush.admitted) b.matrices += r.matrices();
  b.dispatch_time = dispatch_time;
  b.seconds = lr.seconds;
  b.flops = lr.flops;
  b.joules = lr.joules;
  return b;
}

/// The one dispatch engine behind both front doors. It owns the coalescer,
/// the admission controller, batch ids, the outcome and batch logs and the
/// queue-depth accounting, all guarded by `mutex`; replay_trace and Service
/// only decide when to call arrive() and launch(). The modes differ in the
/// clock alone.
class Engine {
 public:
  /// Virtual: the replay's service clock. A launch takes exactly its
  /// modelled seconds, and capacity calibrates on them. Wall: steady_clock
  /// seconds since the engine started. A launch takes its measured host
  /// time, and capacity calibrates on that, so live deadline admission is
  /// judged on the clock the deadlines run on.
  enum class Clock : std::uint8_t { Virtual, Wall };

  Engine(hetero::DevicePool& pool, ServiceConfig cfg, Clock clock,
         const std::vector<std::pair<std::string, double>>& trace_tenants = {})
      : pool_(&pool),
        cfg_(std::move(cfg)),
        clock_(clock),
        coalescer_(cfg_.coalesce),
        admission_(resolve_admission(cfg_.admission), executor_peaks(pool)) {
    // Trace declarations first; config weights override them.
    for (const auto& tenants : {std::cref(trace_tenants), std::cref(cfg_.tenant_weights)})
      for (const auto& [tenant, weight] : tenants.get()) {
        coalescer_.set_weight(tenant, weight);
        admission_.set_weight(tenant, weight);
        weights_[tenant] = weight;
      }
  }

  /// Guards all engine state (and the live Service's ticket map).
  std::mutex mutex;
  /// Called under `mutex` with every terminal outcome, in log order.
  std::function<void(const RequestOutcome&)> on_resolve;

  /// Wall-clock seconds since construction.
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
  }
  [[nodiscard]] double next_ready() const noexcept { return coalescer_.next_ready(); }
  [[nodiscard]] bool idle() const noexcept { return coalescer_.empty(); }
  /// Instant the pool frees up: the last launch's completion, or while a
  /// launch runs, its estimated completion at the current capacity.
  [[nodiscard]] double busy_until() const noexcept { return busy_until_; }

  /// Admission at instant `t` against the backlog snapshot: an admitted
  /// request joins the coalescer, a shed one resolves immediately with its
  /// named rejection status.
  void arrive(const Request& r, double t) {
    advance(t);
    const QueueSnapshot snap{coalescer_.depth(), coalescer_.pending_bytes(),
                             coalescer_.pending_flops(), busy_until_};
    const AdmissionDecision verdict = admission_.admit(r, t, snap);
    if (verdict != AdmissionDecision::Admit) {
      resolve(rejected_outcome(r, status_of(verdict), t));
      return;
    }
    coalescer_.add(r, t);
    peak_depth_ = std::max(peak_depth_, coalescer_.depth());
  }

  /// The most urgent flushable group at `t` (`force`: any group — drain).
  [[nodiscard]] std::optional<Coalescer::Flush> pop(double t, bool force = false) {
    advance(t);
    return coalescer_.pop_ready(t, force);
  }

  /// Dispatches one flush at `t_dispatch`. Called with `lock` held on
  /// `mutex`; the lock is released only around the launch itself.
  void launch(std::unique_lock<std::mutex>& lock, Coalescer::Flush flush, double t_dispatch) {
    // Deadline shedding at dispatch: drop what queued past its SLO before
    // spending launch time on it (the shrunken launch may rescue the rest).
    auto filtered = admission_.filter_deadlines(std::move(flush.admitted), t_dispatch);
    for (const Request& r : filtered.dropped)
      resolve(rejected_outcome(r, RequestStatus::RejectedDeadline, t_dispatch));
    if (filtered.kept.empty()) return;
    flush.admitted = std::move(filtered.kept);
    double flops = 0.0;
    for (const Request& r : flush.admitted) flops += r.flops();
    busy_until_ = t_dispatch + flops / (admission_.capacity_gflops() * 1e9);

    lock.unlock();
    const LaunchResult lr = run_flush(*pool_, flush, cfg_);
    const double seconds = clock_ == Clock::Wall ? now() - t_dispatch : lr.seconds;
    lock.lock();

    const double t_done = t_dispatch + seconds;
    busy_until_ = t_done;
    batch_log_.push_back(record_of(batch_seq_++, flush, lr, t_dispatch));
    for (RequestOutcome o : lr.outcomes) {
      o.dispatch_time = t_dispatch;
      o.complete_time = t_done;
      o.batch_id = batch_log_.back().id;
      resolve(std::move(o));
    }
    // Capacity feedback: calibrate on the launch as this clock saw it; an
    // executor the fault layer reports permanently lost cuts the estimate
    // and triggers one graceful-degradation shed pass over the queued
    // backlog (lowest-weight tenants first), effective at completion.
    admission_.observe_launch(lr.flops, seconds, lr.lost);
    if (admission_.take_capacity_drop()) {
      std::vector<PendingItem> backlog;
      for (const auto& p : coalescer_.pending())
        backlog.push_back(PendingItem{p.id, p.tenant, p.flops});
      for (std::uint64_t id : admission_.shed_plan(backlog)) {
        const Request victim = coalescer_.remove(id);
        resolve(rejected_outcome(victim, RequestStatus::RejectedQueueFull, t_done));
      }
    }
  }

  /// The final report; moves the logs out, so call it once.
  [[nodiscard]] ServiceReport report() {
    ServiceReport rep;
    rep.batch_log = std::move(batch_log_);
    rep.outcomes = std::move(outcomes_);
    rep.finalize(weights_);
    rep.peak_queue_depth = peak_depth_;
    rep.mean_queue_depth = rep.makespan > 0.0 ? depth_integral_ / rep.makespan : 0.0;
    rep.capacity_gflops = admission_.capacity_gflops();
    rep.admission_enabled = admission_.enabled();
    return rep;
  }

 private:
  /// Integrates the queue depth up to `t` (every coalescer mutation first
  /// advances the integration point).
  void advance(double t) {
    depth_integral_ += coalescer_.depth() * (t - last_event_);
    last_event_ = t;
  }

  void resolve(RequestOutcome o) {
    outcomes_.push_back(std::move(o));
    if (on_resolve) on_resolve(outcomes_.back());
  }

  hetero::DevicePool* pool_;
  ServiceConfig cfg_;
  Clock clock_;
  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
  Coalescer coalescer_;
  AdmissionController admission_;
  std::map<std::string, double> weights_;
  std::vector<BatchRecord> batch_log_;
  std::vector<RequestOutcome> outcomes_;
  int batch_seq_ = 0;
  int peak_depth_ = 0;
  double busy_until_ = 0.0;
  double last_event_ = 0.0;
  double depth_integral_ = 0.0;
};

}  // namespace

ServiceReport replay_trace(hetero::DevicePool& pool, const Trace& trace,
                           const ServiceConfig& cfg) {
  Engine engine(pool, cfg, Engine::Clock::Virtual, trace.tenants);
  std::unique_lock<std::mutex> lock(engine.mutex);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::size_t next = 0;
  while (next < trace.requests.size() || !engine.idle()) {
    const double t_arrival =
        next < trace.requests.size() ? trace.requests[next].submit_time : kInf;
    // Single-server model: the next merged launch starts once the pool is
    // free AND some group is flushable. Arrivals up to that instant join
    // the queue first — a busy pool is exactly what deepens batches.
    const double t_dispatch = std::max(engine.busy_until(), engine.next_ready());
    if (t_arrival <= t_dispatch) {
      engine.arrive(trace.requests[next++], t_arrival);
      continue;
    }
    auto flush = engine.pop(t_dispatch);
    require(flush.has_value(), "replay_trace: internal scheduling error (no ready group)");
    engine.launch(lock, std::move(*flush), t_dispatch);
  }
  return engine.report();
}

// ---------------------------------------------------------------------------
// Wall-clock Service
// ---------------------------------------------------------------------------

namespace detail {
struct TicketState {
  std::uint64_t id = 0;
  mutable std::mutex mutex;
  mutable std::condition_variable cv;
  bool done = false;
  RequestOutcome outcome;
};
}  // namespace detail

std::uint64_t JobTicket::id() const noexcept { return state_ ? state_->id : 0; }

bool JobTicket::done() const {
  if (!state_) return false;
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->done;
}

struct Service::Impl {
  Engine engine;
  /// Wakes the dispatcher: a flush became due earlier, or intake closed.
  std::condition_variable wake;
  // Guarded by engine.mutex:
  std::map<std::uint64_t, std::shared_ptr<detail::TicketState>> tickets;
  std::uint64_t next_id = 0;
  bool closing = false;
  std::optional<ServiceReport> report;  ///< set by the first drain()
  std::thread worker;

  Impl(hetero::DevicePool& pool, ServiceConfig cfg)
      : engine(pool, std::move(cfg), Engine::Clock::Wall) {
    // Every terminal outcome (launch completion or admission rejection)
    // signals its ticket, so a shed request's wait() returns too.
    engine.on_resolve = [this](const RequestOutcome& o) {
      const auto it = tickets.find(o.id);
      if (it == tickets.end()) return;
      detail::TicketState& st = *it->second;
      {
        std::lock_guard<std::mutex> tl(st.mutex);
        st.outcome = o;
        st.done = true;
      }
      st.cv.notify_all();
    };
  }

  /// The dispatcher: launch whatever is due, else sleep until the next
  /// flush is due or a submit makes one due earlier. Closing flushes the
  /// rest and exits.
  void loop() {
    std::unique_lock<std::mutex> lock(engine.mutex);
    for (;;) {
      const double t = engine.now();
      if (auto flush = engine.pop(t, closing)) {
        engine.launch(lock, std::move(*flush), t);
        continue;
      }
      if (closing) return;
      const double ready = engine.next_ready();
      const auto sooner = [&] { return closing || engine.next_ready() < ready; };
      if (std::isfinite(ready))
        wake.wait_for(lock, std::chrono::duration<double>(ready - t), sooner);
      else
        wake.wait(lock, sooner);
    }
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(engine.mutex);
      closing = true;
    }
    wake.notify_one();
    if (worker.joinable()) worker.join();
  }
};

Service::Service(hetero::DevicePool& pool, ServiceConfig cfg)
    : impl_(std::make_unique<Impl>(pool, std::move(cfg))) {
  impl_->worker = std::thread([impl = impl_.get()] { impl->loop(); });
}

Service::~Service() { impl_->close(); }

JobTicket Service::submit(Request r) {
  auto state = std::make_shared<detail::TicketState>();
  Engine& engine = impl_->engine;
  bool earlier = false;
  {
    std::lock_guard<std::mutex> lock(engine.mutex);
    require(!impl_->closing, "Service: submit after drain");
    if (r.id == 0) r.id = ++impl_->next_id;
    else impl_->next_id = std::max(impl_->next_id, r.id);
    state->id = r.id;
    if (!impl_->tickets.emplace(r.id, state).second)
      throw_error(Status::InvalidArgument,
                  "Service: duplicate request id " + std::to_string(r.id));
    // Admission runs here, at the submit instant, against the same backlog
    // the dispatcher drains, so the watermark counts every pending request.
    r.submit_time = engine.now();
    const double due = engine.next_ready();
    engine.arrive(r, r.submit_time);
    earlier = engine.next_ready() < due;
  }
  if (earlier) impl_->wake.notify_one();
  return JobTicket(state);
}

RequestOutcome Service::wait(const JobTicket& ticket) const {
  require(ticket.valid(), "Service: wait on an empty JobTicket");
  detail::TicketState& st = *ticket.state_;
  std::unique_lock<std::mutex> lock(st.mutex);
  st.cv.wait(lock, [&st] { return st.done; });
  return st.outcome;
}

ServiceReport Service::drain() {
  impl_->close();
  std::lock_guard<std::mutex> lock(impl_->engine.mutex);
  if (!impl_->report) impl_->report = impl_->engine.report();
  return *impl_->report;
}

}  // namespace vbatch::service
