// vbatch::service — the long-running batch service front-end
// (docs/service.md).
//
// Two front doors over one dispatch engine:
//
//   * replay_trace: the scripted virtual-time mode. Arrivals come from a
//     Trace, the clock is the deterministic service clock (a single-server
//     queueing model over the pool's modelled makespans), and the returned
//     ServiceReport — makespan, queue depths, per-tenant p50/p99, every
//     per-request factor — is bit-for-bit reproducible for a given
//     (trace, config, pool). This is the mode the determinism sweeps,
//     benches and CI gates run.
//
//   * Service: the wall-clock mode. submit() runs admission and queues the
//     request on the caller's thread; a dispatcher thread launches merged
//     batches as they fall due, and callers block on JobTickets.
//     Timestamps, launch durations and the admission capacity estimate are
//     all wall seconds, so only the numerics (not the timings) are
//     reproducible.
//
// The engine (docs/service.md, "Engine and clocks") owns the coalescer, the
// admission controller and the batch and outcome logs; the modes differ
// only in the clock. Each launch pops a Coalescer flush, drops requests
// whose deadline has already passed, concatenates the rest into one
// variable-size Batch (payloads seeded per request, so a request's bits
// never depend on its launch-mates), runs the heterogeneous potrf (plus the
// vbatched triangular solve for posv requests), then demuxes per-request
// info slices, energy shares and payload bytes back to the requests and
// feeds the launch's throughput back into admission. Faults poison only the
// requests whose matrices were lost — everything else in the merged launch
// completes normally.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "vbatch/core/queue.hpp"
#include "vbatch/hetero/device_pool.hpp"
#include "vbatch/hetero/potrf_hetero.hpp"
#include "vbatch/service/admission.hpp"
#include "vbatch/service/coalescer.hpp"
#include "vbatch/service/report.hpp"
#include "vbatch/service/trace.hpp"

namespace vbatch::service {

struct ServiceConfig {
  CoalescerConfig coalesce;
  /// Overload protection (token buckets, watermarks, deadline shedding,
  /// capacity feedback). Disabled by default; the VBATCH_ADMISSION env knob
  /// applies only when no explicit config enabled it.
  AdmissionConfig admission;
  hetero::HeteroOptions hetero;  ///< forwarded to every merged launch
  Uplo uplo = Uplo::Lower;
  /// TimingOnly (default) replays pure queueing/timing studies; Full runs
  /// the numerics so outcomes carry real info statuses and payloads.
  sim::ExecMode mode = sim::ExecMode::TimingOnly;
  /// Full mode only: copy each request's factor (and solution) bytes into
  /// its RequestOutcome — the determinism sweeps memcmp these.
  bool keep_payloads = false;
  /// Extra tenant weights (override trace declarations; Service mode's only
  /// weight source). Order is the fairness registration order.
  std::vector<std::pair<std::string, double>> tenant_weights;
};

/// Replays a scripted trace on the pool under the deterministic virtual
/// clock and returns the full report. Single-server model: the pool serves
/// one merged launch at a time; while it is busy, arrivals queue in the
/// coalescer (and become merge candidates — busy periods deepen batches,
/// exactly like a real serving system under load).
[[nodiscard]] ServiceReport replay_trace(hetero::DevicePool& pool, const Trace& trace,
                                         const ServiceConfig& cfg = {});

namespace detail {
struct TicketState;
}

/// Handle to one wall-clock request (see Service::submit). The ticket, not
/// the service, keeps the request's outcome once it resolves: the service
/// lets go of it at resolution and copies the outcome into it only while a
/// client holds a copy of the ticket. A dropped ticket's outcome still
/// appears in drain()'s report.
class JobTicket {
 public:
  JobTicket() = default;
  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  [[nodiscard]] std::uint64_t id() const noexcept;
  [[nodiscard]] bool done() const;

 private:
  friend class Service;
  explicit JobTicket(std::shared_ptr<detail::TicketState> s) : state_(std::move(s)) {}
  std::shared_ptr<detail::TicketState> state_;
};

/// The live, wall-clock service: a dispatcher thread launches merged batches
/// on the pool; any number of client threads submit() and wait(). Lifecycle:
/// construct → submit/wait from anywhere → drain() once (flushes what is
/// pending, stops the dispatcher, returns the report).
class Service {
 public:
  explicit Service(hetero::DevicePool& pool, ServiceConfig cfg = {});
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Thread-safe. Stamps the request's submit_time with the service wall
  /// clock and runs admission at once: a shed request's ticket is already
  /// resolved on return. Id 0 auto-assigns the next free id. Duplicate ids
  /// (an id stays taken after its request resolves) and submissions after
  /// drain() raise Status::InvalidArgument.
  [[nodiscard]] JobTicket submit(Request r);

  /// Blocks until the ticket's request completes; returns its outcome.
  [[nodiscard]] RequestOutcome wait(const JobTicket& ticket) const;

  /// Closes intake, flushes every pending request, stops the dispatcher and
  /// returns the report. The first call moves the outcome and batch logs
  /// out to its caller; later calls return the same aggregates with empty
  /// `outcomes` and `batch_log`.
  [[nodiscard]] ServiceReport drain();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace vbatch::service
