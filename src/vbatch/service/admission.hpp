// Admission control — the overload-protection layer of the batch service
// (docs/service.md, "Overload & admission").
//
// PR 8's service admits unboundedly: a burst beyond pool capacity, or an
// executor dying mid-trace, turns the coalescer queue into an unbounded
// latency amplifier. The AdmissionController closes that hole with three
// deterministic policies, all pure functions of the virtual clock and the
// request stream (so trace replay stays bit-reproducible):
//
//   * per-tenant token buckets in flops currency — each tenant accrues
//     tokens at (tenant-rate × weight) Gflop/s, capped at a burst window;
//     a request costing more flops than the bucket holds is shed with
//     RejectedTenantRate. Rates tighten automatically by the surviving
//     share of nominal peak when an executor dies, so degradation is
//     graceful.
//   * global queue watermarks — pending-request depth and pending payload
//     bytes; crossing either sheds with RejectedQueueFull instead of
//     letting the queue (and host memory) grow without bound.
//   * deadline feasibility — a request whose deadline cannot be met by the
//     current capacity estimate (backlog + its own service time) is shed on
//     arrival with RejectedDeadline; admitted requests whose deadline
//     expired while queueing are shed again at dispatch, before wasting a
//     launch slot on work nobody will wait for.
//
// Capacity feedback: the controller starts from the pool's nominal peak
// flops (scaled by a conservative efficiency), then calibrates with an EWMA
// of observed launch throughput and cuts the estimate multiplicatively when
// the fault layer reports an executor permanently lost. After a drop, a
// shed plan drains the queued backlog to a bounded horizon, lowest-weight
// tenants first.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "vbatch/service/request.hpp"

namespace vbatch::service {

/// Verdict of one admission check (maps onto RequestStatus for outcomes).
enum class AdmissionDecision : std::uint8_t {
  Admit,
  RejectedTenantRate,
  RejectedQueueFull,
  RejectedDeadline,
};

[[nodiscard]] constexpr const char* to_string(AdmissionDecision d) noexcept {
  switch (d) {
    case AdmissionDecision::Admit: return "admit";
    case AdmissionDecision::RejectedTenantRate: return "rejected-tenant-rate";
    case AdmissionDecision::RejectedQueueFull: return "rejected-queue-full";
    case AdmissionDecision::RejectedDeadline: return "rejected-deadline";
  }
  return "?";
}

/// The RequestStatus a rejected request's outcome carries.
[[nodiscard]] constexpr RequestStatus status_of(AdmissionDecision d) noexcept {
  switch (d) {
    case AdmissionDecision::RejectedTenantRate: return RequestStatus::RejectedTenantRate;
    case AdmissionDecision::RejectedQueueFull: return RequestStatus::RejectedQueueFull;
    case AdmissionDecision::RejectedDeadline: return RequestStatus::RejectedDeadline;
    case AdmissionDecision::Admit: break;
  }
  return RequestStatus::Pending;
}

/// Knobs of the overload-protection layer. Defaults keep every policy off
/// (enabled=false reproduces the PR 8 admit-everything service exactly);
/// the CLI's --max-queue/--tenant-rate and the VBATCH_ADMISSION env knob
/// turn individual policies on.
struct AdmissionConfig {
  bool enabled = false;
  /// Pending-request watermark: admitted requests not yet dispatched.
  /// 0 = unbounded.
  int max_queue = 0;
  /// Pending payload watermark in bytes (the footprint half of the queue
  /// bound). 0 = unbounded.
  double max_queue_bytes = 0.0;
  /// Token refill per tenant in Gflop/s, scaled by the tenant's fairness
  /// weight. 0 = no rate limiting.
  double tenant_rate_gflops = 0.0;
  /// Bucket capacity as a burst window: capacity = rate × burst_seconds.
  double burst_seconds = 0.05;
  /// Absolute per-tenant rate overrides in Gflop/s (weight is not applied).
  std::vector<std::pair<std::string, double>> tenant_rates;
  /// After a capacity drop, shed queued work (lowest-weight tenants first)
  /// until the backlog drains within this horizon at the new capacity.
  /// 0 = never shed retroactively.
  double shed_horizon_seconds = 0.1;
  /// Fraction of nominal peak flops assumed before the first launch
  /// calibrates the estimate. Must be in (0, 1].
  double initial_efficiency = 0.5;
  /// Deadline feasibility checks (arrival + dispatch). Off leaves deadlines
  /// as pure reporting (SLO attainment) without shedding.
  bool respect_deadlines = true;
};

/// Parses the VBATCH_ADMISSION grammar: semicolon-separated key=value pairs
/// from {max-queue=N, max-gb=X, tenant-rate=G, burst=S, shed-horizon=S,
/// deadlines=on|off}. Any recognised key enables admission. Malformed specs
/// raise Status::InvalidArgument naming the offending token — never a
/// silently-default config.
[[nodiscard]] AdmissionConfig parse_admission_spec(const std::string& spec);

/// Queue state snapshot an admission check runs against.
struct QueueSnapshot {
  int depth = 0;          ///< pending requests (admitted, not yet dispatched)
  double bytes = 0.0;     ///< pending payload bytes
  double flops = 0.0;     ///< pending useful flops (the backlog)
  double busy_until = 0.0;  ///< service-clock instant the pool frees up
};

/// One queued candidate of a capacity-drop shed plan.
struct PendingItem {
  std::uint64_t id = 0;
  std::string tenant;
  double flops = 0.0;
};

class AdmissionController {
 public:
  AdmissionController() = default;
  /// `executor_peak_gflops` are the pool's nominal per-executor peaks (the
  /// capacity-model seed and the per-executor loss accounting unit).
  AdmissionController(AdmissionConfig cfg, std::vector<double> executor_peak_gflops);

  [[nodiscard]] bool enabled() const noexcept { return cfg_.enabled; }
  [[nodiscard]] const AdmissionConfig& config() const noexcept { return cfg_; }

  /// Registers a tenant fairness weight (scales its token refill rate and
  /// orders capacity-drop shedding). Must be > 0.
  void set_weight(const std::string& tenant, double weight);

  /// Full admission check at instant `now`: watermarks, then deadline
  /// feasibility, then the tenant token bucket (cheapest rejection first so
  /// a shed request never drains tokens). Admit consumes the request's
  /// flops from its tenant's bucket.
  [[nodiscard]] AdmissionDecision admit(const Request& r, double now, const QueueSnapshot& q);

  /// Dispatch-time shedding: iterates to a fixed point dropping requests
  /// whose deadline precedes the estimated completion of the (shrinking)
  /// merged launch. Order of survivors is preserved.
  struct Filtered {
    std::vector<Request> kept;
    std::vector<Request> dropped;
  };
  [[nodiscard]] Filtered filter_deadlines(std::vector<Request> admitted, double now) const;

  /// Capacity feedback from one merged launch: calibrates the throughput
  /// EWMA and applies the loss of any executor the fault layer reported
  /// permanently dead (`lost[e] != 0`). Loss is cumulative across launches.
  void observe_launch(double flops, double seconds, const std::vector<char>& lost);

  /// True once after an observe_launch that newly lost an executor; reading
  /// it clears the flag (the caller runs one shed pass per drop).
  [[nodiscard]] bool take_capacity_drop() noexcept;

  /// Current pool throughput estimate in Gflop/s (never below a small
  /// positive floor so feasibility math stays finite).
  [[nodiscard]] double capacity_gflops() const noexcept;
  [[nodiscard]] int executors_lost() const noexcept { return lost_count_; }

  /// Capacity-drop shed plan over the queued backlog: victims are chosen
  /// lowest-weight tenant first (name-ordered ties), newest request first
  /// within a tenant, until the remaining backlog drains within
  /// shed_horizon_seconds at the current capacity estimate. Returns the
  /// victim ids in shed order.
  [[nodiscard]] std::vector<std::uint64_t> shed_plan(
      const std::vector<PendingItem>& pending) const;

 private:
  struct Bucket {
    double tokens = 0.0;
    double last_refill = 0.0;
    bool primed = false;  ///< buckets start full on first use
  };
  [[nodiscard]] double weight_of(const std::string& tenant) const noexcept;
  /// Effective refill rate in flops/s: the per-tenant base rate tightened
  /// by the surviving share of the pool's nominal peak.
  [[nodiscard]] double rate_flops(const std::string& tenant) const noexcept;
  void refill(Bucket& b, const std::string& tenant, double now) const;

  AdmissionConfig cfg_;
  std::map<std::string, double> weights_;
  std::map<std::string, Bucket> buckets_;
  std::vector<double> peaks_;   ///< nominal per-executor Gflop/s
  std::vector<char> alive_;     ///< cumulative loss mask
  int lost_count_ = 0;
  double initial_capacity_ = 0.0;  ///< Gflop/s at construction
  double capacity_ = 0.0;          ///< current estimate, Gflop/s
  bool capacity_dropped_ = false;
};

}  // namespace vbatch::service
