// Request coalescing — the admission layer that turns many small concurrent
// requests into few large variable-size launches (docs/service.md).
//
// The paper's core economics apply directly to serving: a vbatched launch
// amortizes its fixed costs (kernel launches, the metadata sweep) over the
// whole batch, so merging compatible pending requests into one launch buys
// throughput at the price of a bounded queueing delay. The Coalescer holds
// pending requests in groups keyed by (op, precision) — incompatible
// requests are never merged — and flushes a group when the oldest member's
// latency budget expires, when the pending matrix count reaches the
// batch-size cap, or when the pending payload reaches the arena-footprint
// cap (so a flushed launch composes with the out-of-core staging budget
// downstream). Cap flushes fire immediately on the arrival that crosses the
// cap — before any budget expiry — and admission within a flush is the
// weighted-DRR fairness pass of fairness.hpp.
//
// The class is clock-agnostic: callers feed it "now" instants (virtual
// seconds in replay mode, wall seconds in the live Service), and it answers
// "when is the next flush due". All decisions are pure functions of the
// arrival history, which is what makes trace replay bit-reproducible.
#pragma once

#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "vbatch/service/fairness.hpp"
#include "vbatch/service/request.hpp"

namespace vbatch::service {

/// Merge-compatibility key: only requests with identical op and precision
/// share a launch.
struct GroupKey {
  Op op = Op::Potrf;
  Precision prec = Precision::Double;
  bool operator<(const GroupKey& o) const noexcept {
    if (op != o.op) return op < o.op;
    return prec < o.prec;
  }
  bool operator==(const GroupKey& o) const noexcept { return op == o.op && prec == o.prec; }
};

/// Why a flush fired (tests assert the cap-before-budget ordering).
enum class FlushReason : std::uint8_t { Budget, CountCap, BytesCap, Drain };

[[nodiscard]] constexpr const char* to_string(FlushReason r) noexcept {
  switch (r) {
    case FlushReason::Budget: return "budget";
    case FlushReason::CountCap: return "count-cap";
    case FlushReason::BytesCap: return "bytes-cap";
    case FlushReason::Drain: return "drain";
  }
  return "?";
}

struct CoalescerConfig {
  /// Seconds a request may wait for merge partners before its group must
  /// flush. 0 = flush immediately (per-arrival launches unless requests
  /// share an arrival instant).
  double latency_budget = 1e-3;
  /// Matrices per merged launch (0 = unbounded). Reaching it flushes
  /// immediately.
  int max_batch = 0;
  /// Payload bytes per merged launch (0 = unbounded). Reaching it flushes
  /// immediately; one oversized request is still admitted alone.
  double max_bytes = 0.0;
};

class Coalescer {
 public:
  explicit Coalescer(CoalescerConfig cfg = {}) : cfg_(cfg) {}

  /// Registers a tenant weight (Status::InvalidArgument unless > 0).
  void set_weight(const std::string& tenant, double weight);

  /// Adds a pending request at instant `now` (its latency budget starts
  /// ticking here, not at Request::submit_time).
  void add(const Request& r, double now);

  [[nodiscard]] bool empty() const noexcept { return depth_ == 0; }
  /// Pending requests across all groups — the queue-depth metric.
  [[nodiscard]] int depth() const noexcept { return depth_; }
  /// Pending useful flops / payload bytes across all groups — the backlog
  /// currencies of admission watermarks and deadline feasibility.
  [[nodiscard]] double pending_flops() const noexcept { return pending_flops_; }
  [[nodiscard]] double pending_bytes() const noexcept { return pending_bytes_; }

  /// One queued request as seen by the shed planner.
  struct PendingView {
    std::uint64_t id = 0;
    std::string tenant;
    double flops = 0.0;
    double submit_time = 0.0;
  };
  /// Every queued request in deterministic order (group key, then arrival
  /// order within the group).
  [[nodiscard]] std::vector<PendingView> pending() const;

  /// Removes a queued request by id (the capacity-drop shed path) and
  /// returns it. Status::InvalidArgument when the id is not queued. The
  /// group's cap state is re-derived from what remains.
  Request remove(std::uint64_t id);

  /// Earliest instant any group becomes flushable (budget deadline, or the
  /// past instant a cap was crossed). +infinity when nothing is pending.
  [[nodiscard]] double next_ready() const noexcept;

  /// One merged launch worth of admitted requests.
  struct Flush {
    GroupKey key;
    FlushReason reason = FlushReason::Budget;
    std::vector<Request> admitted;  ///< DRR admission order
  };

  /// Pops the most urgent flushable group at `now` (none if no group is
  /// ready yet). `force` flushes the most urgent group regardless of
  /// deadlines — the drain path. Groups tie-break by key order, so replay
  /// is deterministic.
  [[nodiscard]] std::optional<Flush> pop_ready(double now, bool force = false);

 private:
  struct Pending {
    Request req;
    double deadline = 0.0;  ///< arrival + latency budget
  };
  struct Group {
    std::deque<Pending> fifo;        ///< arrival order (deadline order too)
    DrrScheduler drr;                ///< fairness state, persistent per group
    double cap_hit = -1.0;           ///< instant a cap was crossed, < 0 = none
    FlushReason cap_kind = FlushReason::Budget;
    [[nodiscard]] double ready_at() const noexcept {
      double t = fifo.empty() ? std::numeric_limits<double>::infinity()
                              : fifo.front().deadline;
      if (cap_hit >= 0.0) t = std::min(t, cap_hit);
      return t;
    }
  };

  void refresh_cap(Group& g, double now);

  CoalescerConfig cfg_;
  std::map<GroupKey, Group> groups_;
  std::map<std::string, double> weights_;  ///< applied to every group's DRR
  int depth_ = 0;
  double pending_flops_ = 0.0;
  double pending_bytes_ = 0.0;
};

}  // namespace vbatch::service
