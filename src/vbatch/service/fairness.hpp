// Per-tenant fairness for the coalescing layer: weighted deficit
// round-robin (DRR) admission over tenant FIFOs (docs/service.md,
// "Fairness policy").
//
// When a merged launch cannot take every pending request (batch-size or
// footprint caps), admission must not let one tenant's burst starve the
// others. Classic DRR does exactly that with O(1) state per tenant: each
// round, a tenant's deficit counter grows by quantum × weight, and the
// tenant admits queued requests (FIFO) while its deficit covers their cost;
// unspent deficit carries to the next round, an emptied queue forfeits it.
// Costs here are useful flops — the same currency the partitioner and the
// energy slices use — so "fair" means fair shares of machine time, not of
// request counts.
//
// Everything is deterministic: tenants take turns in registration order
// from a persistent cursor, and ties never need a coin flip.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace vbatch::service {

/// Admission caps of one merged launch. 0 = unbounded.
struct DrrCaps {
  int max_matrices = 0;
  double max_bytes = 0.0;
};

/// One admission candidate in a tenant's FIFO.
struct DrrItem {
  std::uint64_t id = 0;     ///< request id (returned in admission order)
  double cost = 0.0;        ///< useful flops (the deficit currency)
  double bytes = 0.0;       ///< payload footprint (the cap currency)
  int matrices = 0;         ///< matrix count (the cap currency)
};

/// Deterministic weighted-DRR admission state over one group's tenants.
/// Tenants register on first use (registration order = service order); the
/// deficit counters and the round-robin cursor persist across flushes.
class DrrScheduler {
 public:
  /// Sets a tenant's weight (registering it if new). Weights must be
  /// strictly positive — a zero weight would starve the tenant forever, so
  /// it raises Status::InvalidArgument instead of being accepted.
  void set_weight(const std::string& tenant, double weight);
  [[nodiscard]] double weight(const std::string& tenant) const noexcept;

  /// Enqueues an admission candidate for `tenant` (registering it with
  /// weight 1 if unknown). FIFO per tenant.
  void push(const std::string& tenant, const DrrItem& item);

  /// Removes a queued candidate by id (the overload shed path). Returns
  /// false when no tenant queue holds the id. Deficit counters and the
  /// round-robin cursor are untouched — shedding must not change what the
  /// surviving requests are owed.
  bool remove(const std::string& tenant, std::uint64_t id);

  [[nodiscard]] bool empty() const noexcept { return pending_ == 0; }
  [[nodiscard]] int pending() const noexcept { return pending_; }
  [[nodiscard]] int pending_matrices() const noexcept { return pending_matrices_; }
  [[nodiscard]] double pending_bytes() const noexcept { return pending_bytes_; }

  /// Runs DRR rounds until the caps fill or the queues drain; returns the
  /// admitted ids in admission order. A request is atomic (never split); if
  /// the very first candidate alone exceeds a cap it is admitted alone so
  /// oversized requests still make progress (they stream out-of-core
  /// downstream). The quantum is the largest head cost per unit weight over
  /// active tenants, which guarantees every round admits at least one
  /// request.
  [[nodiscard]] std::vector<std::uint64_t> admit(const DrrCaps& caps);

  /// Tenants in registration order (the deterministic round-robin order).
  [[nodiscard]] std::vector<std::string> tenants() const;

 private:
  struct TenantQueue {
    std::string tenant;
    double weight = 1.0;
    double deficit = 0.0;
    std::deque<DrrItem> items;
  };
  TenantQueue& tenant_queue(const std::string& tenant);

  std::vector<TenantQueue> queues_;  ///< registration order
  std::size_t cursor_ = 0;           ///< next tenant to serve
  bool resume_visit_ = false;        ///< cap interrupted cursor_'s visit mid-drain
  int pending_ = 0;
  int pending_matrices_ = 0;
  double pending_bytes_ = 0.0;
};

}  // namespace vbatch::service
