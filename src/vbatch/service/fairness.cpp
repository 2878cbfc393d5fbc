#include "vbatch/service/fairness.hpp"

#include <algorithm>

#include "vbatch/util/error.hpp"

namespace vbatch::service {

DrrScheduler::TenantQueue& DrrScheduler::tenant_queue(const std::string& tenant) {
  for (TenantQueue& q : queues_)
    if (q.tenant == tenant) return q;
  queues_.push_back(TenantQueue{tenant, 1.0, 0.0, {}});
  return queues_.back();
}

void DrrScheduler::set_weight(const std::string& tenant, double weight) {
  require(weight > 0.0, "DrrScheduler: tenant weights must be strictly positive "
                        "(a zero weight would starve the tenant)");
  tenant_queue(tenant).weight = weight;
}

double DrrScheduler::weight(const std::string& tenant) const noexcept {
  for (const TenantQueue& q : queues_)
    if (q.tenant == tenant) return q.weight;
  return 1.0;
}

void DrrScheduler::push(const std::string& tenant, const DrrItem& item) {
  tenant_queue(tenant).items.push_back(item);
  ++pending_;
  pending_matrices_ += item.matrices;
  pending_bytes_ += item.bytes;
}

bool DrrScheduler::remove(const std::string& tenant, std::uint64_t id) {
  for (TenantQueue& q : queues_) {
    if (q.tenant != tenant) continue;
    const auto it = std::find_if(q.items.begin(), q.items.end(),
                                 [id](const DrrItem& item) { return item.id == id; });
    if (it == q.items.end()) return false;
    --pending_;
    pending_matrices_ -= it->matrices;
    pending_bytes_ -= it->bytes;
    q.items.erase(it);
    return true;
  }
  return false;
}

std::vector<std::string> DrrScheduler::tenants() const {
  std::vector<std::string> names;
  names.reserve(queues_.size());
  for (const TenantQueue& q : queues_) names.push_back(q.tenant);
  return names;
}

std::vector<std::uint64_t> DrrScheduler::admit(const DrrCaps& caps) {
  std::vector<std::uint64_t> admitted;
  if (queues_.empty() || pending_ == 0) return admitted;

  // The quantum is the largest head cost per unit weight, so every full
  // round covers at least one admission and the loop always progresses.
  double quantum = 1.0;
  for (const TenantQueue& q : queues_)
    if (!q.items.empty())
      quantum = std::max(quantum, q.items.front().cost / std::max(q.weight, 1e-12));

  int taken_matrices = 0;
  double taken_bytes = 0.0;
  auto fits = [&](const DrrItem& item) {
    if (caps.max_matrices > 0 && taken_matrices + item.matrices > caps.max_matrices)
      return false;
    if (caps.max_bytes > 0.0 && taken_bytes + item.bytes > caps.max_bytes) return false;
    return true;
  };
  auto take = [&](TenantQueue& q) {
    const DrrItem item = q.items.front();
    q.items.pop_front();
    admitted.push_back(item.id);
    taken_matrices += item.matrices;
    taken_bytes += item.bytes;
    --pending_;
    pending_matrices_ -= item.matrices;
    pending_bytes_ -= item.bytes;
    q.deficit -= item.cost;
  };

  bool capped = false;
  // A cap interrupts one tenant's visit mid-drain; the next admit resumes
  // that same visit, so the tenant must not collect a second quantum for it.
  bool resume = resume_visit_;
  resume_visit_ = false;
  bool first_round = true;
  while (pending_ > 0 && !capped) {
    // One DRR round: every tenant (starting at the persistent cursor) tops
    // up its deficit and drains what the deficit and the caps allow.
    for (std::size_t step = 0; step < queues_.size() && !capped; ++step) {
      TenantQueue& q = queues_[(cursor_ + step) % queues_.size()];
      if (q.items.empty()) continue;
      if (!(resume && first_round && step == 0)) q.deficit += quantum * q.weight;
      while (!q.items.empty() && q.items.front().cost <= q.deficit) {
        if (!fits(q.items.front())) {
          // An oversized first candidate is admitted alone (atomic
          // requests must still make progress); otherwise the launch is
          // full — remember who is next and stop.
          if (admitted.empty()) {
            take(q);
          }
          cursor_ = (cursor_ + step) % queues_.size();
          capped = true;
          resume_visit_ = true;
          break;
        }
        take(q);
      }
      // An emptied queue forfeits its carry-over (classic DRR): idle
      // tenants must not bank credit against the future.
      if (q.items.empty()) q.deficit = 0.0;
    }
    first_round = false;
  }
  if (!capped) cursor_ = 0;  // queues drained; next burst starts a fresh rotation
  return admitted;
}

}  // namespace vbatch::service
