#include "vbatch/service/coalescer.hpp"

#include <algorithm>

#include "vbatch/util/error.hpp"

namespace vbatch::service {

void Coalescer::set_weight(const std::string& tenant, double weight) {
  require(weight > 0.0, "Coalescer: tenant weights must be strictly positive "
                        "(a zero weight would starve the tenant)");
  weights_[tenant] = weight;
  for (auto& [key, group] : groups_) group.drr.set_weight(tenant, weight);
}

void Coalescer::refresh_cap(Group& g, double now) {
  if (g.cap_hit >= 0.0) return;  // already armed; earliest crossing wins
  if (cfg_.max_batch > 0 && g.drr.pending_matrices() >= cfg_.max_batch) {
    g.cap_hit = now;
    g.cap_kind = FlushReason::CountCap;
  } else if (cfg_.max_bytes > 0.0 && g.drr.pending_bytes() >= cfg_.max_bytes) {
    g.cap_hit = now;
    g.cap_kind = FlushReason::BytesCap;
  }
}

void Coalescer::add(const Request& r, double now) {
  if (r.sizes.empty())
    throw_error(Status::InvalidArgument,
                "Coalescer: request " + std::to_string(r.id) + " has no matrices");
  Group& g = groups_[GroupKey{r.op, r.prec}];
  if (g.drr.tenants().empty())  // fresh group: seed the known tenant weights
    for (const auto& [tenant, weight] : weights_) g.drr.set_weight(tenant, weight);
  g.fifo.push_back(Pending{r, now + cfg_.latency_budget});
  g.drr.push(r.tenant, DrrItem{r.id, r.flops(), static_cast<double>(r.bytes()),
                               r.matrices()});
  ++depth_;
  pending_flops_ += r.flops();
  pending_bytes_ += r.bytes();
  refresh_cap(g, now);
}

std::vector<Coalescer::PendingView> Coalescer::pending() const {
  std::vector<PendingView> out;
  out.reserve(static_cast<std::size_t>(depth_));
  for (const auto& [key, group] : groups_)
    for (const Pending& p : group.fifo)
      out.push_back(PendingView{p.req.id, p.req.tenant, p.req.flops(), p.req.submit_time});
  return out;
}

Request Coalescer::remove(std::uint64_t id) {
  for (auto& [key, g] : groups_) {
    const auto it = std::find_if(g.fifo.begin(), g.fifo.end(),
                                 [id](const Pending& p) { return p.req.id == id; });
    if (it == g.fifo.end()) continue;
    Request r = std::move(it->req);
    g.drr.remove(r.tenant, id);
    g.fifo.erase(it);
    --depth_;
    pending_flops_ -= r.flops();
    pending_bytes_ -= r.bytes();
    // Shedding may bring the group back under its caps; re-derive the cap
    // state so a stale crossing instant cannot force a premature flush.
    if (g.cap_hit >= 0.0) {
      const bool still_capped =
          (cfg_.max_batch > 0 && g.drr.pending_matrices() >= cfg_.max_batch) ||
          (cfg_.max_bytes > 0.0 && g.drr.pending_bytes() >= cfg_.max_bytes);
      if (!still_capped) g.cap_hit = -1.0;
    }
    return r;
  }
  throw_error(Status::InvalidArgument,
              "Coalescer: cannot remove id " + std::to_string(id) + " (not queued)");
}

double Coalescer::next_ready() const noexcept {
  double t = std::numeric_limits<double>::infinity();
  for (const auto& [key, group] : groups_) t = std::min(t, group.ready_at());
  return t;
}

std::optional<Coalescer::Flush> Coalescer::pop_ready(double now, bool force) {
  // Most urgent group first; key order breaks ties so replay never depends
  // on map iteration luck (std::map is ordered, but be explicit).
  const Group* best = nullptr;
  GroupKey best_key;
  for (const auto& [key, group] : groups_) {
    if (group.fifo.empty()) continue;
    if (best == nullptr || group.ready_at() < best->ready_at() ||
        (group.ready_at() == best->ready_at() && key < best_key)) {
      best = &group;
      best_key = key;
    }
  }
  if (best == nullptr) return std::nullopt;
  if (!force && best->ready_at() > now) return std::nullopt;

  Group& g = groups_[best_key];
  Flush flush;
  flush.key = best_key;
  if (g.cap_hit >= 0.0 && g.cap_hit <= (force ? g.cap_hit : now))
    flush.reason = g.cap_kind;
  else if (!g.fifo.empty() && g.fifo.front().deadline <= now)
    flush.reason = FlushReason::Budget;
  else
    flush.reason = FlushReason::Drain;  // only reachable via force

  const DrrCaps caps{cfg_.max_batch, cfg_.max_bytes};
  const std::vector<std::uint64_t> ids = g.drr.admit(caps);
  flush.admitted.reserve(ids.size());
  for (std::uint64_t id : ids) {
    const auto it = std::find_if(g.fifo.begin(), g.fifo.end(),
                                 [id](const Pending& p) { return p.req.id == id; });
    flush.admitted.push_back(it->req);
    pending_flops_ -= it->req.flops();
    pending_bytes_ -= it->req.bytes();
    g.fifo.erase(it);
    --depth_;
  }
  // Requests left behind by the caps re-arm the flush clock: the cap state
  // is recomputed from what remains, and their budget deadlines still hold.
  g.cap_hit = -1.0;
  refresh_cap(g, now);
  return flush;
}

}  // namespace vbatch::service
