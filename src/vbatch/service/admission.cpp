#include "vbatch/service/admission.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <string_view>

#include "vbatch/util/error.hpp"
#include "vbatch/util/parse.hpp"

namespace vbatch::service {

namespace {

/// Throughput floor (Gflop/s) so feasibility estimates stay finite even if
/// every executor died — the service keeps shedding instead of dividing by
/// zero.
constexpr double kMinCapacityGflops = 1e-3;

/// EWMA weight of one observed launch against the running estimate. Low
/// enough that one pathological launch (a tiny batch, a retry storm) does
/// not whipsaw admission, high enough to converge within a few launches.
constexpr double kCalibrationAlpha = 0.3;

[[noreturn]] void fail_spec(const std::string& what) {
  throw_error(Status::InvalidArgument, "admission: " + what);
}

}  // namespace

AdmissionConfig parse_admission_spec(const std::string& spec) {
  AdmissionConfig cfg;
  std::set<std::string_view> seen;
  for (std::string_view tok : util::split(spec, ';')) {
    // Trim surrounding whitespace; blank items are skipped.
    const std::size_t first = tok.find_first_not_of(" \t");
    if (first == std::string_view::npos) continue;
    tok = tok.substr(first, tok.find_last_not_of(" \t") - first + 1);
    const auto kv = util::split_kv(tok);
    if (!kv) fail_spec("expected key=value, got '" + std::string(tok) + "'");
    const auto [key, value] = *kv;
    if (!seen.insert(key).second) fail_spec("duplicate key '" + std::string(key) + "'");
    const std::string what = "admission: " + std::string(key);
    if (key == "max-queue") {
      cfg.max_queue = util::parse_number<int>(value, what);
      if (cfg.max_queue < 1) fail_spec("max-queue must be a positive integer");
    } else if (key == "max-gb") {
      const double v = util::parse_number<double>(value, what);
      if (v <= 0.0) fail_spec("max-gb must be positive");
      cfg.max_queue_bytes = v * (1024.0 * 1024.0 * 1024.0);
    } else if (key == "tenant-rate") {
      cfg.tenant_rate_gflops = util::parse_number<double>(value, what);
      if (cfg.tenant_rate_gflops <= 0.0) fail_spec("tenant-rate must be positive (Gflop/s)");
    } else if (key == "burst") {
      cfg.burst_seconds = util::parse_number<double>(value, what);
      if (cfg.burst_seconds <= 0.0) fail_spec("burst must be positive (seconds)");
    } else if (key == "shed-horizon") {
      cfg.shed_horizon_seconds = util::parse_number<double>(value, what);
      if (cfg.shed_horizon_seconds < 0.0)
        fail_spec("shed-horizon must be non-negative (seconds)");
    } else if (key == "deadlines") {
      if (value == "on") cfg.respect_deadlines = true;
      else if (value == "off") cfg.respect_deadlines = false;
      else fail_spec("deadlines must be on|off (got '" + std::string(value) + "')");
    } else {
      fail_spec("unknown key '" + std::string(key) +
                "' (max-queue|max-gb|tenant-rate|burst|shed-horizon|deadlines)");
    }
  }
  if (seen.empty()) fail_spec("empty spec (expected key=value[;key=value...])");
  cfg.enabled = true;
  return cfg;
}

AdmissionController::AdmissionController(AdmissionConfig cfg,
                                         std::vector<double> executor_peak_gflops)
    : cfg_(std::move(cfg)), peaks_(std::move(executor_peak_gflops)) {
  require(cfg_.initial_efficiency > 0.0 && cfg_.initial_efficiency <= 1.0,
          "AdmissionController: initial_efficiency must be in (0, 1]");
  require(cfg_.burst_seconds > 0.0, "AdmissionController: burst_seconds must be positive");
  alive_.assign(peaks_.size(), 1);
  double nominal = 0.0;
  for (double p : peaks_) nominal += p;
  initial_capacity_ = std::max(nominal * cfg_.initial_efficiency, kMinCapacityGflops);
  capacity_ = initial_capacity_;
  for (const auto& [tenant, rate] : cfg_.tenant_rates)
    require(rate > 0.0, "AdmissionController: per-tenant rates must be positive");
}

void AdmissionController::set_weight(const std::string& tenant, double weight) {
  require(weight > 0.0, "AdmissionController: tenant weights must be strictly positive");
  weights_[tenant] = weight;
}

double AdmissionController::weight_of(const std::string& tenant) const noexcept {
  const auto it = weights_.find(tenant);
  return it != weights_.end() ? it->second : 1.0;
}

double AdmissionController::rate_flops(const std::string& tenant) const noexcept {
  double gflops = 0.0;
  bool overridden = false;
  for (const auto& [name, rate] : cfg_.tenant_rates) {
    if (name == tenant) {
      gflops = rate;
      overridden = true;
      break;
    }
  }
  if (!overridden) {
    if (cfg_.tenant_rate_gflops <= 0.0) return 0.0;  // unlimited
    gflops = cfg_.tenant_rate_gflops * weight_of(tenant);
  }
  // Graceful degradation: when executors die, every tenant's refill
  // tightens by the surviving share of nominal peak, so the pool sheds the
  // lost capacity instead of queueing it. EWMA calibration drift does NOT
  // tighten rates — a pessimistic efficiency seed must not starve tenants
  // whose configured rate the healthy pool can serve.
  double nominal = 0.0;
  double alive = 0.0;
  for (std::size_t e = 0; e < peaks_.size(); ++e) {
    nominal += peaks_[e];
    if (alive_[e] != 0) alive += peaks_[e];
  }
  const double tighten = nominal > 0.0 ? alive / nominal : 1.0;
  return gflops * 1e9 * tighten;
}

void AdmissionController::refill(Bucket& b, const std::string& tenant, double now) const {
  const double rate = rate_flops(tenant);
  const double burst = rate * cfg_.burst_seconds;
  if (!b.primed) {
    b.tokens = burst;
    b.last_refill = now;
    b.primed = true;
    return;
  }
  const double dt = std::max(0.0, now - b.last_refill);
  b.tokens = std::min(burst, b.tokens + dt * rate);
  b.last_refill = now;
}

AdmissionDecision AdmissionController::admit(const Request& r, double now,
                                             const QueueSnapshot& q) {
  if (!cfg_.enabled) return AdmissionDecision::Admit;

  // Watermarks first: they are the memory-safety bound and consume nothing.
  if (cfg_.max_queue > 0 && q.depth >= cfg_.max_queue)
    return AdmissionDecision::RejectedQueueFull;
  if (cfg_.max_queue_bytes > 0.0 && q.bytes + r.bytes() > cfg_.max_queue_bytes)
    return AdmissionDecision::RejectedQueueFull;

  // Deadline feasibility: earliest completion = pool frees up, backlog
  // drains, then this request's own service time — all at the current
  // capacity estimate.
  if (cfg_.respect_deadlines && r.deadline > 0.0) {
    const double cap = capacity_gflops() * 1e9;
    const double backlog = std::max(0.0, q.busy_until - now) + q.flops / cap;
    const double est_done = now + backlog + r.flops() / cap;
    if (est_done > r.absolute_deadline()) return AdmissionDecision::RejectedDeadline;
  }

  // Token bucket last, so requests shed by cheaper policies never drain
  // tokens. An oversized request (cost > bucket capacity) is admitted when
  // the bucket is full and pushes it into debt — the DRR oversized rule in
  // rate-limiter form, so huge jobs still make progress.
  const double rate = rate_flops(r.tenant);
  if (rate > 0.0) {
    Bucket& b = buckets_[r.tenant];
    refill(b, r.tenant, now);
    const double cost = r.flops();
    const double need = std::min(cost, rate * cfg_.burst_seconds);
    if (b.tokens < need) return AdmissionDecision::RejectedTenantRate;
    b.tokens -= cost;
  }
  return AdmissionDecision::Admit;
}

AdmissionController::Filtered AdmissionController::filter_deadlines(
    std::vector<Request> admitted, double now) const {
  Filtered out;
  if (!cfg_.enabled || !cfg_.respect_deadlines) {
    out.kept = std::move(admitted);
    return out;
  }
  out.kept = std::move(admitted);
  const double cap = capacity_gflops() * 1e9;
  // Fixed point: dropping a request shrinks the launch, which may rescue a
  // tighter deadline, so re-estimate until the kept set is stable.
  for (;;) {
    double total = 0.0;
    for (const Request& r : out.kept) total += r.flops();
    const double est_done = now + total / cap;
    bool changed = false;
    std::vector<Request> survivors;
    survivors.reserve(out.kept.size());
    for (Request& r : out.kept) {
      if (r.deadline > 0.0 && est_done > r.absolute_deadline()) {
        out.dropped.push_back(std::move(r));
        changed = true;
      } else {
        survivors.push_back(std::move(r));
      }
    }
    out.kept = std::move(survivors);
    if (!changed) break;
  }
  return out;
}

void AdmissionController::observe_launch(double flops, double seconds,
                                         const std::vector<char>& lost) {
  if (!cfg_.enabled) return;
  double alive_before = 0.0;
  for (std::size_t e = 0; e < peaks_.size(); ++e)
    if (alive_[e] != 0) alive_before += peaks_[e];
  bool newly_lost = false;
  for (std::size_t e = 0; e < lost.size() && e < alive_.size(); ++e) {
    if (lost[e] != 0 && alive_[e] != 0) {
      alive_[e] = 0;
      ++lost_count_;
      newly_lost = true;
    }
  }
  // Calibrate with the observed launch throughput (it already prices in
  // launch overheads, retries and the fault layer's wasted attempts).
  if (seconds > 0.0 && flops > 0.0) {
    const double observed = flops / seconds * 1e-9;
    capacity_ = (1.0 - kCalibrationAlpha) * capacity_ + kCalibrationAlpha * observed;
  }
  if (newly_lost) {
    double alive_after = 0.0;
    for (std::size_t e = 0; e < peaks_.size(); ++e)
      if (alive_[e] != 0) alive_after += peaks_[e];
    // Multiplicative cut by the nominal share that just died — immediate,
    // before any post-death launch can confirm it the slow way.
    if (alive_before > 0.0) capacity_ *= std::max(alive_after / alive_before, 0.0);
    capacity_dropped_ = true;
  }
  capacity_ = std::max(capacity_, kMinCapacityGflops);
}

bool AdmissionController::take_capacity_drop() noexcept {
  const bool dropped = capacity_dropped_;
  capacity_dropped_ = false;
  return dropped;
}

double AdmissionController::capacity_gflops() const noexcept {
  return std::max(capacity_, kMinCapacityGflops);
}

std::vector<std::uint64_t> AdmissionController::shed_plan(
    const std::vector<PendingItem>& pending) const {
  std::vector<std::uint64_t> victims;
  if (!cfg_.enabled || cfg_.shed_horizon_seconds <= 0.0) return victims;
  double backlog = 0.0;
  for (const PendingItem& p : pending) backlog += p.flops;
  const double budget = capacity_gflops() * 1e9 * cfg_.shed_horizon_seconds;
  if (backlog <= budget) return victims;

  // Victim order: lowest weight first (name breaks ties), newest request
  // first within a tenant — the oldest admitted work of the most important
  // tenants survives.
  std::vector<std::string> order;
  for (const PendingItem& p : pending)
    if (std::find(order.begin(), order.end(), p.tenant) == order.end())
      order.push_back(p.tenant);
  std::sort(order.begin(), order.end(), [&](const std::string& a, const std::string& b) {
    const double wa = weight_of(a);
    const double wb = weight_of(b);
    if (wa != wb) return wa < wb;
    return a < b;
  });
  for (const std::string& tenant : order) {
    for (auto it = pending.rbegin(); it != pending.rend() && backlog > budget; ++it) {
      if (it->tenant != tenant) continue;
      victims.push_back(it->id);
      backlog -= it->flops;
    }
    if (backlog <= budget) break;
  }
  return victims;
}

}  // namespace vbatch::service
