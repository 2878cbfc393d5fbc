#include "vbatch/fault/fault_plan.hpp"

#include <string_view>
#include <utility>
#include <vector>

#include "vbatch/util/error.hpp"
#include "vbatch/util/parse.hpp"

namespace vbatch::fault {

const char* to_string(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::None: return "none";
    case FaultKind::Transient: return "transient";
    case FaultKind::Hang: return "hang";
    case FaultKind::ExecutorLoss: return "executor-loss";
    case FaultKind::ChunkLost: return "chunk-lost";
    case FaultKind::InFlightLost: return "in-flight-lost";
  }
  return "?";
}

std::string FaultSpec::describe() const {
  std::string out = "seed=" + std::to_string(seed);
  if (transient_rate > 0.0) out += ";transient:rate=" + util::format_number(transient_rate);
  for (const auto& r : transients)
    out += ";transient:exec=" + std::to_string(r.exec) + ",chunk=" + std::to_string(r.chunk) +
           ",times=" + std::to_string(r.times);
  for (const auto& r : hangs)
    out += ";hang:exec=" + std::to_string(r.exec) + ",chunk=" + std::to_string(r.chunk);
  for (const auto& r : deaths)
    out += ";die:exec=" + std::to_string(r.exec) + ",after=" + std::to_string(r.after);
  return out;
}

namespace {

[[noreturn]] void bad_spec(const std::string& why) {
  throw_error(Status::InvalidArgument, "parse_fault_spec: " + why);
}

/// SplitMix64 finalizer — the stateless hash behind the rate-based faults.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

FaultSpec parse_fault_spec(const std::string& spec) {
  FaultSpec out;
  if (spec.empty()) return out;  // an empty spec is a no-op plan
  for (const std::string_view item : util::split(spec, ';')) {
    if (item.empty()) bad_spec("empty item (stray ';')");
    if (item.starts_with("seed=")) {
      out.seed = util::parse_number<std::uint64_t>(item.substr(5), "parse_fault_spec: seed");
      continue;
    }
    const std::size_t colon = item.find(':');
    if (colon == std::string_view::npos)
      bad_spec("unknown item '" + std::string(item) +
               "' (expected seed=, transient:, hang:, or die:)");
    const std::string_view head = item.substr(0, colon);
    std::vector<std::pair<std::string_view, std::string_view>> kv;
    for (const std::string_view field : util::split(item.substr(colon + 1), ',')) {
      const auto pair = util::split_kv(field);
      if (!pair) bad_spec("expected key=value in '" + std::string(item) + "'");
      kv.push_back(*pair);
    }
    const auto integer = [](std::string_view v, std::string_view key) {
      return util::parse_number<int>(v, "parse_fault_spec: " + std::string(key));
    };

    if (head == "transient") {
      TransientRule rule;
      bool targeted = false;
      double rate = -1.0;
      for (const auto& [k, v] : kv) {
        if (k == "rate") {
          rate = util::parse_number<double>(v, "parse_fault_spec: rate");
          if (rate < 0.0 || rate > 1.0)
            bad_spec("rate must be a number in [0, 1], got '" + std::string(v) + "'");
          continue;
        }
        if (k == "exec") rule.exec = integer(v, k);
        else if (k == "chunk") rule.chunk = integer(v, k);
        else if (k == "times") rule.times = integer(v, k);
        else bad_spec("unknown transient key '" + std::string(k) + "'");
        targeted = true;
      }
      if (rate >= 0.0 && targeted) bad_spec("transient: rate= cannot be combined with targeting");
      if (rate >= 0.0) {
        out.transient_rate = rate;
      } else {
        if (rule.times < 1) bad_spec("transient: times must be >= 1");
        if (rule.exec < -1 || rule.chunk < -1) bad_spec("transient: exec/chunk must be >= -1");
        out.transients.push_back(rule);
      }
    } else if (head == "hang") {
      HangRule rule;
      for (const auto& [k, v] : kv) {
        if (k == "exec") rule.exec = integer(v, k);
        else if (k == "chunk") rule.chunk = integer(v, k);
        else bad_spec("unknown hang key '" + std::string(k) + "'");
      }
      if (rule.exec < -1 || rule.chunk < -1) bad_spec("hang: exec/chunk must be >= -1");
      out.hangs.push_back(rule);
    } else if (head == "die") {
      DeathRule rule;
      bool have_exec = false;
      for (const auto& [k, v] : kv) {
        if (k == "exec") rule.exec = integer(v, k);
        else if (k == "after") rule.after = integer(v, k);
        else bad_spec("unknown die key '" + std::string(k) + "'");
        have_exec = have_exec || k == "exec";
      }
      if (!have_exec || rule.exec < 0) bad_spec("die: requires exec=E with E >= 0");
      if (rule.after < 0) bad_spec("die: after must be >= 0");
      out.deaths.push_back(rule);
    } else {
      bad_spec("unknown item '" + std::string(head) + "' (expected transient, hang, or die)");
    }
  }
  return out;
}

FaultKind FaultPlan::attempt_outcome(int exec, int chunk, int attempt) const noexcept {
  for (const auto& r : spec_.hangs)
    if ((r.exec == -1 || r.exec == exec) && (r.chunk == -1 || r.chunk == chunk))
      return FaultKind::Hang;
  for (const auto& r : spec_.transients)
    if ((r.exec == -1 || r.exec == exec) && (r.chunk == -1 || r.chunk == chunk) &&
        attempt <= r.times)
      return FaultKind::Transient;
  if (spec_.transient_rate > 0.0) {
    // Stateless: a pure hash of (seed, exec, chunk, attempt), so the
    // outcome does not depend on query order or on any other executor.
    std::uint64_t h = mix64(spec_.seed);
    h = mix64(h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(exec)) << 40));
    h = mix64(h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(chunk)) << 16));
    h = mix64(h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(attempt)));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (u < spec_.transient_rate) return FaultKind::Transient;
  }
  return FaultKind::None;
}

int FaultPlan::dies_after(int exec) const noexcept {
  for (const auto& r : spec_.deaths)
    if (r.exec == exec) return r.after;
  return -1;
}

}  // namespace vbatch::fault
