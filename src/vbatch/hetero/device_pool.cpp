#include "vbatch/hetero/device_pool.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "vbatch/util/error.hpp"

namespace vbatch::hetero {

DevicePool::DevicePool() {
  if (const char* env = std::getenv("VBATCH_INJECT_FAULTS"); env != nullptr && *env != '\0')
    faults_ = fault::FaultPlan(fault::parse_fault_spec(env));
}

Executor& DevicePool::add_gpu(const sim::DeviceSpec& spec, const energy::PowerModel& power,
                              std::string label) {
  if (label.empty()) label = spec.name;
  executors_.push_back(
      std::make_unique<GpuExecutor>(label + "#" + std::to_string(gpu_count()), spec, power));
  return *executors_.back();
}

Executor& DevicePool::add_cpu(const cpu::CpuSpec& spec, const energy::PowerModel& power) {
  require(!has_cpu(), "DevicePool: at most one CPU executor per pool");
  executors_.push_back(std::make_unique<CpuExecutor>("cpu", spec, power));
  return *executors_.back();
}

namespace {

/// The optional ":..."-suffixes of a parse token: ":Nstreams" and/or
/// ":Xgb", in either order, each at most once.
struct TokenSuffix {
  int streams = 1;
  double arena_gb = 0.0;  ///< 0 = no arena suffix given
  bool has_arena = false;
};

/// Parses one ":Nstreams" segment (the leading ':' already stripped).
int parse_stream_segment(const std::string& digits, const std::string& full) {
  if (digits.empty())
    throw_error(Status::InvalidArgument, "DevicePool: stream count missing in '" + full +
                                             "' (expected ':Nstreams' with N >= 1)");
  for (const char ch : digits)
    if (ch < '0' || ch > '9')
      throw_error(Status::InvalidArgument, "DevicePool: stream count must be a positive integer in '" +
                                               full + "'");
  long value = 0;
  try {
    value = std::stol(digits);
  } catch (const std::out_of_range&) {
    throw_error(Status::InvalidArgument, "DevicePool: stream count out of range in '" + full + "'");
  }
  if (value < 1)
    throw_error(Status::InvalidArgument,
                "DevicePool: stream count must be >= 1 in '" + full + "'");
  return static_cast<int>(std::min<long>(value, 1 << 20));
}

/// Parses one ":Xgb" segment (the leading ':' already stripped): a positive
/// decimal arena budget in GiB.
double parse_arena_segment(const std::string& digits, const std::string& full) {
  if (digits.empty())
    throw_error(Status::InvalidArgument, "DevicePool: arena budget missing in '" + full +
                                             "' (expected ':Ngb' with N > 0)");
  char* end = nullptr;
  const double value = std::strtod(digits.c_str(), &end);
  if (end != digits.c_str() + digits.size())
    throw_error(Status::InvalidArgument,
                "DevicePool: arena budget must be a number in '" + full + "'");
  if (!(value > 0.0) || !std::isfinite(value))
    throw_error(Status::InvalidArgument,
                "DevicePool: arena budget must be > 0 in '" + full + "'");
  return value;
}

/// Splits the optional suffixes off a parse token. Each ':'-separated
/// segment must end in "streams" (stream slots) or "gb" (staging-arena
/// budget); anything else, or a repeated suffix kind, names the offending
/// token — the same fail-loudly policy as the device-name matching below.
TokenSuffix split_suffixes(std::string& token) {
  TokenSuffix out;
  const std::string full = token;
  const std::size_t colon = token.find(':');
  if (colon == std::string::npos) return out;
  std::string rest = token.substr(colon + 1);
  token = token.substr(0, colon);
  if (rest.empty())
    throw_error(Status::InvalidArgument, "DevicePool: malformed suffix in '" + full +
                                             "' (expected ':Nstreams' or ':Ngb')");
  bool has_streams = false;
  while (!rest.empty()) {
    const std::size_t next = rest.find(':');
    const std::string seg = next == std::string::npos ? rest : rest.substr(0, next);
    rest = next == std::string::npos ? std::string{} : rest.substr(next + 1);
    constexpr std::string_view kStreams = "streams";
    constexpr std::string_view kGb = "gb";
    if (seg.size() >= kStreams.size() &&
        seg.compare(seg.size() - kStreams.size(), kStreams.size(), kStreams) == 0) {
      if (has_streams)
        throw_error(Status::InvalidArgument,
                    "DevicePool: duplicate stream suffix in '" + full + "'");
      has_streams = true;
      out.streams = parse_stream_segment(seg.substr(0, seg.size() - kStreams.size()), full);
    } else if (seg.size() >= kGb.size() &&
               seg.compare(seg.size() - kGb.size(), kGb.size(), kGb) == 0) {
      if (out.has_arena)
        throw_error(Status::InvalidArgument,
                    "DevicePool: duplicate arena suffix in '" + full + "'");
      out.has_arena = true;
      out.arena_gb = parse_arena_segment(seg.substr(0, seg.size() - kGb.size()), full);
    } else {
      throw_error(Status::InvalidArgument, "DevicePool: malformed suffix ':" + seg + "' in '" +
                                               full + "' (expected ':Nstreams' or ':Ngb')");
    }
  }
  return out;
}

}  // namespace

DevicePool DevicePool::parse(const std::string& csv) {
  DevicePool pool;
  require(!csv.empty(), "DevicePool: empty device list");
  std::stringstream ss(csv);
  std::string token;
  // getline drops a trailing empty segment ("k40c," yields one token), so a
  // trailing comma is checked up front.
  if (csv.back() == ',')
    throw_error(Status::InvalidArgument, "DevicePool: empty device segment in '" + csv +
                                             "' (trailing comma)");
  while (std::getline(ss, token, ',')) {
    // Trim surrounding whitespace so "cpu, k40c" works; an all-blank
    // segment is still an error, not a silent skip.
    const std::size_t first = token.find_first_not_of(" \t");
    const std::size_t last = token.find_last_not_of(" \t");
    token = first == std::string::npos ? std::string{} : token.substr(first, last - first + 1);
    if (token.empty())
      throw_error(Status::InvalidArgument, "DevicePool: empty device segment in '" + csv +
                                               "' (doubled or stray comma)");
    const TokenSuffix suffix = split_suffixes(token);
    Executor* added = nullptr;
    if (token == "k40c") {
      added = &pool.add_gpu(sim::DeviceSpec::k40c(), energy::PowerModel::k40c(), "k40c");
    } else if (token == "p100") {
      added = &pool.add_gpu(sim::DeviceSpec::p100(), energy::PowerModel::p100(), "p100");
    } else if (token == "cpu") {
      if (suffix.streams > 1)
        throw_error(Status::InvalidArgument,
                    "DevicePool: the cpu executor has a single queue (':" +
                        std::to_string(suffix.streams) + "streams' not supported)");
      if (suffix.has_arena)
        throw_error(Status::InvalidArgument,
                    "DevicePool: the cpu executor works in host memory (':...gb' arena suffix "
                    "not supported)");
      added = &pool.add_cpu();
    } else {
      throw_error(Status::InvalidArgument,
                  "DevicePool: unknown device '" + token + "' (expected k40c, p100, or cpu)");
    }
    added->set_streams(suffix.streams);  // clamps to the device's stream limit
    if (suffix.has_arena) added->set_arena_gb(suffix.arena_gb);
  }
  require(pool.size() > 0, "DevicePool: empty device list");
  return pool;
}

int DevicePool::gpu_count() const noexcept {
  int count = 0;
  for (const auto& e : executors_)
    if (e->is_gpu()) ++count;
  return count;
}

bool DevicePool::has_cpu() const noexcept { return gpu_count() != size(); }

const sim::DeviceSpec& DevicePool::reference_spec() const noexcept {
  for (const auto& e : executors_)
    if (e->is_gpu()) return static_cast<const GpuExecutor&>(*e).spec();
  static const sim::DeviceSpec k40c = sim::DeviceSpec::k40c();
  return k40c;
}

double DevicePool::peak_gflops(Precision prec) const noexcept {
  double total = 0.0;
  for (const auto& e : executors_) total += e->peak_gflops(prec);
  return total;
}

std::string DevicePool::describe() const {
  std::string out;
  for (const auto& e : executors_) {
    if (!out.empty()) out += " + ";
    out += e->name();
    if (e->streams() > 1) out += ":" + std::to_string(e->streams()) + "streams";
    if (e->arena_explicit()) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), ":%ggb", e->arena_bytes() / (1024.0 * 1024.0 * 1024.0));
      out += buf;
    }
  }
  return out;
}

}  // namespace vbatch::hetero
