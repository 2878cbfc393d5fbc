#include "vbatch/hetero/device_pool.hpp"

#include <cstdlib>
#include <string_view>
#include <vector>

#include "vbatch/util/error.hpp"
#include "vbatch/util/parse.hpp"

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

/// Splits the optional suffixes off a parse token. Each ':'-separated
/// segment must end in "streams" (stream slots) or "gb" (staging-arena
/// budget); anything else, or a repeated suffix kind, names the offending
/// token — the same fail-loudly policy as the device-name matching below.
TokenSuffix split_suffixes(std::string_view& token) {
  TokenSuffix out;
  const std::string full(token);
  const std::vector<std::string_view> segments = util::split(token, ':');
  token = segments[0];
  bool has_streams = false;
  constexpr std::string_view kStreams = "streams";
  constexpr std::string_view kGb = "gb";
  for (std::size_t i = 1; i < segments.size(); ++i) {
    const std::string_view seg = segments[i];
    if (seg.ends_with(kStreams)) {
      if (has_streams)
        throw_error(Status::InvalidArgument,
                    "DevicePool: duplicate stream suffix in '" + full + "'");
      has_streams = true;
      out.streams = util::parse_number<int>(seg.substr(0, seg.size() - kStreams.size()),
                                            "DevicePool: stream count in '" + full + "'");
      if (out.streams < 1)
        throw_error(Status::InvalidArgument,
                    "DevicePool: stream count must be >= 1 in '" + full + "'");
    } else if (seg.ends_with(kGb)) {
      if (out.has_arena)
        throw_error(Status::InvalidArgument,
                    "DevicePool: duplicate arena suffix in '" + full + "'");
      out.has_arena = true;
      out.arena_gb = util::parse_number<double>(seg.substr(0, seg.size() - kGb.size()),
                                                "DevicePool: arena budget in '" + full + "'");
      if (!(out.arena_gb > 0.0))
        throw_error(Status::InvalidArgument,
                    "DevicePool: arena budget must be > 0 in '" + full + "'");
    } else {
      throw_error(Status::InvalidArgument, "DevicePool: malformed suffix ':" + std::string(seg) +
                                               "' in '" + full +
                                               "' (expected ':Nstreams' or ':Ngb')");
    }
  }
  return out;
}

}  // namespace

DevicePool DevicePool::parse(const std::string& csv) {
  DevicePool pool;
  require(!csv.empty(), "DevicePool: empty device list");
  for (std::string_view token : util::split(csv, ',')) {
    // Trim surrounding whitespace so "cpu, k40c" works; an all-blank
    // segment is still an error, not a silent skip.
    const std::size_t first = token.find_first_not_of(" \t");
    if (first == std::string_view::npos)
      throw_error(Status::InvalidArgument, "DevicePool: empty device segment in '" + csv +
                                               "' (doubled, stray or trailing comma)");
    token = token.substr(first, token.find_last_not_of(" \t") - first + 1);
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
      throw_error(Status::InvalidArgument, "DevicePool: unknown device '" + std::string(token) +
                                               "' (expected k40c, p100, or cpu)");
    }
    added->set_streams(suffix.streams);  // clamps to the device's stream limit
    if (suffix.has_arena) added->set_arena_gb(suffix.arena_gb);
  }
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
    if (e->arena_explicit())
      out.append(":")
          .append(util::format_number(e->arena_bytes() / (1024.0 * 1024.0 * 1024.0)))
          .append("gb");
  }
  return out;
}

}  // namespace vbatch::hetero
