// Measurement plumbing of the end-to-end benchmark: percentiles, the metric
// list every run prints and writes, and the span recorder behind the traced
// run (Chrome trace-event JSON, which chrome://tracing and Perfetto open).
//
// Spans are recorded only from the benchmark's own code, around calls into
// the library's public functions; the library itself is not instrumented.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Seconds since the first call in the process (the trace's time origin).
inline double now_s() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

/// Linearly interpolated percentile (p in [0, 100]); 0 for no samples.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return percentile(v, 50.0); }

inline double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// One reported number. `clock` is "wall" (host time), "modelled" (the
/// simulator's virtual device clock) or "count" (neither: sizes, ratios of
/// counts, memory).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string clock;
  std::string layer;
};

/// Correctness ledger plus the metric list of one run.
class Results {
 public:
  void add(std::string name, double value, std::string unit, std::string clock,
           std::string layer) {
    metrics_.push_back({std::move(name), value, std::move(unit), std::move(clock),
                        std::move(layer)});
  }

  /// Records one checked operation; a failed one is counted and named.
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failures_.size() < 20) failures_.push_back(what);
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }

  [[nodiscard]] bool correct() const noexcept { return failed_ == 0; }

  /// Prints every metric as "name value unit".
  void print() const {
    for (const Metric& m : metrics_)
      std::printf("%s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  /// Writes the run as one JSON object; `meta` holds preformatted JSON
  /// values (strings already quoted). Returns false if the file can't open.
  bool write_json(const std::string& path,
                  const std::vector<std::pair<std::string, std::string>>& meta) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n");
    for (const auto& [key, value] : meta) std::fprintf(f, "  \"%s\": %s,\n", key.c_str(), value.c_str());
    std::fprintf(f, "  \"correct\": %s,\n  \"attempted\": %ld,\n  \"failed\": %ld,\n",
                 correct() ? "true" : "false", attempted_, failed_);
    std::fprintf(f, "  \"failures\": [");
    for (std::size_t i = 0; i < failures_.size(); ++i)
      std::fprintf(f, "%s\"%s\"", i ? ", " : "", escaped(failures_[i]).c_str());
    std::fprintf(f, "],\n  \"metrics\": [\n");
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      // JSON has no NaN/Inf: a non-finite value is written as null and the
      // reader rejects the run.
      char value[64];
      if (std::isfinite(m.value)) std::snprintf(value, sizeof value, "%.17g", m.value);
      else std::snprintf(value, sizeof value, "null");
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"value\": %s, \"unit\": \"%s\", \"clock\": \"%s\", "
                   "\"layer\": \"%s\"}%s\n",
                   m.name.c_str(), value, m.unit.c_str(), m.clock.c_str(), m.layer.c_str(),
                   i + 1 < metrics_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    return std::fclose(f) == 0;
  }

  static std::string escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c < 0x20 ? ' ' : c);
    }
    return out;
  }

 private:
  std::vector<Metric> metrics_;
  long attempted_ = 0;
  long failed_ = 0;
  std::vector<std::string> failures_;
};

/// In-memory span recorder. When off, Span costs one branch and records
/// nothing, so the same code path runs in the untraced and traced runs.
class Tracer {
 public:
  struct Event {
    const char* name;
    const char* layer;
    double t0;
    double t1;
    int pid;  ///< 1 = wall clock of this process, 2 = modelled clock
  };

  bool on = false;

  void record(const char* name, const char* layer, double t0, double t1, int pid = 1) {
    events_.push_back({name, layer, t0, t1, pid});
    totals_[name] += t1 - t0;
  }

  /// Summed duration of every span with this name (seconds).
  [[nodiscard]] double total(const char* name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : it->second;
  }

  [[nodiscard]] std::vector<double> durations(const char* name) const {
    std::vector<double> d;
    for (const Event& e : events_)
      if (e.pid == 1 && std::string(e.name) == name) d.push_back(e.t1 - e.t0);
    return d;
  }

  /// Writes Chrome trace-event JSON ("X" complete events, microseconds).
  /// At most `cap` events are written; the totals above cover all of them.
  bool write_chrome(const std::string& path, std::size_t cap = 50000) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    std::fprintf(f,
                 "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"name\": \"wall clock (host)\"}},\n"
                 "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, \"tid\": 1, "
                 "\"args\": {\"name\": \"modelled clock (service)\"}}");
    const std::size_t n = std::min(cap, events_.size());
    for (std::size_t i = 0; i < n; ++i) {
      const Event& e = events_[i];
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                   "\"dur\": %.3f, \"pid\": %d, \"tid\": 1}",
                   e.name, e.layer, e.t0 * 1e6, (e.t1 - e.t0) * 1e6, e.pid);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Event> events_;
  std::map<std::string, double> totals_;
};

/// Scoped span on the wall clock of this process.
class Span {
 public:
  Span(Tracer& t, const char* name, const char* layer)
      : tracer_(t.on ? &t : nullptr), name_(name), layer_(layer), t0_(t.on ? now_s() : 0.0) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->record(name_, layer_, t0_, now_s());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  const char* layer_;
  double t0_;
};

}  // namespace e2e
