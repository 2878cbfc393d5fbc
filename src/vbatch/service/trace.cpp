#include "vbatch/service/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "vbatch/util/error.hpp"
#include "vbatch/util/parse.hpp"
#include "vbatch/util/rng.hpp"

namespace vbatch::service {

namespace {

[[noreturn]] void fail(int line, const std::string& what) {
  throw_error(Status::InvalidArgument, "trace:" + std::to_string(line) + ": " + what);
}

bool valid_tenant_id(const std::string& id) {
  if (id.empty()) return false;
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok) return false;
  }
  return true;
}

/// The name parse_number gives a field of `line` in its messages.
std::string field_at(int line, const char* field) {
  return "trace:" + std::to_string(line) + ": " + field;
}

/// Splits "key=value" tokens of one line; duplicate keys are an error.
std::map<std::string, std::string> parse_fields(int line, std::istringstream& tokens,
                                                const std::set<std::string>& known) {
  std::map<std::string, std::string> fields;
  std::string tok;
  while (tokens >> tok) {
    const auto kv = util::split_kv(tok);
    if (!kv) fail(line, "expected key=value, got '" + tok + "'");
    const std::string key(kv->first);
    if (known.find(key) == known.end()) fail(line, "unknown field '" + key + "'");
    if (!fields.emplace(key, kv->second).second) fail(line, "duplicate field '" + key + "'");
  }
  return fields;
}

const std::string& required(int line, const std::map<std::string, std::string>& fields,
                            const char* key) {
  const auto it = fields.find(key);
  if (it == fields.end()) fail(line, std::string("missing required field '") + key + "'");
  return it->second;
}

}  // namespace

Trace parse_trace(std::istream& in) {
  Trace trace;
  std::set<std::uint64_t> seen_ids;
  std::set<std::string> declared;
  std::set<std::string> referenced;  // request tenants, declaration-ordered via trace.tenants
  std::string raw;
  int line = 0;
  while (std::getline(in, raw)) {
    ++line;
    std::istringstream tokens(raw);
    std::string directive;
    if (!(tokens >> directive) || directive[0] == '#') continue;  // blank / comment

    if (directive == "tenant") {
      std::string name;
      if (!(tokens >> name)) fail(line, "tenant declaration needs a name");
      if (!valid_tenant_id(name))
        fail(line, "bad tenant id '" + name + "' (allowed: [A-Za-z0-9_.-]+)");
      if (declared.count(name) != 0) fail(line, "duplicate tenant '" + name + "'");
      const auto fields = parse_fields(line, tokens, {"weight"});
      double weight = 1.0;
      if (const auto it = fields.find("weight"); it != fields.end()) {
        weight = util::parse_number<double>(it->second, field_at(line, "weight"));
        if (weight <= 0.0)
          fail(line, "tenant weight must be positive (got " + it->second + ")");
      }
      declared.insert(name);
      if (referenced.count(name) == 0)
        trace.tenants.emplace_back(name, weight);
      else  // declared after first use: update the default-weight entry
        for (auto& [t, w] : trace.tenants)
          if (t == name) w = weight;
    } else if (directive == "req") {
      const auto fields = parse_fields(
          line, tokens, {"id", "t", "tenant", "op", "prec", "n", "nrhs", "seed", "deadline"});
      Request r;
      r.id = util::parse_number<std::uint64_t>(required(line, fields, "id"),
                                               field_at(line, "id"));
      if (!seen_ids.insert(r.id).second)
        fail(line, "duplicate request id " + std::to_string(r.id));
      r.submit_time =
          util::parse_number<double>(required(line, fields, "t"), field_at(line, "t"));
      if (r.submit_time < 0.0) fail(line, "t must be non-negative");
      r.tenant = required(line, fields, "tenant");
      if (!valid_tenant_id(r.tenant))
        fail(line, "bad tenant id '" + r.tenant + "' (allowed: [A-Za-z0-9_.-]+)");
      const std::string& op = required(line, fields, "op");
      if (op == "potrf") r.op = Op::Potrf;
      else if (op == "posv") r.op = Op::Posv;
      else fail(line, "unknown op '" + op + "' (potrf|posv)");
      const std::string& prec = required(line, fields, "prec");
      if (prec == "s") r.prec = Precision::Single;
      else if (prec == "d") r.prec = Precision::Double;
      else fail(line, "unknown precision '" + prec + "' (s|d)");
      const std::string& sizes = required(line, fields, "n");
      if (sizes.empty()) fail(line, "n= needs at least one matrix size");
      for (const std::string_view item : util::split(sizes, ',')) {
        const int n = util::parse_number<int>(item, field_at(line, "matrix size"));
        if (n <= 0) fail(line, "matrix sizes must be positive (got " + std::to_string(n) + ")");
        if (n > 100000) fail(line, "matrix size " + std::to_string(n) + " is implausibly large");
        r.sizes.push_back(n);
      }
      if (const auto it = fields.find("nrhs"); it != fields.end()) {
        r.nrhs = util::parse_number<int>(it->second, field_at(line, "nrhs"));
        if (r.nrhs < 1) fail(line, "nrhs must be a positive integer");
      }
      if (const auto it = fields.find("seed"); it != fields.end())
        r.seed = util::parse_number<std::uint64_t>(it->second, field_at(line, "seed"));
      if (const auto it = fields.find("deadline"); it != fields.end()) {
        r.deadline = util::parse_number<double>(it->second, field_at(line, "deadline"));
        if (r.deadline <= 0.0)
          fail(line, "deadline must be positive seconds (omit the field for no SLO)");
      }
      if (declared.count(r.tenant) == 0 && referenced.count(r.tenant) == 0)
        trace.tenants.emplace_back(r.tenant, 1.0);
      referenced.insert(r.tenant);
      trace.requests.push_back(std::move(r));
    } else {
      fail(line, "unknown directive '" + directive + "' (tenant|req|#)");
    }
  }
  std::stable_sort(trace.requests.begin(), trace.requests.end(),
                   [](const Request& a, const Request& b) {
                     if (a.submit_time != b.submit_time) return a.submit_time < b.submit_time;
                     return a.id < b.id;
                   });
  return trace;
}

Trace parse_trace(const std::string& text) {
  std::istringstream in(text);
  return parse_trace(in);
}

Trace load_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw_error(Status::InvalidArgument, "trace: cannot open '" + path + "'");
  return parse_trace(in);
}

std::string format_trace(const Trace& trace) {
  std::ostringstream out;
  out << "# vbatch service trace: " << trace.requests.size() << " requests, "
      << trace.tenants.size() << " tenants\n";
  for (const auto& [tenant, weight] : trace.tenants)
    out << "tenant " << tenant << " weight=" << util::format_number(weight) << "\n";
  for (const Request& r : trace.requests) {
    out << "req id=" << r.id << " t=" << util::format_number(r.submit_time)
        << " tenant=" << r.tenant << " op=" << to_string(r.op)
        << " prec=" << (r.prec == Precision::Double ? 'd' : 's') << " n=";
    for (std::size_t i = 0; i < r.sizes.size(); ++i)
      out << (i > 0 ? "," : "") << r.sizes[i];
    if (r.op == Op::Posv) out << " nrhs=" << r.nrhs;
    if (r.seed != 0) out << " seed=" << r.seed;
    if (r.deadline > 0.0) out << " deadline=" << util::format_number(r.deadline);
    out << "\n";
  }
  return out.str();
}

Trace make_trace(const TraceGenConfig& cfg) {
  require(cfg.count >= 1 && cfg.tenants >= 1 && cfg.nmax >= 1 && cfg.max_matrices >= 1 &&
              cfg.rate > 0.0,
          "make_trace: count/tenants/nmax/max_matrices/rate must be positive");
  require(cfg.burst >= 0.0, "make_trace: burst must be non-negative");
  require(cfg.deadline_frac >= 0.0 && cfg.deadline_frac <= 1.0,
          "make_trace: deadline_frac must be in [0, 1]");
  require(cfg.deadline_seconds > 0.0, "make_trace: deadline_seconds must be positive");
  Trace trace;
  for (int t = 0; t < cfg.tenants; ++t)
    trace.tenants.emplace_back("tenant" + std::to_string(t), 1.0);
  Rng rng(cfg.seed);
  double t = 0.0;
  for (int i = 0; i < cfg.count; ++i) {
    Request r;
    r.id = static_cast<std::uint64_t>(i + 1);
    r.tenant = trace.tenants[static_cast<std::size_t>(
                                 rng.uniform_int(0, cfg.tenants - 1))]
                   .first;
    r.op = cfg.mix_ops && rng.uniform() < 0.25 ? Op::Posv : Op::Potrf;
    r.prec = cfg.mix_precisions && rng.uniform() < 0.5 ? Precision::Single : Precision::Double;
    const int matrices = static_cast<int>(rng.uniform_int(1, cfg.max_matrices));
    Rng sz(cfg.seed ^ (r.id * 0x9E3779B97F4A7C15ull));
    r.sizes = make_sizes(cfg.dist, sz, matrices, cfg.nmax);
    if (r.op == Op::Posv) r.nrhs = static_cast<int>(rng.uniform_int(1, 4));
    if (cfg.deadline_frac > 0.0 && rng.uniform() < cfg.deadline_frac)
      r.deadline = cfg.deadline_seconds;
    r.submit_time = t;
    // Deterministic exponential inter-arrival gap of mean 1/rate; the
    // middle third of an overload trace arrives burst× faster.
    double rate = cfg.rate;
    if (cfg.burst > 1.0 && i >= cfg.count / 3 && i < 2 * cfg.count / 3) rate *= cfg.burst;
    t += -std::log(1.0 - rng.uniform()) / rate;
    trace.requests.push_back(std::move(r));
  }
  return trace;
}

}  // namespace vbatch::service
