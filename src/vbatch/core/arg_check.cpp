#include "vbatch/core/arg_check.hpp"

#include <algorithm>

#include "vbatch/util/error.hpp"

namespace vbatch {

namespace {

/// Applies the rules to matrix `i`, stopping at the first offence (LAPACK
/// style) and folding it into the report.
void check_matrix(std::span<const ArgRule> rules, int i, std::span<int> info,
                  ArgCheckReport& report) {
  for (const ArgRule& rule : rules) {
    const int a = rule.a[static_cast<std::size_t>(i)];
    bool bad = false;
    switch (rule.kind) {
      case ArgRule::Kind::NonNegative:
        bad = a < 0;
        break;
      case ArgRule::Kind::AtLeastOther:
        bad = a < std::max(1, rule.b[static_cast<std::size_t>(i)]);
        break;
      case ArgRule::Kind::EqualOther:
        bad = a != rule.b[static_cast<std::size_t>(i)];
        break;
    }
    if (!bad) continue;
    ++report.violations;
    if (report.first_matrix < 0) {
      report.first_matrix = i;
      report.first_argument = rule.argument_index;
      report.first_name = rule.name;
    }
    if (!info.empty()) info[static_cast<std::size_t>(i)] = -rule.argument_index;
    return;
  }
}

/// The modelled sweep: one 256-thread block per 256 metadata entries,
/// reading `bytes_per_elem` per entry. Returns its modelled seconds.
double launch_sweep(sim::Device& dev, const char* name, int count, double bytes_per_elem) {
  sim::LaunchConfig cfg;
  cfg.name = name;
  cfg.block_threads = 256;
  cfg.grid_blocks = std::max(1, (count + 255) / 256);
  cfg.precision = Precision::Single;
  return dev.launch(cfg, [count, bytes_per_elem](int block) {
    sim::BlockCost c;
    const int lo = block * 256;
    const int elems = std::clamp(count - lo, 0, 256);
    c.active_threads = elems;
    c.live_threads = 256;
    c.flops = elems;
    c.bytes = elems * bytes_per_elem;
    c.sync_steps = 2;
    return c;
  });
}

}  // namespace

ArgCheckReport check_args(sim::Device& dev, std::span<const ArgRule> rules,
                          std::span<int> info) {
  ArgCheckReport report;
  if (rules.empty()) return report;
  const int count = static_cast<int>(rules.front().a.size());

  // One sweep kernel reads every rule's arrays once.
  launch_sweep(dev, "aux_check_args", count,
               static_cast<double>(rules.size()) * 2.0 * sizeof(int));
  for (int i = 0; i < count; ++i) check_matrix(rules, i, info, report);
  return report;
}

ArgSweep check_args_reduce(sim::Device& dev, std::span<const ArgRule> rules,
                           std::span<const int> maxed, std::span<int> info) {
  ArgSweep sweep;
  const int count = static_cast<int>(
      !rules.empty() ? rules.front().a.size() : std::max(maxed.size(), info.size()));
  if (count == 0) return sweep;

  // One kernel sweeps the rule arrays, the reduction input and the info
  // writes together; tree-reduction barriers come on top of the check's.
  double bytes_per_elem = static_cast<double>(rules.size()) * 2.0 * sizeof(int);
  if (!maxed.empty()) bytes_per_elem += sizeof(int);
  if (!info.empty()) bytes_per_elem += sizeof(int);
  sweep.seconds = launch_sweep(dev, !maxed.empty() ? "aux_imax_reduce_check" : "aux_check_args",
                               count, bytes_per_elem);

  for (int i = 0; i < count; ++i) {
    if (!info.empty()) info[static_cast<std::size_t>(i)] = 0;
    if (!maxed.empty())
      sweep.max_value = std::max(sweep.max_value, maxed[static_cast<std::size_t>(i)]);
    if (!rules.empty()) check_matrix(rules, i, info, sweep.report);
  }
  return sweep;
}

void require_args_ok(const ArgCheckReport& report, const char* routine) {
  if (report.ok()) return;
  throw_error(Status::InvalidArgument,
              std::string(routine) + ": parameter " + std::to_string(-report.first_argument) +
                  " (" + report.first_name + ") had an illegal value for " +
                  std::to_string(report.violations) + " matrices, first at batch index " +
                  std::to_string(report.first_matrix));
}

}  // namespace vbatch
