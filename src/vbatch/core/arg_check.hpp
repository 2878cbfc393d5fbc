// LAPACK-compliant argument checking for vbatched routines.
//
// Paper §V: "Another open direction is to investigate LAPACK compliance of
// these routines, especially with respect to error checking, and to
// propose an alternate scheme to report possible errors to the user."
//
// The scheme implemented here: a device kernel sweeps the metadata arrays
// (sizes, leading dimensions) and produces a per-call report — how many
// matrices violate which argument, and the first offender. Public vbatched
// routines run the check up front and raise Status::InvalidArgument with a
// LAPACK-style "argument -k" message; the per-matrix `info` array receives
// -k for every offending matrix so the caller can identify them all (the
// "alternate scheme": errors are data, not just a scalar return).
#pragma once

#include <span>
#include <string>

#include "vbatch/sim/device.hpp"

namespace vbatch {

/// One dimension rule: value_a[i] (relation) bound derived from value_b[i].
struct ArgRule {
  enum class Kind {
    NonNegative,   ///< a[i] >= 0
    AtLeastOther,  ///< a[i] >= max(1, b[i])
    EqualOther,    ///< a[i] == b[i] (dimension consistency across operands)
  };
  Kind kind = Kind::NonNegative;
  std::span<const int> a;
  std::span<const int> b;       ///< used by AtLeastOther
  int argument_index = 0;       ///< 1-based position in the routine signature
  const char* name = "";        ///< e.g. "n", "lda"
};

/// Outcome of a metadata sweep.
struct ArgCheckReport {
  int violations = 0;        ///< total offending matrices (first rule hit counts)
  int first_matrix = -1;     ///< batch index of the first offender
  int first_argument = 0;    ///< 1-based argument index of the first offence
  const char* first_name = "";
  [[nodiscard]] bool ok() const noexcept { return violations == 0; }
};

/// Sweeps the rules with a device kernel (modelled cost) and returns the
/// report. When `info` is non-empty, every offending matrix i receives
/// info[i] = -argument_index (and non-offenders are left untouched).
ArgCheckReport check_args(sim::Device& dev, std::span<const ArgRule> rules,
                          std::span<int> info = {});

/// Outcome of a combined metadata pass.
struct ArgSweep {
  ArgCheckReport report;
  int max_value = 0;  ///< max over `maxed` (0 when no reduction requested)
  double seconds = 0.0;  ///< modelled seconds of the sweep kernel
};

/// One-pass metadata sweep for the vbatched entry points: zeroes `info`,
/// applies the rules (offenders then receive -argument_index), and — when
/// `maxed` is non-empty — reduces its maximum, all in a single modelled
/// kernel and a single host loop. This replaces the separate
/// validation / info-reset / imax_reduce sweeps the entry points used to
/// pay. The kernel is recorded as `aux_imax_reduce_check` when a reduction
/// is requested (it subsumes the standalone aux_imax_reduce launch) and as
/// `aux_check_args` otherwise.
ArgSweep check_args_reduce(sim::Device& dev, std::span<const ArgRule> rules,
                           std::span<const int> maxed, std::span<int> info);

/// Raises Status::InvalidArgument with a LAPACK-style message when the
/// report has violations ("parameter -k had an illegal value for N
/// matrices, first at batch index j").
void require_args_ok(const ArgCheckReport& report, const char* routine);

}  // namespace vbatch
