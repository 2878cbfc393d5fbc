// Error handling for the vbatch library.
//
// Three error channels coexist, mirroring LAPACK practice (paper §V mentions
// LAPACK compliance of error reporting as an open direction):
//   * programming errors (bad arguments, exhausted device memory) throw
//     vbatch::Error with a Status code;
//   * numerical conditions (e.g. a non-SPD matrix in potrf) are reported
//     per problem through `info` arrays, never via exceptions;
//   * recoverable *system* faults (a device lost mid-batch, a hung kernel)
//     are absorbed by the heterogeneous runtime's retry/re-dispatch loop
//     (docs/robustness.md); only a problem no surviving executor could
//     complete is marked with the distinguished kInfoChunkLost poison code
//     in its `info` slot — the call still returns.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>

namespace vbatch {

/// Machine-readable error category carried by vbatch::Error.
enum class Status {
  Ok = 0,
  InvalidArgument,
  OutOfDeviceMemory,
  OutOfHostMemory,
  LaunchFailure,
  NotSupported,
  InternalError,
  DeviceLost,
};

[[nodiscard]] const char* to_string(Status s) noexcept;

/// Distinguished `info` poison for problems whose chunk no surviving
/// executor could complete (fault recovery, docs/robustness.md). Far below
/// any LAPACK "parameter -k" code so callers can tell "bad argument k"
/// apart from "lost to a system fault"; the matrix data is left untouched
/// (the failed launches never commit), so the caller may resubmit.
inline constexpr int kInfoChunkLost = -911;

/// Exception type thrown for non-numerical failures.
class Error : public std::runtime_error {
 public:
  Error(Status status, const std::string& message)
      : std::runtime_error(std::string(to_string(status)) + ": " + message),
        status_(status) {}

  [[nodiscard]] Status status() const noexcept { return status_; }

 private:
  Status status_;
};

[[noreturn]] void throw_error(Status status, const std::string& message,
                              std::source_location loc = std::source_location::current());

/// Validates an argument precondition; throws Status::InvalidArgument on failure.
inline void require(bool cond, const char* what,
                    std::source_location loc = std::source_location::current()) {
  if (!cond) throw_error(Status::InvalidArgument, what, loc);
}

}  // namespace vbatch
