#include "vbatch/util/error.hpp"

namespace vbatch {

const char* to_string(Status s) noexcept {
  switch (s) {
    case Status::Ok: return "ok";
    case Status::InvalidArgument: return "invalid argument";
    case Status::OutOfDeviceMemory: return "out of device memory";
    case Status::OutOfHostMemory: return "out of host memory";
    case Status::LaunchFailure: return "kernel launch failure";
    case Status::NotSupported: return "not supported";
    case Status::InternalError: return "internal error";
    case Status::DeviceLost: return "device lost";
  }
  return "unknown";
}

void throw_error(Status status, const std::string& message, std::source_location loc) {
  throw Error(status, message + " (" + loc.file_name() + ":" + std::to_string(loc.line()) + ")");
}

}  // namespace vbatch
