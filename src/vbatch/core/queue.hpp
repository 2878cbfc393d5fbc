// Queue: the library handle, analogous to magma_queue_t.
//
// A Queue owns the simulated device every vbatched routine executes on, and
// the execution mode (Full vs TimingOnly, see vbatch/sim/kernel_launch.hpp),
// fixed per queue so a whole run is consistently either numerical or
// timing-only. The device itself only models time: in Full mode each front
// runs its one numerics pass, and batches carve host-backed payloads; in
// TimingOnly mode fronts only launch, and payloads are arena charges.
#pragma once

#include <memory>

#include "vbatch/sim/device.hpp"

namespace vbatch {

class Queue {
 public:
  explicit Queue(sim::DeviceSpec spec = sim::DeviceSpec::k40c(),
                 sim::ExecMode mode = sim::ExecMode::Full);
  ~Queue();

  Queue(const Queue&) = delete;
  Queue& operator=(const Queue&) = delete;

  [[nodiscard]] sim::Device& device() noexcept { return *device_; }
  [[nodiscard]] const sim::Device& device() const noexcept { return *device_; }
  [[nodiscard]] const sim::DeviceSpec& spec() const noexcept { return device_->spec(); }
  [[nodiscard]] sim::ExecMode mode() const noexcept { return mode_; }
  [[nodiscard]] bool full() const noexcept { return mode() == sim::ExecMode::Full; }

  /// Device-model time in seconds (advanced by every kernel launch).
  [[nodiscard]] double time() const noexcept { return device_->time(); }

 private:
  std::unique_ptr<sim::Device> device_;
  sim::ExecMode mode_;
};

}  // namespace vbatch
