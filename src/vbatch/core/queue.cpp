#include "vbatch/core/queue.hpp"

namespace vbatch {

Queue::Queue(sim::DeviceSpec spec, sim::ExecMode mode)
    : device_(std::make_unique<sim::Device>(std::move(spec))), mode_(mode) {}

Queue::~Queue() = default;

}  // namespace vbatch
