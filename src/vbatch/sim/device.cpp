#include "vbatch/sim/device.hpp"

#include <algorithm>

#include "vbatch/util/error.hpp"

namespace vbatch::sim {

Device::Device(DeviceSpec spec) : spec_(std::move(spec)) {}

Device::~Device() = default;

std::size_t Device::charge_memory(std::size_t bytes) {
  if (bytes == 0) bytes = 1;
  if (mem_used_ + bytes > spec_.global_mem_bytes) {
    throw_error(Status::OutOfDeviceMemory,
                "device allocation of " + std::to_string(bytes) + " bytes exceeds capacity (" +
                    std::to_string(mem_used_) + " of " +
                    std::to_string(spec_.global_mem_bytes) + " in use)");
  }
  mem_used_ += bytes;
  return bytes;
}

void* Device::device_reserve(std::size_t bytes) {
  bytes = charge_memory(bytes);
  void* tag = reinterpret_cast<void*>(fake_next_);
  fake_next_ += (bytes + 0xFF) & ~std::uintptr_t{0xFF};
  fake_allocs_.emplace(tag, bytes);
  return tag;
}

void* Device::device_malloc(std::size_t bytes) {
  bytes = charge_memory(bytes);
  auto storage = std::make_unique<char[]>(bytes);
  void* p = storage.get();
  allocs_.emplace(p, std::make_pair(std::move(storage), bytes));
  return p;
}

void Device::device_free(void* p) {
  if (p == nullptr) return;
  if (auto it = allocs_.find(p); it != allocs_.end()) {
    mem_used_ -= it->second.second;
    allocs_.erase(it);
    return;
  }
  if (auto it = fake_allocs_.find(p); it != fake_allocs_.end()) {
    mem_used_ -= it->second;
    fake_allocs_.erase(it);
    return;
  }
  throw_error(Status::InvalidArgument, "device_free of unknown pointer");
}

const std::vector<BlockCost>& Device::run_blocks(const LaunchConfig& cfg, const BlockFn& cost) {
  require(cfg.grid_blocks >= 0, "launch: negative grid");
  // Reused scratch: assign() keeps capacity across launches, so a driver's
  // hundreds of same-shaped steps allocate once instead of once per launch.
  // Cost reports are cheap, never worth a pool dispatch.
  cost_scratch_.assign(static_cast<std::size_t>(cfg.grid_blocks), BlockCost{});
  for (int b = 0; b < cfg.grid_blocks; ++b) cost_scratch_[static_cast<std::size_t>(b)] = cost(b);
  return cost_scratch_;
}

void Device::charge_interval_at(const std::string& name, double at, double seconds) {
  if (seconds <= 0.0) return;
  KernelRecord rec;
  rec.name = name;
  rec.start = at;
  rec.end = at + seconds;
  rec.fault = true;
  timeline_.add(std::move(rec));
  clock_ = std::max(clock_, at + seconds);
}

void Device::record_transfer(TransferDir dir, int chunk, double bytes, double at,
                             double seconds) {
  if (seconds <= 0.0) return;
  TransferRecord rec;
  rec.name = to_string(dir);
  rec.dir = dir;
  rec.chunk = chunk;
  rec.bytes = bytes;
  rec.start = at;
  rec.end = at + seconds;
  timeline_.add_transfer(std::move(rec));
  clock_ = std::max(clock_, at + seconds);
}

void Device::place_record(KernelRecord rec) {
  clock_ = std::max(clock_, rec.end);
  timeline_.add(std::move(rec));
}

double Device::launch(const LaunchConfig& cfg, const BlockFn& cost) {
  const KernelTiming timing =
      schedule_kernel(spec_, cfg, run_blocks(cfg, cost), true, &plan_cache_);

  KernelRecord rec;
  rec.name = cfg.name;
  rec.start = clock_;
  rec.end = clock_ + timing.seconds;
  rec.grid_blocks = cfg.grid_blocks;
  rec.block_threads = cfg.block_threads;
  rec.shared_mem = cfg.shared_mem;
  rec.resident_per_sm = timing.resident_per_sm;
  rec.flops = timing.total_flops;
  rec.bytes = timing.total_bytes;
  rec.early_exits = timing.early_exits;
  timeline_.add(std::move(rec));

  clock_ += timing.seconds;
  return timing.seconds;
}

double Device::launch_concurrent(const std::vector<LaunchConfig>& configs,
                                 const std::vector<BlockFn>& fns, int num_streams) {
  require(configs.size() == fns.size(), "launch_concurrent: configs/fns size mismatch");
  require(num_streams >= 1, "launch_concurrent: need at least one stream");
  if (configs.empty()) return 0.0;
  // Clamp to what the device supports AND to the kernel count: more streams
  // than kernels cannot add concurrency. The per-record `stream` field below
  // exposes the post-clamp assignment (Timeline::streams_used), so callers
  // that requested 64 streams on a 32-stream device see 32, not a phantom.
  num_streams = std::min({num_streams, spec_.max_concurrent_streams,
                          static_cast<int>(configs.size())});

  // Shared slot pool sized by the first kernel's occupancy (the streamed
  // pattern launches homogeneous kernels). Per-stream ordering: kernel k on
  // stream s starts after both its host enqueue time and the previous kernel
  // on s completes.
  const BlockShape shape{configs[0].block_threads, configs[0].shared_mem};
  const int resident =
      plan_cache_.plan(spec_, shape, configs[0].precision).resident_per_sm;
  if (resident == 0) {
    throw_error(Status::LaunchFailure, "streamed kernel shape exceeds device limits");
  }
  std::vector<double> stream_ready(static_cast<std::size_t>(num_streams), 0.0);

  // Blocks from all streams co-occupy the device; their lane/bandwidth
  // share follows the effective residency of the pooled grid.
  std::int64_t total_blocks = 0;
  for (const auto& c : configs) total_blocks += c.grid_blocks;
  SlotPool slots(static_cast<int>(std::min<std::int64_t>(spec_.num_sms * resident, total_blocks)));
  const int eff_resident = effective_residency(total_blocks, spec_.num_sms, resident);

  const double enqueue = spec_.stream_enqueue_overhead_us * 1e-6;
  const double dispatch = spec_.block_dispatch_cycles * spec_.cycle_seconds();
  double makespan = 0.0;
  const double start_clock = clock_;

  for (std::size_t k = 0; k < configs.size(); ++k) {
    const auto& costs = run_blocks(configs[k], fns[k]);
    const int stream = static_cast<int>(k % static_cast<std::size_t>(num_streams));
    const double host_time = static_cast<double>(k + 1) * enqueue;
    const double kernel_start = std::max(host_time, stream_ready[static_cast<std::size_t>(stream)]);

    double kernel_end = kernel_start;
    double flops = 0.0, bytes = 0.0;
    int exits = 0;
    for (const BlockCost& b : costs) {
      const double dur = dispatch + block_seconds(spec_, configs[k].precision, eff_resident, b);
      kernel_end = std::max(kernel_end, slots.assign(dur, kernel_start));
      flops += b.flops;
      bytes += b.bytes;
      if (b.early_exit) ++exits;
    }
    stream_ready[static_cast<std::size_t>(stream)] = kernel_end;
    makespan = std::max(makespan, kernel_end);

    KernelRecord rec;
    rec.name = configs[k].name;
    rec.start = start_clock + kernel_start;
    rec.end = start_clock + kernel_end;
    rec.grid_blocks = configs[k].grid_blocks;
    rec.block_threads = configs[k].block_threads;
    rec.shared_mem = configs[k].shared_mem;
    rec.resident_per_sm = resident;
    rec.flops = flops;
    rec.bytes = bytes;
    rec.early_exits = exits;
    rec.stream = stream;
    timeline_.add(std::move(rec));
  }

  clock_ += makespan;
  return makespan;
}

}  // namespace vbatch::sim
