#include "vbatch/hetero/executor.hpp"

#include <algorithm>
#include <cstdlib>

#include "vbatch/cpu/cpu_batched.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/parse.hpp"

namespace vbatch::hetero {

void Executor::begin_call(sim::ExecMode mode) { queue().device().set_mode(mode); }

void Executor::set_streams(int k) {
  if (k < 1)
    throw_error(Status::InvalidArgument, "Executor::set_streams: stream count must be >= 1 (got " +
                                             std::to_string(k) + ")");
  streams_ = std::min(k, max_streams());
}

void Executor::set_arena_gb(double gb) { set_arena_bytes(gb * 1024.0 * 1024.0 * 1024.0); }

void Executor::set_arena_bytes(double bytes) {
  if (!is_gpu())
    throw_error(Status::InvalidArgument,
                "Executor::set_arena_bytes: the CPU executor works in host memory and has no "
                "staging arena");
  if (!(bytes > 0.0))
    throw_error(Status::InvalidArgument,
                "Executor::set_arena_bytes: arena budget must be positive (got " +
                    std::to_string(bytes) + " bytes)");
  arena_bytes_ = bytes;
  arena_explicit_ = true;
}

void Executor::charge_fault(const std::string& /*what*/, double /*seconds*/, double /*start*/) {}

// --- GpuExecutor -----------------------------------------------------------

GpuExecutor::GpuExecutor(std::string name, const sim::DeviceSpec& spec,
                         const energy::PowerModel& power)
    : Executor(std::move(name), power),
      queue_(spec, sim::ExecMode::Full),
      scratch_(spec, sim::ExecMode::TimingOnly) {
  // Default staging budget: VBATCH_ARENA_GB, else the whole card.
  // Out-of-core streaming kicks in only when the batch footprint exceeds it.
  double bytes = static_cast<double>(spec.global_mem_bytes);
  if (const char* env = std::getenv("VBATCH_ARENA_GB"); env != nullptr && *env != '\0') {
    const double gb = util::parse_number<double>(env, "GpuExecutor: VBATCH_ARENA_GB");
    require(gb > 0.0, "GpuExecutor: VBATCH_ARENA_GB must be a positive number");
    bytes = gb * 1024.0 * 1024.0 * 1024.0;
  }
  init_arena_bytes(bytes);
}

GpuExecutor::~GpuExecutor() = default;

void GpuExecutor::begin_call(sim::ExecMode mode) {
  Executor::begin_call(mode);
  call_t0_ = queue_.time();
  call_first_record_ = queue_.device().timeline().size();
}

int GpuExecutor::max_streams() const noexcept { return queue_.spec().max_concurrent_streams; }

ChunkEstimate GpuExecutor::estimate(const ChunkWork& work) {
  // Dry-run the chunk's driver on the timing-only twin: identical spec,
  // identical launch sequence, so the modelled seconds are exact — not a
  // fit. The twin's clock and timeline are scratch state.
  scratch_.device().reset_time();
  scratch_.device().clear_timeline();
  scratch_info_.assign(work.n.size(), 0);
  ChunkEstimate ce;
  ce.seconds = work.run(scratch_, scratch_info_);
  if (ce.seconds > 0.0) {
    // Duration-weighted slot occupancy over the dry-run timeline: each
    // launch fills grid_blocks of the device's num_sms × resident slots.
    // Launch/enqueue gaps (intervals with no record) count as zero
    // occupancy, which is exactly the headroom overlapping streams hide.
    double weighted = 0.0;
    for (const auto& rec : scratch_.device().timeline().records()) {
      const double dur = rec.end - rec.start;
      if (dur <= 0.0 || rec.resident_per_sm <= 0 || rec.grid_blocks <= 0) continue;
      const double slots =
          static_cast<double>(queue_.spec().num_sms) * static_cast<double>(rec.resident_per_sm);
      weighted += std::min(1.0, static_cast<double>(rec.grid_blocks) / slots) * dur;
    }
    ce.occupancy = std::clamp(weighted / ce.seconds, 0.05, 1.0);
  }
  return ce;
}

double GpuExecutor::execute(const ChunkWork& work, std::span<int> info, const StreamSlot& slot) {
  sim::Device& dev = queue_.device();
  const std::size_t first = dev.timeline().size();
  const double base = dev.time();
  const double serial = work.run(queue_, info);
  // Move the records the chunk just appended into its scheduled slot. With
  // one stream this is the identity placement (slot.start is the executor
  // clock, rate 1) and the tag stays -1 so single-stream profiles look
  // exactly like before.
  dev.retime_tail(first, base, call_t0_ + slot.start, slot.rate,
                  streams() > 1 ? slot.stream : -1);
  // A streamed chunk also lands its two staging copies on the timeline's
  // transfer lane at the schedule's placement (resident chunks carry no
  // transfer fields and record nothing).
  if (slot.h2d_seconds > 0.0)
    dev.record_transfer(sim::TransferDir::H2D, slot.chunk, slot.bytes,
                        call_t0_ + slot.h2d_start, slot.h2d_seconds);
  if (slot.d2h_seconds > 0.0)
    dev.record_transfer(sim::TransferDir::D2H, slot.chunk, slot.bytes,
                        call_t0_ + slot.d2h_start, slot.d2h_seconds);
  return serial;
}

void GpuExecutor::charge_fault(const std::string& what, double seconds, double start) {
  queue_.device().charge_interval_at(what, call_t0_ + start, seconds);
}

energy::EnergyResult GpuExecutor::call_energy(Precision prec, double /*busy_seconds*/,
                                              double /*flops*/) const {
  // Only this call's records: a long-lived executor's timeline keeps every
  // earlier call, and re-walking it would grow each call's cost with uptime.
  return energy::gpu_timeline_energy(queue_.spec(), power(), queue_.device().timeline(), prec,
                                     call_t0_, call_first_record_);
}

// --- CpuExecutor -----------------------------------------------------------

CpuExecutor::CpuExecutor(std::string name, const cpu::CpuSpec& spec,
                         const energy::PowerModel& power)
    : Executor(std::move(name), power),
      spec_(spec),
      // The hidden queue exists to host the shared kernel math; any spec
      // works because its modelled clock is discarded.
      numerics_(sim::DeviceSpec::k40c(), sim::ExecMode::Full) {}

CpuExecutor::~CpuExecutor() = default;

ChunkEstimate CpuExecutor::estimate(const ChunkWork& work) {
  // The paper's best CPU strategy (§IV-F): one core per matrix, dynamic
  // scheduling. Purely analytic, so estimate == execute time. Every core is
  // already busy under that schedule — occupancy 1, no overlap headroom.
  return {cpu::per_core_makespan(spec_, cpu::Schedule::Dynamic, work.prec, work.n), 1.0};
}

double CpuExecutor::execute(const ChunkWork& work, std::span<int> info,
                            const StreamSlot& /*slot*/) {
  if (numerics_.full()) {
    work.run(numerics_, info);  // modelled GPU seconds discarded
  }
  return cpu::per_core_makespan(spec_, cpu::Schedule::Dynamic, work.prec, work.n);
}

energy::EnergyResult CpuExecutor::call_energy(Precision prec, double busy_seconds,
                                              double flops) const {
  const double achieved =
      busy_seconds > 0.0 ? flops / busy_seconds * 1e-9 : 0.0;
  return energy::cpu_interval_energy(power(), busy_seconds, achieved,
                                     spec_.total_peak_gflops(prec));
}

}  // namespace vbatch::hetero
