#include "vbatch/hetero/executor.hpp"

#include <algorithm>
#include <cstdlib>

#include "vbatch/cpu/cpu_batched.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/parse.hpp"

namespace vbatch::hetero {

void Executor::begin_call() {
  // The queue's timeline holds only the latest call, so a long-lived pool's
  // memory and per-call walks stay bounded by one call. The clock keeps
  // running: records still sit at their device-clock instants.
  queue().device().clear_timeline();
}

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

void Executor::execute(const ChunkEstimate& /*est*/, const StreamSlot& /*slot*/) {}

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

void GpuExecutor::begin_call() {
  Executor::begin_call();
  call_t0_ = queue_.time();
}

int GpuExecutor::max_streams() const noexcept { return queue_.spec().max_concurrent_streams; }

ChunkEstimate GpuExecutor::estimate(const ChunkWork& work) {
  if (work.key.empty()) return dry_run(work);
  if (const auto hit = memo_index_.find(work.key); hit != memo_index_.end()) {
    memo_.splice(memo_.begin(), memo_, hit->second);
    ChunkEstimate ce = memo_.front().second;
    ce.memo_hit = true;
    return ce;
  }
  if (memo_.size() == kEstimateMemoCapacity) {
    memo_index_.erase(memo_.back().first);
    memo_.pop_back();
  }
  memo_.emplace_front(work.key, dry_run(work));
  memo_index_.emplace(memo_.front().first, memo_.begin());
  return memo_.front().second;
}

ChunkEstimate GpuExecutor::dry_run(const ChunkWork& work) {
  // Dry-run the chunk's driver on the timing-only twin: identical spec,
  // identical launch sequence, so the modelled seconds are exact — not a
  // fit. The twin's clock and timeline are scratch state.
  sim::Device& twin = scratch_.device();
  twin.reset_time();
  twin.clear_timeline();
  scratch_info_.assign(work.n.size(), 0);
  ChunkEstimate ce;
  ce.seconds = work.run(scratch_, scratch_info_);
  const auto& recs = twin.timeline().records();
  auto records = std::make_shared<std::vector<DryRecord>>();
  records->reserve(recs.size());
  double weighted = 0.0;
  for (const sim::KernelRecord& rec : recs) {
    const auto name = static_cast<int>(
        std::find(kernel_names_.begin(), kernel_names_.end(), rec.name) - kernel_names_.begin());
    if (name == static_cast<int>(kernel_names_.size())) kernel_names_.push_back(rec.name);
    records->push_back({rec.start, rec.end, rec.flops, rec.bytes, rec.shared_mem,
                        rec.grid_blocks, rec.block_threads, rec.resident_per_sm,
                        rec.early_exits, rec.stream, name});
    // Duration-weighted slot occupancy: each launch fills grid_blocks of the
    // device's num_sms × resident slots. Launch/enqueue gaps (intervals
    // with no record) count as zero occupancy, which is exactly the
    // headroom overlapping streams hide.
    const double dur = rec.end - rec.start;
    if (dur <= 0.0 || rec.resident_per_sm <= 0 || rec.grid_blocks <= 0) continue;
    const double slots =
        static_cast<double>(queue_.spec().num_sms) * static_cast<double>(rec.resident_per_sm);
    weighted += std::min(1.0, static_cast<double>(rec.grid_blocks) / slots) * dur;
  }
  if (ce.seconds > 0.0) ce.occupancy = std::clamp(weighted / ce.seconds, 0.05, 1.0);
  ce.records = std::move(records);
  return ce;
}

void GpuExecutor::execute(const ChunkEstimate& est, const StreamSlot& slot) {
  sim::Device& dev = queue_.device();
  // Replay the dry run's records in the chunk's scheduled slot: a record
  // time t becomes the slot start + t / rate (rate < 1 stretches the chunk,
  // the modelled cost of contending for the device's stream slots). With
  // one stream the slot starts where the previous chunk ended and has rate
  // 1, and untagged records stay untagged so single-stream profiles look
  // unchanged; inner tags (the streamed syrk's) are kept.
  const double start = call_t0_ + slot.start;
  const double rate = slot.rate > 0.0 ? slot.rate : 1.0;
  const int stream = streams() > 1 ? slot.stream : -1;
  for (const DryRecord& r : *est.records) {
    sim::KernelRecord rec;
    rec.name = kernel_name(r.name);
    rec.start = start + r.start / rate;
    rec.end = start + r.end / rate;
    rec.grid_blocks = r.grid_blocks;
    rec.block_threads = r.block_threads;
    rec.shared_mem = r.shared_mem;
    rec.resident_per_sm = r.resident_per_sm;
    rec.flops = r.flops;
    rec.bytes = r.bytes;
    rec.early_exits = r.early_exits;
    rec.stream = r.stream >= 0 ? r.stream : stream;
    dev.place_record(std::move(rec));
  }
  // A streamed chunk also lands its two staging copies on the timeline's
  // transfer lane at the schedule's placement (resident chunks carry no
  // transfer fields and record nothing).
  if (slot.h2d_seconds > 0.0)
    dev.record_transfer(sim::TransferDir::H2D, slot.chunk, slot.bytes,
                        call_t0_ + slot.h2d_start, slot.h2d_seconds);
  if (slot.d2h_seconds > 0.0)
    dev.record_transfer(sim::TransferDir::D2H, slot.chunk, slot.bytes,
                        call_t0_ + slot.d2h_start, slot.d2h_seconds);
}

void GpuExecutor::charge_fault(const std::string& what, double seconds, double start) {
  queue_.device().charge_interval_at(what, call_t0_ + start, seconds);
}

energy::EnergyResult GpuExecutor::call_energy(Precision prec, double /*busy_seconds*/,
                                              double /*flops*/) const {
  // The timeline holds this call alone (begin_call cleared it).
  return energy::gpu_timeline_energy(queue_.spec(), power(), queue_.device().timeline(), prec,
                                     call_t0_);
}

// --- CpuExecutor -----------------------------------------------------------

CpuExecutor::CpuExecutor(std::string name, const cpu::CpuSpec& spec,
                         const energy::PowerModel& power)
    : Executor(std::move(name), power),
      spec_(spec),
      // The hidden queue exists to host plan_potrf's metadata sweep; any
      // spec works because its modelled clock is discarded.
      sweep_(sim::DeviceSpec::k40c(), sim::ExecMode::Full) {}

CpuExecutor::~CpuExecutor() = default;

ChunkEstimate CpuExecutor::estimate(const ChunkWork& work) {
  // The paper's best CPU strategy (§IV-F): one core per matrix, dynamic
  // scheduling. Purely analytic, so the estimate is the charged time. Every
  // core is already busy under that schedule — occupancy 1, no overlap
  // headroom.
  ChunkEstimate ce;
  ce.seconds = cpu::per_core_makespan(spec_, cpu::Schedule::Dynamic, work.prec, work.n);
  return ce;
}

energy::EnergyResult CpuExecutor::call_energy(Precision prec, double busy_seconds,
                                              double flops) const {
  const double achieved =
      busy_seconds > 0.0 ? flops / busy_seconds * 1e-9 : 0.0;
  return energy::cpu_interval_energy(power(), busy_seconds, achieved,
                                     spec_.total_peak_gflops(prec));
}

}  // namespace vbatch::hetero
