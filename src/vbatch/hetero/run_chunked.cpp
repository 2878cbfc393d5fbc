#include "vbatch/hetero/run_chunked.hpp"

#include <algorithm>
#include <functional>

#include "vbatch/util/error.hpp"

namespace vbatch::hetero {

HeteroResult run_chunked(DevicePool& pool, std::span<const Chunk> chunks,
                         std::span<const ChunkWork> work, std::span<int> info,
                         const HeteroOptions& opts, double sweep_seconds,
                         const ChunkNumerics& numerics) {
  const int E = pool.size();
  const int C = static_cast<int>(chunks.size());
  require(C >= 1 && work.size() == chunks.size() &&
              static_cast<int>(info.size()) >= chunks.back().end,
          "run_chunked: needs one ChunkWork per chunk and info covering every chunk");
  const Precision prec = work.front().prec;
  auto info_of = [&](int c) {
    const Chunk& ck = chunks[static_cast<std::size_t>(c)];
    return info.subspan(static_cast<std::size_t>(ck.begin), static_cast<std::size_t>(ck.count()));
  };

  // --- Estimate every (executor, chunk) pair: dry runs on the timing twins
  // (GPU, memoized per distinct chunk) or the analytic CPU model. Exact by
  // construction. The dry run also yields the chunk's device occupancy —
  // the overlap headroom the multi-stream schedule exploits — and the
  // records a commit places.
  HeteroResult result;
  std::vector<std::vector<ChunkEstimate>> est(static_cast<std::size_t>(E),
                                              std::vector<ChunkEstimate>(static_cast<std::size_t>(C)));
  ScheduleParams sp;
  sp.estimate.assign(static_cast<std::size_t>(E), std::vector<double>(static_cast<std::size_t>(C)));
  sp.occupancy = sp.estimate;
  sp.streams.assign(static_cast<std::size_t>(E), 1);
  for (int e = 0; e < E; ++e) {
    Executor& ex = pool.executor(e);
    sp.streams[static_cast<std::size_t>(e)] = ex.streams();
    for (int c = 0; c < C; ++c) {
      ChunkEstimate& ce = est[static_cast<std::size_t>(e)][static_cast<std::size_t>(c)];
      ce = ex.estimate(work[static_cast<std::size_t>(c)]);
      sp.estimate[static_cast<std::size_t>(e)][static_cast<std::size_t>(c)] = ce.seconds;
      sp.occupancy[static_cast<std::size_t>(e)][static_cast<std::size_t>(c)] = ce.occupancy;
      if (ex.is_gpu()) ++(ce.memo_hit ? result.estimate_memo_hits : result.estimate_memo_misses);
    }
  }

  // --- Out-of-core staging decision (docs/heterogeneous.md, "Out-of-core
  // streaming"). A GPU executor streams when forced (Staging::Streamed) or
  // when the whole batch cannot be resident inside its arena budget
  // (Staging::Auto). Resident executors keep empty transfer rows.
  double footprint = 0.0;
  for (const ChunkWork& w : work) {
    sp.chunk_bytes.push_back(w.bytes);
    footprint += w.bytes;
  }
  sp.arena.assign(static_cast<std::size_t>(E), 0.0);
  sp.h2d.resize(static_cast<std::size_t>(E));
  sp.d2h.resize(static_cast<std::size_t>(E));
  for (int e = 0; e < E; ++e) {
    Executor& ex = pool.executor(e);
    if (!ex.is_gpu()) continue;  // the CPU works in host memory: no staging
    const double budget = ex.arena_bytes();
    sp.arena[static_cast<std::size_t>(e)] = budget;
    const bool wants = opts.staging == HeteroOptions::Staging::Streamed ||
                       (opts.staging == HeteroOptions::Staging::Auto && footprint > budget);
    if (opts.staging == HeteroOptions::Staging::Resident)
      require(footprint <= budget,
              "run_chunked: batch footprint exceeds the staging arena with "
              "Staging::Resident (stream the pool or raise the arena budget)");
    if (!wants) continue;
    const sim::DeviceSpec& spec = static_cast<GpuExecutor&>(ex).spec();
    for (const ChunkWork& w : work) {
      sp.h2d[static_cast<std::size_t>(e)].push_back(spec.h2d_seconds(w.bytes));
      sp.d2h[static_cast<std::size_t>(e)].push_back(spec.d2h_seconds(w.bytes));
    }
  }

  // --- Static partition (overlap-aware: a multi-stream executor absorbs
  // low-occupancy chunks at their slot share, not their serial seconds;
  // transfer-aware: a streaming executor also pays its non-overlappable
  // staging share), then the virtual-time work-stealing schedule.
  sp.owner = assign_chunks(
      effective_load(sp.estimate, sp.occupancy, sp.streams, sp.h2d, sp.d2h, opts.prefetch),
      opts.partition, E);
  sp.prefetch = opts.prefetch;
  sp.work_stealing = opts.work_stealing;
  sp.steal = opts.steal;
  sp.seed = opts.steal_seed;
  sp.initial_clock.assign(static_cast<std::size_t>(E), 0.0);
  sp.initial_clock[0] = sweep_seconds;
  sp.faults = &pool.fault_plan();
  sp.retry = opts.retry;

  ScheduleResult sched = run_schedule(
      sp,
      [&](int e, int c, const StreamSlot& slot) {
        pool.executor(e).execute(est[static_cast<std::size_t>(e)][static_cast<std::size_t>(c)],
                                 slot);
      },
      [&](const fault::FaultEvent& ev) {
        // Make the wasted virtual time visible on the acting executor's
        // timing authority (GPU timeline records → profiler fault column
        // and energy integration; the CPU model is charged via busy). The
        // schedule position pins the record so overlapped streams report
        // their waste where it actually happened.
        if (ev.exec < 0) return;
        Executor& ex = pool.executor(ev.exec);
        if (ev.waste_seconds > 0.0)
          ex.charge_fault(std::string("fault.") + fault::to_string(ev.kind), ev.waste_seconds,
                          ev.start);
        if (ev.backoff_seconds > 0.0)
          ex.charge_fault("fault.backoff", ev.backoff_seconds, ev.start + ev.waste_seconds);
      });

  // --- One numerics pass over every completed chunk's matrices. An
  // uncompleted chunk (poisoned: no surviving executor could complete it)
  // is never computed and marks every one of its problems with
  // kInfoChunkLost.
  std::vector<int> committed;
  for (int c = 0; c < C; ++c)
    if (sched.chunks[static_cast<std::size_t>(c)].executor >= 0) committed.push_back(c);
  if (numerics && !committed.empty()) numerics(committed);
  for (int c = 0; c < C; ++c)
    if (sched.chunks[static_cast<std::size_t>(c)].executor < 0) {
      const std::span<int> lost = info_of(c);
      std::fill(lost.begin(), lost.end(), kInfoChunkLost);
    }

  // --- Assemble the report: per-executor flops (in chunk order), energy in
  // executor order, pool totals.
  result.seconds = sched.makespan;
  result.chunks = C;
  result.retries = sched.retries_total;
  result.hangs = sched.hangs;
  result.executors_lost = sched.executors_lost;
  result.chunks_poisoned = sched.chunks_poisoned;
  result.backoff_seconds = sched.backoff_seconds;
  result.fault_events = std::move(sched.events);
  result.executors.resize(static_cast<std::size_t>(E));
  for (int e = 0; e < E; ++e) {
    ExecutorReport& rep = result.executors[static_cast<std::size_t>(e)];
    static_cast<ExecutorSchedule&>(rep) = sched.executors[static_cast<std::size_t>(e)];
    rep.name = pool.executor(e).name();
  }
  for (int c = 0; c < C; ++c) {
    const int e = sched.chunks[static_cast<std::size_t>(c)].executor;
    if (e < 0) continue;
    ExecutorReport& rep = result.executors[static_cast<std::size_t>(e)];
    rep.flops += chunks[static_cast<std::size_t>(c)].flops;
    rep.matrices += chunks[static_cast<std::size_t>(c)].count();
  }
  energy::EnergyMeter meter;
  for (int e = 0; e < E; ++e) {
    const Executor& ex = pool.executor(e);
    ExecutorReport& rep = result.executors[static_cast<std::size_t>(e)];
    if (!rep.lost) result.surviving_peak_gflops += ex.peak_gflops(prec);
    const energy::EnergyResult active = ex.call_energy(prec, rep.busy_seconds, rep.flops);
    rep.joules = active.joules;
    meter.add(active);
    // Staging copies keep the DMA engines and the PCIe PHY powered for
    // their wire time — charged on top of the compute integration.
    rep.transfer_joules = ex.power().transfer_watts * (rep.h2d_seconds + rep.d2h_seconds);
    if (rep.transfer_joules > 0.0) meter.add(energy::EnergyResult{rep.transfer_joules, 0.0});
    meter.add_idle(ex.power(), sched.makespan - rep.finish_seconds);
    result.steals += rep.stolen;
    result.h2d_bytes += rep.h2d_bytes;
    result.d2h_bytes += rep.d2h_bytes;
  }
  meter.set_wall_seconds(sched.makespan);
  result.energy = meter.total();
  return result;
}

}  // namespace vbatch::hetero
