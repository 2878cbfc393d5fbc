#include "vbatch/hetero/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <utility>

#include "vbatch/util/error.hpp"
#include "vbatch/util/rng.hpp"

namespace vbatch::hetero {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One chunk occupying a stream slot between dispatch and commit. `dur` is
/// kept explicit (est / rate) rather than recomputed from end − start so a
/// rate-1.0 chunk charges exactly its estimate to the busy ledger — the
/// bitwise guarantee the single-stream compatibility tests pin.
struct InFlight {
  int chunk = -1;
  int stream = 0;
  int attempt = 0;
  bool stolen = false;
  double start = 0.0;  ///< compute start (== dispatch clock when resident)
  double dur = 0.0;    ///< compute duration (est / rate)
  double end = 0.0;    ///< commit time: compute end, or d2h end when streamed
  double occ = 1.0;
  double rate = 1.0;
  // Out-of-core staging trajectory (all zero for a resident chunk).
  bool streamed = false;
  double bytes = 0.0;
  double h2d_start = 0.0;
  double h2d_end = 0.0;
  double d2h_start = 0.0;
  double d2h_end = 0.0;
};

/// One executor's mutable state inside the event loop.
struct ExecState {
  /// Owned chunks in chunk order: front = biggest remaining chunk (chunks
  /// follow the size-sorted batch order), back = trailing smallest — the
  /// steal end.
  std::deque<int> deque;
  double clock = 0.0;  ///< dispatch clock
  /// Per-direction DMA lane clocks: copies in one direction serialize on
  /// their lane, the two directions are independent engines.
  double h2d_free = 0.0;
  double d2h_free = 0.0;
  /// Nothing left to dispatch (reversible: re-dispatched orphans wake a
  /// retired executor up; its in-flight chunks still commit).
  bool retired = false;
  bool alive = true;  ///< not permanently lost
  int completed = 0;
  std::vector<int> tried;     ///< per-chunk attempt counters
  std::vector<char> gave_up;  ///< per-chunk retry-exhaustion flags
  /// Stream slots currently holding a dispatched-but-uncommitted chunk.
  std::vector<InFlight> fly;
  /// Busy intervals (the occupied union) and compute + transfer intervals
  /// (the pipeline span).
  std::vector<std::pair<double, double>> busy_iv;
  std::vector<std::pair<double, double>> pipe_iv;
};

/// Union length of [start, end) intervals — one executor's occupied time.
double union_seconds(std::vector<std::pair<double, double>>& iv) {
  if (iv.empty()) return 0.0;
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double lo = iv.front().first;
  double hi = iv.front().second;
  for (const auto& [s, e] : iv) {
    if (s > hi) {
      total += hi - lo;
      lo = s;
      hi = e;
    } else {
      hi = std::max(hi, e);
    }
  }
  return total + (hi - lo);
}

}  // namespace

ScheduleResult run_schedule(const ScheduleParams& params,
                            const std::function<double(int, int, const StreamSlot&)>& execute,
                            const std::function<void(const fault::FaultEvent&)>& on_fault) {
  const int E = static_cast<int>(params.estimate.size());
  const int C = static_cast<int>(params.owner.size());
  require(E >= 1, "run_schedule: need at least one executor");
  require(params.streams.empty() || static_cast<int>(params.streams.size()) == E,
          "run_schedule: streams must be empty or match executor count");
  for (const int k : params.streams) require(k >= 1, "run_schedule: streams entries must be >= 1");
  require(params.occupancy.empty() || static_cast<int>(params.occupancy.size()) == E,
          "run_schedule: occupancy rows must be empty or match executor count");
  for (const auto& row : params.occupancy)
    for (const double o : row)
      require(o > 0.0 && o <= 1.0, "run_schedule: occupancy values must be in (0, 1]");
  require(params.h2d.empty() || static_cast<int>(params.h2d.size()) == E,
          "run_schedule: h2d rows must be empty or match executor count");
  require(params.d2h.size() == params.h2d.size(),
          "run_schedule: h2d/d2h row counts must match");
  bool any_streamed = false;
  for (std::size_t e = 0; e < params.h2d.size(); ++e) {
    const auto& hrow = params.h2d[e];
    const auto& drow = params.d2h[e];
    require(hrow.size() == drow.size(), "run_schedule: h2d/d2h column counts must match");
    require(hrow.empty() || static_cast<int>(hrow.size()) == C,
            "run_schedule: h2d rows must be empty or match chunk count");
    for (std::size_t c = 0; c < hrow.size(); ++c)
      require(hrow[c] >= 0.0 && drow[c] >= 0.0,
              "run_schedule: transfer seconds must be non-negative");
    any_streamed |= !hrow.empty();
  }
  if (any_streamed) {
    require(static_cast<int>(params.chunk_bytes.size()) == C,
            "run_schedule: chunk_bytes must match chunk count when any executor streams");
    for (const double b : params.chunk_bytes)
      require(b >= 0.0, "run_schedule: chunk_bytes must be non-negative");
  }
  require(params.arena.empty() || static_cast<int>(params.arena.size()) == E,
          "run_schedule: arena must be empty or match executor count");
  const fault::FaultPlan* plan =
      (params.faults != nullptr && !params.faults->empty()) ? params.faults : nullptr;
  if (plan != nullptr) {
    require(params.retry.max_attempts >= 1, "run_schedule: retry.max_attempts must be >= 1");
    require(params.retry.backoff_seconds >= 0.0 && params.retry.backoff_multiplier >= 1.0 &&
                params.retry.watchdog_seconds >= 0.0,
            "run_schedule: retry policy times must be non-negative");
  }

  std::vector<ExecState> state(static_cast<std::size_t>(E));
  auto st = [&](int e) -> ExecState& { return state[static_cast<std::size_t>(e)]; };
  for (int c = 0; c < C; ++c) {
    const int e = params.owner[static_cast<std::size_t>(c)];
    require(e >= 0 && e < E, "run_schedule: chunk owner out of range");
    st(e).deque.push_back(c);
  }

  ScheduleResult res;
  res.executors.resize(static_cast<std::size_t>(E));
  res.chunks.resize(static_cast<std::size_t>(C));
  auto rec = [&](int e) -> ExecutorSchedule& { return res.executors[static_cast<std::size_t>(e)]; };
  for (int e = 0; e < E; ++e) {
    ExecState& x = st(e);
    if (e < static_cast<int>(params.initial_clock.size()))
      x.clock = params.initial_clock[static_cast<std::size_t>(e)];
    x.h2d_free = x.d2h_free = rec(e).finish_seconds = x.clock;
    x.tried.assign(static_cast<std::size_t>(C), 0);
    x.gave_up.assign(static_cast<std::size_t>(C), 0);
  }
  Rng rng(params.seed);
  int left = C;

  auto estimate_of = [&](int e, int c) {
    return params.estimate[static_cast<std::size_t>(e)][static_cast<std::size_t>(c)];
  };
  auto streamed_of = [&](int e) {
    return !params.h2d.empty() && !params.h2d[static_cast<std::size_t>(e)].empty();
  };
  auto h2d_of = [&](int e, int c) {
    return params.h2d[static_cast<std::size_t>(e)][static_cast<std::size_t>(c)];
  };
  auto d2h_of = [&](int e, int c) {
    return params.d2h[static_cast<std::size_t>(e)][static_cast<std::size_t>(c)];
  };
  auto arena_of = [&](int e) {
    return params.arena.empty() ? 0.0 : params.arena[static_cast<std::size_t>(e)];
  };
  auto occupancy_of = [&](int e, int c) {
    if (params.occupancy.empty()) return 1.0;
    return params.occupancy[static_cast<std::size_t>(e)][static_cast<std::size_t>(c)];
  };
  auto streams_of = [&](int e) {
    return params.streams.empty() ? 1 : params.streams[static_cast<std::size_t>(e)];
  };
  // Pipeline slots the dispatcher may fill: the compute slots, plus one
  // prefetch slot on a streaming executor (double buffering — the extra
  // chunk stages while the others compute; compute concurrency itself stays
  // capped at streams_of below).
  auto capacity_of = [&](int e) {
    return streams_of(e) + ((params.prefetch && streamed_of(e)) ? 1 : 0);
  };
  auto remaining_load = [&](int e) {
    double load = 0.0;
    for (int c : st(e).deque) load += estimate_of(e, c);
    return load;
  };
  auto emit = [&](fault::FaultEvent ev) {
    if (on_fault) on_fault(ev);
    res.events.push_back(ev);
  };
  // Earliest time executor e can start another chunk: its dispatch clock if
  // a stream slot is free, else the first in-flight completion. With one
  // stream this is exactly the post-execution clock of the serial schedule.
  auto dispatch_ready = [&](int e) {
    const ExecState& x = st(e);
    if (static_cast<int>(x.fly.size()) < capacity_of(e)) return x.clock;
    double first_free = kInf;
    for (const InFlight& f : x.fly) first_free = std::min(first_free, f.end);
    return std::max(x.clock, first_free);
  };
  // Lowest stream index not occupied by an in-flight chunk.
  auto free_stream = [&](int e) {
    for (int s = 0;; ++s) {
      bool used = false;
      for (const InFlight& f : st(e).fly) used |= (f.stream == s);
      if (!used) return s;
    }
  };

  // Re-dispatches an orphaned chunk to the surviving executor that can
  // finish it earliest (greedy LPT over the live pool; ties go to the
  // lowest index). Executors that exhausted their retries on the chunk are
  // skipped; with nobody eligible the chunk is poisoned.
  auto redispatch = [&](int c) {
    int pick = -1;
    double pick_finish = kInf;
    for (int e = 0; e < E; ++e) {
      if (!st(e).alive || st(e).gave_up[static_cast<std::size_t>(c)]) continue;
      const double f = dispatch_ready(e) + estimate_of(e, c);
      if (f < pick_finish) {
        pick = e;
        pick_finish = f;
      }
    }
    if (pick < 0) {
      ++res.chunks_poisoned;
      --left;
      fault::FaultEvent ev;
      ev.kind = fault::FaultKind::ChunkLost;
      ev.chunk = c;
      emit(ev);
      return;
    }
    st(pick).deque.push_back(c);
    // New work exists: wake every surviving executor so idle peers get to
    // steal it (retirement is reversible until the pool drains).
    for (ExecState& x : state)
      if (x.alive) x.retired = false;
  };

  // Permanent executor loss at virtual time t_death: log it, abort every
  // chunk still in flight on the executor's streams (their numerics never
  // committed — the partial intervals are pure waste), then drain the
  // orphaned deque. Both sets re-dispatch through the LPT pass above.
  auto kill = [&](int e, double t_death) {
    ExecState& x = st(e);
    x.alive = false;
    x.retired = true;
    rec(e).lost = true;
    ++res.executors_lost;
    x.clock = std::max(x.clock, t_death);
    fault::FaultEvent ev;
    ev.kind = fault::FaultKind::ExecutorLoss;
    ev.exec = e;
    ev.start = t_death;
    emit(ev);
    std::vector<InFlight> doomed;
    doomed.swap(x.fly);
    std::deque<int> orphans;
    orphans.swap(x.deque);
    for (const InFlight& f : doomed) {
      fault::FaultEvent iv;
      iv.kind = fault::FaultKind::InFlightLost;
      iv.exec = e;
      iv.chunk = f.chunk;
      iv.attempt = f.attempt;
      iv.stream = f.stream;
      // A streamed chunk starts burning time at its H2D start — the staging
      // already done when the executor died is waste too.
      const double t_begin = f.streamed ? f.h2d_start : f.start;
      iv.start = t_begin;
      iv.waste_seconds = std::max(0.0, t_death - t_begin);
      rec(e).busy_seconds += iv.waste_seconds;
      rec(e).finish_seconds = std::max(rec(e).finish_seconds, t_death);
      if (iv.waste_seconds > 0.0) {
        x.busy_iv.emplace_back(t_begin, t_death);
        if (f.streamed) x.pipe_iv.emplace_back(t_begin, t_death);
      }
      emit(iv);
    }
    for (const InFlight& f : doomed) redispatch(f.chunk);
    for (int c : orphans) redispatch(c);
  };

  while (left > 0) {
    // Earliest pending commit: the in-flight chunk with the smallest end
    // time (ties: lowest executor, then dispatch order).
    int ce = -1;
    std::size_t ci = 0;
    double ct = kInf;
    for (int e = 0; e < E; ++e) {
      const auto& fl = st(e).fly;
      for (std::size_t i = 0; i < fl.size(); ++i) {
        if (fl[i].end < ct) {
          ct = fl[i].end;
          ce = e;
          ci = i;
        }
      }
    }
    // Earliest eligible dispatcher: a live, non-retired executor with a
    // free stream slot (ties: lowest index).
    int de = -1;
    double dt = kInf;
    for (int e = 0; e < E; ++e) {
      const ExecState& x = st(e);
      if (x.retired || !x.alive || static_cast<int>(x.fly.size()) >= capacity_of(e)) continue;
      if (x.clock < dt) {
        dt = x.clock;
        de = e;
      }
    }
    // Commits fire before dispatches at equal virtual time: completed work
    // frees its slot (and may trigger a scheduled death) before new work is
    // placed.
    const bool committing = ce >= 0 && ct <= dt;
    const int actor = committing ? ce : de;
    if (actor < 0) {
      // Every executor is retired or lost with work outstanding — possible
      // only when the whole pool died. Whatever is left keeps executor -1,
      // which the caller reports as lost (the deques of dead executors were
      // already drained by kill/redispatch).
      require(plan != nullptr, "run_schedule: all executors retired with work left");
      break;
    }
    ExecState& a = st(actor);
    ExecutorSchedule& out = rec(actor);
    const double t_act = committing ? ct : a.clock;

    // Scheduled death fires the moment the executor would act again —
    // before the pending commit, so every chunk still in flight aborts.
    if (plan != nullptr) {
      const int after = plan->dies_after(actor);
      if (after >= 0 && a.completed >= after) {
        kill(actor, t_act);
        continue;
      }
    }

    if (committing) {
      const InFlight f = a.fly[ci];
      a.fly.erase(a.fly.begin() + static_cast<std::ptrdiff_t>(ci));
      StreamSlot slot{f.stream, f.start, f.rate};
      if (f.streamed) {
        slot.h2d_start = f.h2d_start;
        slot.h2d_seconds = f.h2d_end - f.h2d_start;
        slot.d2h_start = f.d2h_start;
        slot.d2h_seconds = f.d2h_end - f.d2h_start;
        slot.bytes = f.bytes;
        slot.chunk = f.chunk;
      }
      execute(actor, f.chunk, slot);
      a.clock = std::max(a.clock, f.end);
      out.busy_seconds += f.dur;
      out.finish_seconds = std::max(out.finish_seconds, f.end);
      out.chunks += 1;
      if (f.stolen) out.stolen += 1;
      ChunkSchedule& done = res.chunks[static_cast<std::size_t>(f.chunk)];
      done.executor = actor;
      a.completed += 1;
      if (f.streamed) {
        // Busy/occupied track compute only; the staging ledger and the
        // pipeline span carry the transfers.
        a.busy_iv.emplace_back(f.start, f.start + f.dur);
        a.pipe_iv.emplace_back(f.h2d_start, f.end);
        out.h2d_seconds += f.h2d_end - f.h2d_start;
        out.d2h_seconds += f.d2h_end - f.d2h_start;
        out.h2d_bytes += f.bytes;
        out.d2h_bytes += f.bytes;
        done.h2d_start = f.h2d_start;
        done.h2d_end = f.h2d_end;
        done.d2h_start = f.d2h_start;
        done.d2h_end = f.d2h_end;
      } else {
        a.busy_iv.emplace_back(f.start, f.end);
        a.pipe_iv.emplace_back(f.start, f.end);
      }
      --left;
      continue;
    }

    auto& own = a.deque;
    int chunk = -1;
    bool stolen = false;
    if (!own.empty()) {
      chunk = own.front();
      own.pop_front();
    } else if (params.work_stealing) {
      // Victim: non-empty peers whose back chunk this actor has not given
      // up on, ranked by policy; ties broken by the seeded stream so the
      // steal order is reproducible.
      std::vector<int> victims;
      for (int e = 0; e < E; ++e) {
        if (e == actor) continue;
        const auto& v = st(e).deque;
        if (v.empty() || a.gave_up[static_cast<std::size_t>(v.back())]) continue;
        victims.push_back(e);
      }
      if (!victims.empty()) {
        int victim;
        if (params.steal == StealPolicy::Random) {
          victim = victims[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(victims.size()) - 1))];
        } else {
          double best = -1.0;
          std::vector<int> tied;
          for (int e : victims) {
            const double load = remaining_load(e);
            if (load > best) {
              best = load;
              tied.assign(1, e);
            } else if (load == best) {
              tied.push_back(e);
            }
          }
          victim = tied.size() == 1
                       ? tied[0]
                       : tied[static_cast<std::size_t>(
                             rng.uniform_int(0, static_cast<std::int64_t>(tied.size()) - 1))];
        }
        auto& v = st(victim).deque;
        chunk = v.back();
        v.pop_back();
        stolen = true;
      }
    }

    if (chunk < 0) {
      // Nothing owned, nothing stealable: this executor is idle for now
      // (re-dispatched orphans may wake it up again; chunks already in
      // flight on its streams still commit).
      a.retired = true;
      continue;
    }

    const int attempt = ++a.tried[static_cast<std::size_t>(chunk)];
    ++res.chunks[static_cast<std::size_t>(chunk)].attempts;
    const fault::FaultKind outcome =
        plan != nullptr ? plan->attempt_outcome(actor, chunk, attempt) : fault::FaultKind::None;

    if (outcome == fault::FaultKind::None) {
      const auto& fl = a.fly;
      const double occ = occupancy_of(actor, chunk);
      InFlight f;
      f.chunk = chunk;
      f.stream = free_stream(actor);
      f.attempt = attempt;
      f.stolen = stolen;
      f.occ = occ;
      if (!streamed_of(actor)) {
        // Resident dispatch (the classic schedule, kept bitwise intact).
        // Reserve a stream slot. The chunk contends with the occupancy the
        // chunks already in flight left behind: with free share s it runs
        // at rate min(1, s / occ) — an empty device always yields rate
        // exactly 1.0, which keeps single-stream durations bitwise equal to
        // the estimates. The rate is fixed at dispatch (later arrivals
        // yield instead of re-timing earlier chunks), keeping the event
        // loop causal and deterministic.
        double used = 0.0;
        for (const InFlight& g : fl) used += g.occ;
        const double share =
            std::max(1.0 - used, 1.0 / (static_cast<double>(fl.size()) + 1.0));
        f.rate = occ <= share ? 1.0 : share / occ;
        f.start = a.clock;
        f.dur = estimate_of(actor, chunk) / f.rate;
        f.end = f.start + f.dur;
      } else {
        // Out-of-core dispatch: the whole trajectory is fixed now, from the
        // per-direction lane clocks and the arena admission — deterministic
        // because every in-flight release time is already known.
        f.streamed = true;
        f.bytes = params.chunk_bytes[static_cast<std::size_t>(chunk)];
        const double h2d_sec = h2d_of(actor, chunk);
        const double d2h_sec = d2h_of(actor, chunk);
        // Arena admission: H2D may begin once the lane is free AND the
        // in-flight resident bytes leave room. In-flight chunks hold their
        // bytes until their D2H completes; walk the release times forward
        // until the chunk fits. Earlier chunks' H2D starts are all <= this
        // one's (the lane serializes), so the resident set at time t is
        // exactly the in-flight chunks with d2h_end > t.
        double t = std::max(a.clock, a.h2d_free);
        const double budget = arena_of(actor);
        if (budget > 0.0) {
          std::vector<std::pair<double, double>> releases;  // (d2h_end, bytes)
          double resident = 0.0;
          for (const InFlight& g : fl) {
            if (!g.streamed || g.d2h_end <= t) continue;
            resident += g.bytes;
            releases.emplace_back(g.d2h_end, g.bytes);
          }
          std::sort(releases.begin(), releases.end());
          std::size_t r = 0;
          while (resident + f.bytes > budget && r < releases.size()) {
            t = std::max(t, releases[r].first);
            resident -= releases[r].second;
            ++r;
          }
          require(resident + f.bytes <= budget,
                  "run_schedule: a single chunk's footprint exceeds the staging arena "
                  "(raise the arena budget or chunks_per_executor)");
        }
        f.h2d_start = t;
        f.h2d_end = t + h2d_sec;
        a.h2d_free = f.h2d_end;
        // Compute waits for the copy and for one of the streams_of compute
        // slots — the prefetch slot stages, it never computes early.
        double avail = f.h2d_end;
        const int k = streams_of(actor);
        if (static_cast<int>(fl.size()) >= k) {
          std::vector<double> ends;
          ends.reserve(fl.size());
          for (const InFlight& g : fl) ends.push_back(g.start + g.dur);
          std::sort(ends.begin(), ends.end());
          avail = std::max(avail, ends[fl.size() - static_cast<std::size_t>(k)]);
        }
        f.start = avail;
        // Contention counts only the chunks still computing when this one
        // starts (the pipeline's staging phases don't occupy device slots).
        double used = 0.0;
        std::size_t computing = 0;
        for (const InFlight& g : fl) {
          if (g.start + g.dur <= avail) continue;
          used += g.occ;
          ++computing;
        }
        const double share =
            std::max(1.0 - used, 1.0 / (static_cast<double>(computing) + 1.0));
        f.rate = occ <= share ? 1.0 : share / occ;
        f.dur = estimate_of(actor, chunk) / f.rate;
        f.d2h_start = std::max(f.start + f.dur, a.d2h_free);
        f.d2h_end = f.d2h_start + d2h_sec;
        a.d2h_free = f.d2h_end;
        f.end = f.d2h_end;
      }
      a.fly.push_back(f);
      out.max_in_flight = std::max(out.max_in_flight, static_cast<int>(a.fly.size()));
      continue;
    }

    fault::FaultEvent ev;
    ev.exec = actor;
    ev.chunk = chunk;
    ev.attempt = attempt;
    ev.stream = free_stream(actor);
    ev.start = a.clock;
    if (outcome == fault::FaultKind::Hang) {
      // The attempt never completes; the watchdog declares the executor
      // lost after its virtual-time budget. The launch never commits, so
      // the chunk's matrices are untouched and it re-dispatches cleanly.
      ev.kind = fault::FaultKind::Hang;
      ev.waste_seconds = params.retry.watchdog_seconds;
      a.clock += ev.waste_seconds;
      out.busy_seconds += ev.waste_seconds;
      out.finish_seconds = std::max(out.finish_seconds, a.clock);
      if (ev.waste_seconds > 0.0) a.busy_iv.emplace_back(ev.start, ev.start + ev.waste_seconds);
      ++res.hangs;
      emit(ev);
      kill(actor, a.clock);
      redispatch(chunk);
      continue;
    }

    // Transient (simulated ECC / launch failure): the attempt's modelled
    // time is wasted, a deterministic exponential backoff precedes the
    // retry. The work never commits — numerics run only on success. The
    // wasted attempt serializes on the dispatch clock (the slot never
    // carried a live chunk); in-flight peers keep running. On a streaming
    // executor the staging is wasted too: the retry re-stages the chunk
    // from the pristine host input, so the faulted attempt charges its
    // transfers alongside the compute.
    ev.kind = fault::FaultKind::Transient;
    ev.waste_seconds = estimate_of(actor, chunk);
    if (streamed_of(actor)) {
      ev.waste_seconds += h2d_of(actor, chunk) + d2h_of(actor, chunk);
    }
    ev.backoff_seconds =
        params.retry.backoff_seconds *
        std::pow(params.retry.backoff_multiplier, static_cast<double>(attempt - 1));
    a.clock += ev.waste_seconds + ev.backoff_seconds;
    out.busy_seconds += ev.waste_seconds;
    out.finish_seconds = std::max(out.finish_seconds, a.clock);
    if (ev.waste_seconds > 0.0) a.busy_iv.emplace_back(ev.start, ev.start + ev.waste_seconds);
    out.retries += 1;
    ++res.retries_total;
    res.backoff_seconds += ev.backoff_seconds;
    if (streamed_of(actor)) {
      // The failed attempt held both DMA lanes; they free with the clock.
      a.h2d_free = std::max(a.h2d_free, a.clock);
      a.d2h_free = std::max(a.d2h_free, a.clock);
      a.pipe_iv.emplace_back(ev.start, ev.start + ev.waste_seconds);
    }
    emit(ev);
    if (attempt >= params.retry.max_attempts) {
      // This executor gives the chunk up; a surviving peer inherits it.
      a.gave_up[static_cast<std::size_t>(chunk)] = 1;
      redispatch(chunk);
    } else {
      // Retry next time this executor acts (its clock already carries the
      // wasted attempt plus the backoff). Peers may steal it first.
      own.push_front(chunk);
    }
  }

  for (int e = 0; e < E; ++e) {
    ExecutorSchedule& r = rec(e);
    r.streams = streams_of(e);
    r.streamed = streamed_of(e);
    r.occupied_seconds = union_seconds(st(e).busy_iv);
    r.overlap = r.occupied_seconds > 0.0 ? r.busy_seconds / r.occupied_seconds : 1.0;
    r.pipeline_seconds = union_seconds(st(e).pipe_iv);
    res.makespan = std::max(res.makespan, r.finish_seconds);
  }
  return res;
}

}  // namespace vbatch::hetero
