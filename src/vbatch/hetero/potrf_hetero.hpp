// Heterogeneous vbatched Cholesky: one variable-size batch split across a
// DevicePool of CPU and simulated-GPU executors.
//
// The paper targets "heterogeneous parallel architectures"; this entry
// point is the reproduction's answer for multi-device nodes. The batch is
// size-sorted, cut into nb-aligned chunks, statically partitioned by the
// executors' own cost estimates, then dynamically rebalanced by a
// deterministic work-stealing scheduler over the pool's virtual clocks
// (see partition.hpp / scheduler.hpp).
//
// Numerics guarantee: the options (path, blocking sizes) are resolved ONCE
// from the global maximum against a reference device — by the same
// detail::plan_potrf a single device calls — and pinned for every chunk,
// and each matrix's factorization depends only on its own data and those
// pinned options — so the factors and info array are bit-identical to the
// single-device path and invariant under every partition policy, steal
// schedule, and pool composition. Only the modelled time and energy
// change; that is the point.
//
// Both §III-A interfaces are provided: potrf_vbatched_hetero computes the
// global maximum with a device reduction (on executor 0, whose clock pays
// the sweep), potrf_vbatched_hetero_max takes it from the caller.
//
// Driver structure: this front is the potrf-specific half — the shared
// plan (argument sweep, path and blocking), the gather into size-sorted
// arrays, one ChunkWork per chunk (the plan's driver as a dry-run closure,
// keyed for the executors' estimate memos), the call's one numerics pass
// over the committed chunks, and the info scatter. run_chunked
// (run_chunked.hpp) is the type-independent half: estimation, staging,
// partition, fault plan, schedule and report.
//
// Self-healing: when the pool carries a fault spec (DevicePool::set_faults,
// CLI --inject-faults, or VBATCH_INJECT_FAULTS read when the pool was
// built), the schedule runs under the deterministic recovery loop of
// scheduler.hpp — bounded retries with virtual-time backoff, LPT
// re-dispatch of chunks orphaned by executor loss, a watchdog converting
// hangs into loss. As
// long as one executor survives, the factors and info stay bit-identical
// to the fault-free run (numerics run once, after the schedule, on the
// completed chunks only); unrecoverable chunks are never computed and
// poison their problems' info with kInfoChunkLost instead of throwing.
// See docs/robustness.md.
#pragma once

#include <span>
#include <string>

#include "vbatch/hetero/run_chunked.hpp"

namespace vbatch::hetero {

/// LAPACK-like interface: the global maximum is computed with a device
/// reduction on executor 0 (its clock pays the metadata sweep, mirroring
/// the single-device potrf_vbatched).
template <typename T>
HeteroResult potrf_vbatched_hetero(DevicePool& pool, Uplo uplo, Batch<T>& batch,
                                   const HeteroOptions& opts = {});

/// Expert interface: the caller supplies max_n (must dominate every size).
template <typename T>
HeteroResult potrf_vbatched_hetero_max(DevicePool& pool, Uplo uplo, Batch<T>& batch, int max_n,
                                       const HeteroOptions& opts = {});

/// The estimate-memo key (ChunkWork::key) of a potrf chunk whose sorted
/// orders are `n` and whose driver runs with `max_n`: the plan's path and
/// blocking, uplo, the scalar type, max_n, the PotrfOptions fields the
/// drivers read (etm, implicit_sorting, sort_window, streamed_syrk,
/// num_streams) and the orders themselves. Pointers and leading dimensions
/// are left out: a dry run reads neither. Exposed for the memo tests.
template <typename T>
[[nodiscard]] std::string potrf_chunk_key(const detail::PotrfPlan& plan, Uplo uplo,
                                          const PotrfOptions& opts, int max_n,
                                          std::span<const int> n);

}  // namespace vbatch::hetero
