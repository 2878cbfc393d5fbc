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
// from the global maximum against a reference device and pinned for every
// chunk, and each matrix's factorization depends only on its own data and
// those pinned options — so the factors and info array are bit-identical
// to the single-device path and invariant under every partition policy,
// steal schedule, and pool composition. Only the modelled time and energy
// change; that is the point.
//
// Both §III-A interfaces are provided: potrf_vbatched_hetero computes the
// global maximum with a device reduction (on executor 0, whose clock pays
// the sweep), potrf_vbatched_hetero_max takes it from the caller.
//
// Driver structure: this front is the potrf-specific half — the argument
// sweep, option pinning, the gather into chunk-local arrays, one ChunkWork
// closure per chunk, and the info scatter. run_chunked (run_chunked.hpp)
// is the type-independent half: estimation, staging, partition, fault
// plan, schedule and report.
//
// Self-healing: when the pool carries a fault spec (DevicePool::set_faults,
// CLI --inject-faults, or VBATCH_INJECT_FAULTS read when the pool was
// built), the schedule runs under the deterministic recovery loop of
// scheduler.hpp — bounded retries with virtual-time backoff, LPT
// re-dispatch of chunks orphaned by executor loss, a watchdog converting
// hangs into loss. As
// long as one executor survives, the factors and info stay bit-identical
// to the fault-free run (numerics only ever run on the one successful
// attempt); unrecoverable chunks poison their problems' info with
// kInfoChunkLost instead of throwing. See docs/robustness.md.
#pragma once

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

}  // namespace vbatch::hetero
