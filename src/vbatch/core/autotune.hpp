// Offline autotuning for the vbatched Cholesky (paper §III-D: "We autotuned
// this kernel for all the possible sizes"; cf. Kurzak et al.'s tuning
// framework for batched Cholesky).
//
// The tuner sweeps candidate configurations — algorithmic path, fused
// blocking size, sorting window, streamed-vs-vbatched trailing update — on
// a (sub)sample of the target batch in TimingOnly mode, and returns the
// best configuration as ready-to-use PotrfOptions. Because the device model
// is deterministic, one sweep at "packaging and deployment at the user
// site" (paper §III) fixes the configuration for a workload class.
// PR 6 extends the tuner to the host BLAS layer: CacheInfo probes the
// machine's cache hierarchy (sysfs, with conservative fallbacks), candidate
// register tiles and KC/MC/NC blocking depths are derived per precision from
// the Goto residency constraints, the shortlist is microbenchmarked through
// the packed engine, and the winning TuningProfile is persisted to
// ~/.cache/vbatch (VBATCH_TUNING_FILE overrides) so later runs load it
// instead of re-sweeping. See ensure_blas_tuned().
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "vbatch/blas/tuning.hpp"
#include "vbatch/core/potrf_vbatched.hpp"

namespace vbatch {

struct TuneCandidate {
  PotrfOptions options;
  double gflops = 0.0;
  bool feasible = true;
  [[nodiscard]] std::string describe() const;
};

struct TuneResult {
  PotrfOptions best;                    ///< ready to pass to potrf_vbatched
  double best_gflops = 0.0;
  std::vector<TuneCandidate> candidates;  ///< the whole sweep, for inspection
};

struct TuneSettings {
  int max_sample = 512;   ///< cap on the metadata sample driving the sweep
};

/// Tunes the configuration for factoring batches shaped like `sizes` on
/// the queue's device. Runs entirely in TimingOnly mode on an internal
/// device clone; the caller's queue is not touched.
template <typename T>
TuneResult autotune_potrf(const Queue& q, std::span<const int> sizes,
                          const TuneSettings& settings = {});

/// Host cache hierarchy, in bytes per core (L3 shared). detect() reads
/// /sys/devices/system/cpu/cpu0/cache on Linux and falls back to
/// conservative defaults (32K/512K/8M) when sysfs is absent — fallback
/// values steer the blocking derivation safely on any machine.
struct CacheInfo {
  std::size_t l1d = 32 * 1024;
  std::size_t l2 = 512 * 1024;
  std::size_t l3 = 8 * 1024 * 1024;
  bool detected = false;  ///< true when at least L1d came from the OS
  [[nodiscard]] static CacheInfo detect();
};

/// One measured candidate of the BLAS sweep, kept for inspection.
struct BlasTuneCandidate {
  int type = 0;  ///< scalar-type index: float, double, cfloat, cdouble
  blas::micro::KernelShape shape;
  double gflops = 0.0;
};

struct BlasTuneSettings {
  index_t bench_n = 192;  ///< NT-gemm order of the microbenchmark
  int reps = 3;           ///< best-of reps per candidate
  bool use_cache_file = true;  ///< load a persisted profile / save the winner
  std::string cache_path;      ///< override; empty = blas::micro::tuning_cache_path
  bool verbose = false;        ///< log every candidate to stderr
};

struct BlasTuneResult {
  blas::micro::TuningProfile profile;  ///< the installed profile
  bool loaded_from_cache = false;      ///< true: no sweep ran this process
  std::string cache_path;              ///< file consulted / written
  CacheInfo cache;                     ///< hierarchy the derivation used
  int candidates_swept = 0;            ///< 0 when loaded_from_cache
  std::vector<BlasTuneCandidate> candidates;
};

/// Ensures the process's micro-kernel TuningProfile is tuned for this host
/// and the active ISA: loads the persisted profile when a valid one exists
/// (rejecting corrupted files and stale format versions with a re-tune),
/// otherwise derives tile/blocking candidates from the cache hierarchy,
/// microbenchmarks the shortlist, installs the winner and persists it.
/// Every blocking decision downstream is a pure function of the installed
/// profile, so a reloaded profile reproduces the tuned run's factors byte
/// for byte.
BlasTuneResult ensure_blas_tuned(const BlasTuneSettings& settings = {});

}  // namespace vbatch
