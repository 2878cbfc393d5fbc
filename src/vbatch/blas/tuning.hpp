// Runtime tuning profile for the micro-kernel engine.
//
// PR 2 pinned the register tile (MR×NR) and the cache blocking depths
// (KC/MC/NC) as `constexpr` guesses per precision. This header turns them
// into a runtime-resolved `TuningProfile`: one `KernelShape` per scalar
// type, resolved once per process (defaults derived from the active ISA,
// or a profile the cache-hierarchy autotuner in core/autotune measured) and
// threaded through gemm/syrk/trsm/trmm packing and dispatch.
//
// Profiles persist to a small versioned JSON file —
// `~/.cache/vbatch/tuning-<host>-<isa>.json` by default,
// `VBATCH_TUNING_FILE` overrides — so one autotune sweep per (host, ISA)
// serves every later run: load_tuning_profile() rejects corrupted files and
// stale format versions (the caller then re-tunes), and a loaded profile
// reproduces the tuned run's factors byte for byte because every blocking
// decision the engine makes is a pure function of (ISA, profile, shape).
#pragma once

#include <optional>
#include <string>

#include "vbatch/blas/isa.hpp"
#include "vbatch/util/matrix_view.hpp"
#include "vbatch/util/types.hpp"

namespace vbatch::blas::micro {

/// On-disk format version; bump when the JSON schema or the meaning of a
/// field changes so stale caches re-tune instead of mis-steering the engine.
inline constexpr int kTuningFormatVersion = 2;

/// Hard bounds on the register tile (the widest compiled tile is the
/// AVX-512 float 48×8); write-back scratch buffers are sized from these.
inline constexpr int kMaxMR = 48;
inline constexpr int kMaxNR = 8;

/// Blocking decisions for one scalar type. MR×NR is the register tile,
/// KC/MC/NC the cache blocking depths, and min_m/min_mnk the `use_blocked`
/// crossover: the packed engine runs when m ≥ min_m, n ≥ 4, k ≥ 8 and
/// m·n·k ≥ min_mnk.
struct KernelShape {
  int mr = 4, nr = 4;
  index_t kc = 256, mc = 128, nc = 256;
  index_t min_m = 4;
  double min_mnk = 4096.0;
  bool operator==(const KernelShape&) const = default;
};

/// A full profile: one shape per scalar type, tagged with the ISA it was
/// derived for (a profile is only loadable under the same ISA).
struct TuningProfile {
  Isa isa = Isa::Scalar;
  KernelShape shapes[4];  ///< indexed by float, double, cfloat, cdouble
  bool operator==(const TuningProfile&) const = default;

  /// Analytic defaults per ISA. `defaults(Isa::Scalar)` holds the original
  /// engine's compile-time blocking constants (and their crossover) — the
  /// scalar bit-compatibility anchor: the scalar tile accumulates in the
  /// original order, so `VBATCH_ISA=scalar` reproduces historical results
  /// bit for bit. Vector ISAs default to wider MR tiles.
  [[nodiscard]] static TuningProfile defaults(Isa isa) noexcept;
};

/// The shape the engine currently uses for scalar type T.
template <typename T>
[[nodiscard]] const KernelShape& shape_of(const TuningProfile& p) noexcept;

/// Process-wide active profile. Lazily initialized to
/// defaults(active_isa()) on first use.
[[nodiscard]] const TuningProfile& active_profile() noexcept;

/// Installs a profile (validated; throws vbatch::Error on out-of-range
/// fields or an ISA the host cannot execute). Like set_dispatch, not meant
/// to be called while kernels are in flight on the worker pool.
void set_tuning_profile(const TuningProfile& p);

/// Restores defaults(active_isa()).
void reset_tuning_profile() noexcept;

/// RAII guard pinning a profile for a scope (tests/benches/tuner sweeps).
class ProfileGuard {
 public:
  explicit ProfileGuard(const TuningProfile& p) : prev_(active_profile()) {
    set_tuning_profile(p);
  }
  ~ProfileGuard() { set_tuning_profile(prev_); }
  ProfileGuard(const ProfileGuard&) = delete;
  ProfileGuard& operator=(const ProfileGuard&) = delete;

 private:
  TuningProfile prev_;
};

/// Structural validation (tile bounds, blocking depths, crossover sanity).
/// Returns false and fills `why` (if given) on the first violation.
[[nodiscard]] bool validate_profile(const TuningProfile& p, std::string* why = nullptr);

/// Default on-disk location: $VBATCH_TUNING_FILE if set, else
/// $XDG_CACHE_HOME|$HOME/.cache + /vbatch/tuning-<host>-<isa>.json.
[[nodiscard]] std::string tuning_cache_path(Isa isa);

/// Serializes `p` (creating parent directories). False + `err` on I/O
/// failure; never throws.
bool save_tuning_profile(const TuningProfile& p, const std::string& path,
                         std::string* err = nullptr);

/// Parses and validates a persisted profile. std::nullopt (with a reason in
/// `why`) for a missing file, malformed JSON, a stale format version, an
/// unknown ISA, or out-of-range fields — the caller decides to re-tune.
[[nodiscard]] std::optional<TuningProfile> load_tuning_profile(const std::string& path,
                                                               std::string* why = nullptr);

/// Wall-clock Gflop/s of an NT-gemm (m = n = k = n) run through the packed
/// engine with an explicit shape under the active ISA; the autotuner's
/// measurement primitive. Best-of-`reps` timing on freshly filled operands.
template <typename T>
[[nodiscard]] double benchmark_shape(const KernelShape& shape, index_t n, int reps);

}  // namespace vbatch::blas::micro
