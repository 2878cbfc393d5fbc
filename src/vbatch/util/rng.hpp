// Deterministic pseudo-random number generation.
//
// The paper's test batches are generated from two PRNG-driven size
// distributions (§IV-B). Determinism matters for the simulator's replay
// guarantees, so the library carries its own small xoshiro256** engine
// instead of relying on implementation-defined std::random distributions.
#pragma once

#include <cstdint>

namespace vbatch {

/// xoshiro256** 1.0 — small, fast, high-quality, fully deterministic across
/// platforms (std::mt19937 is deterministic too, but std distributions are
/// not specified bit-exactly; we implement our own).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept;

  /// Next raw 64-bit value.
  std::uint64_t next() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal via Box–Muller (deterministic, stateless pairing).
  double gaussian() noexcept;

  /// Normal with the given mean / standard deviation.
  double gaussian(double mean, double stddev) noexcept;

 private:
  std::uint64_t s_[4];
  bool have_spare_ = false;
  double spare_ = 0.0;
};

/// Payload rule v2 (util/payload.hpp). Each call draws exactly one key from
/// `rng`, and every entry is a hash of (key, row, column) converted exactly
/// to a real, so the bits are a pure function of the key and the position:
/// the same under every ISA and leading dimension. Only the first rows of
/// each column are written; pad rows up to `ld` keep their contents. Both
/// throw Status::InvalidArgument on a negative extent or `ld < max(1, rows)`.

/// Fills a column-major n×n buffer (leading dimension ld) with a random
/// symmetric (Hermitian) positive definite matrix. Entry (i, j) hashes the
/// unordered pair {i, j}, so the matrix is symmetric by construction: real
/// parts in [0, 1), imaginary parts in [-1/2, 1/2) mirrored with conj, and
/// a real diagonal boosted by +n (strict diagonal dominance for real T).
template <typename T>
void fill_spd(Rng& rng, T* a, std::int64_t n, std::int64_t ld);

/// Fills a column-major m×n buffer with values in [-1, 1) (real and
/// imaginary parts), entry (i, j) hashing the ordered pair.
template <typename T>
void fill_general(Rng& rng, T* a, std::int64_t m, std::int64_t n, std::int64_t ld);

}  // namespace vbatch
