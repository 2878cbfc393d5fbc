#include "vbatch/util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "vbatch/util/error.hpp"
#include "vbatch/util/payload.hpp"
#include "vbatch/util/types.hpp"

namespace vbatch {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

// splitmix64 seeds the xoshiro state from a single 64-bit value.
constexpr std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 random mantissa bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next() % range);
}

double Rng::gaussian() noexcept {
  if (have_spare_) {
    have_spare_ = false;
    return spare_;
  }
  // Box–Muller; reject u1 == 0 to keep log finite.
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  spare_ = r * std::sin(theta);
  have_spare_ = true;
  return r * std::cos(theta);
}

double Rng::gaussian(double mean, double stddev) noexcept {
  return mean + stddev * gaussian();
}

namespace {
// One call of payload rule v2 (util/payload.hpp): one key from the stream,
// its words for the real part and splitmix64(key)'s for the imaginary part.
template <typename T>
void fill_payload(Rng& rng, T* a, bool spd, std::int64_t m, std::int64_t n, std::int64_t ld) {
  using R = real_t<T>;
  const std::uint64_t key = rng.next();
  std::uint64_t state = key;
  const std::uint64_t im = splitmix64(state);
  auto lo = [](std::uint64_t w) { return static_cast<std::uint32_t>(w); };
  auto hi = [](std::uint64_t w) { return static_cast<std::uint32_t>(w >> 32); };
  const detail::PayloadCall call{spd, lo(key), hi(key), lo(im), hi(im), m, n, ld};
  const detail::PayloadFns<R> fns = detail::active_payload_kernels().of<R>();
  (is_complex_v<T> ? fns.cplx : fns.real)(call, reinterpret_cast<R*>(a));
}
}  // namespace

template <typename T>
void fill_spd(Rng& rng, T* a, std::int64_t n, std::int64_t ld) {
  require(n >= 0 && ld >= std::max<std::int64_t>(1, n), "fill_spd: need n >= 0, ld >= max(1, n)");
  fill_payload(rng, a, true, n, n, ld);
}

template <typename T>
void fill_general(Rng& rng, T* a, std::int64_t m, std::int64_t n, std::int64_t ld) {
  require(m >= 0 && n >= 0 && ld >= std::max<std::int64_t>(1, m),
          "fill_general: need m, n >= 0, ld >= max(1, m)");
  fill_payload(rng, a, false, m, n, ld);
}

template void fill_spd<float>(Rng&, float*, std::int64_t, std::int64_t);
template void fill_spd<double>(Rng&, double*, std::int64_t, std::int64_t);
template void fill_general<float>(Rng&, float*, std::int64_t, std::int64_t, std::int64_t);
template void fill_general<double>(Rng&, double*, std::int64_t, std::int64_t, std::int64_t);
template void fill_spd<std::complex<float>>(Rng&, std::complex<float>*, std::int64_t,
                                            std::int64_t);
template void fill_spd<std::complex<double>>(Rng&, std::complex<double>*, std::int64_t,
                                             std::int64_t);
template void fill_general<std::complex<float>>(Rng&, std::complex<float>*, std::int64_t,
                                                std::int64_t, std::int64_t);
template void fill_general<std::complex<double>>(Rng&, std::complex<double>*, std::int64_t,
                                                 std::int64_t, std::int64_t);

}  // namespace vbatch
