// Edge-case values planted into Cholesky inputs, shared by the fused and
// separated bit-identity suites: NaN, ±Inf and denormals in the referenced
// triangle, NaN in the unreferenced one, and a non-positive pivot.
#pragma once

#include <limits>

#include "vbatch/util/matrix_view.hpp"
#include "vbatch/util/types.hpp"

namespace vbatch::testing {

/// What to plant in a matrix before factoring it.
enum class Poison { None, NanRef, PosInfRef, NegInfRef, DenormalRef, NanUnref, NotSpd };
inline constexpr Poison kPoisons[] = {Poison::NanRef,      Poison::PosInfRef, Poison::NegInfRef,
                                      Poison::DenormalRef, Poison::NanUnref,  Poison::NotSpd};

/// Plants `p` in the n×n matrix `a` (`uplo` names the referenced triangle),
/// at a spot chosen by `salt`: column c = salt mod n (also the diagonal a
/// denormal or non-positive pivot lands on) and a row r ≥ c.
template <typename T>
void plant(Poison p, MatrixView<T> a, Uplo uplo, index_t salt) {
  const index_t n = a.rows();
  if (n == 0 || p == Poison::None) return;
  const index_t c = salt % n;                  // a column (and diagonal) index
  const index_t r = c + (salt / n) % (n - c);  // a row, r >= c
  auto ref = [&](index_t i, index_t j) -> T& { return uplo == Uplo::Lower ? a(i, j) : a(j, i); };
  switch (p) {
    case Poison::NanRef: ref(r, c) = std::numeric_limits<T>::quiet_NaN(); break;
    case Poison::PosInfRef: ref(r, c) = std::numeric_limits<T>::infinity(); break;
    case Poison::NegInfRef: ref(r, c) = -std::numeric_limits<T>::infinity(); break;
    case Poison::DenormalRef:
      ref(r, c) = std::numeric_limits<T>::denorm_min() * T(3);
      ref(c, c) = std::numeric_limits<T>::min() / T(4);  // a denormal pivot too
      break;
    case Poison::NanUnref:
      if (n > 1) ref(0, n - 1) = std::numeric_limits<T>::quiet_NaN();  // (0, n-1): unreferenced
      break;
    case Poison::NotSpd: ref(c, c) = T(-1); break;
    case Poison::None: break;
  }
}

}  // namespace vbatch::testing
