// vbatched Householder QR — the second announced extension (§V), following
// the block-reflector scheme of the batched QR in Haidar et al. [14].
// Factors any rectangular batch; the solves take m_i ≥ n_i (the
// multifrontal sparse-QR use case of the paper's introduction).
#pragma once

#include <span>

#include "vbatch/core/batch.hpp"
#include "vbatch/core/getrf_vbatched.hpp"  // FactorResult
#include "vbatch/core/queue.hpp"

namespace vbatch {

/// Per-matrix tau (reflector scalar) arrays: TauArrays<T>(q, mn) carves mn_i
/// scalars for matrix i from one arena slab; item(i) is matrix i's taus.
template <typename T>
using TauArrays = SlabArrays<T>;

struct GeqrfOptions {
  int panel_nb = 32;
};

/// Factors every m_i × n_i matrix as A = Q·R (min(m_i, n_i) reflectors
/// stored below the diagonal, scalars in `tau`): the bits of
/// blas::geqrf(A_i, tau_i, panel_nb).
template <typename T>
FactorResult geqrf_vbatched(Queue& q, RectBatch<T>& batch, TauArrays<T>& tau,
                            const GeqrfOptions& opts = {});

/// Applies Q_iᵀ (from geqrf_vbatched factors) to every C_i (m_i × nrhs_i):
/// the Left/Trans case of xORMQR, which is what least-squares solves need.
template <typename T>
FactorResult ormqr_vbatched(Queue& q, RectBatch<T>& factors, const TauArrays<T>& tau,
                            RectBatch<T>& c);

/// Batched least squares (xGELS-style, m_i ≥ n_i, full rank): overwrites
/// the top n_i rows of each rhs with argmin‖A_i·x − b_i‖₂, using the QR
/// factors: x = R⁻¹ · (Qᵀ b)₁.
template <typename T>
FactorResult geqrs_vbatched(Queue& q, RectBatch<T>& factors, const TauArrays<T>& tau,
                            RectBatch<T>& rhs);

}  // namespace vbatch
