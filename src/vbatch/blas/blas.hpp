// Host reference BLAS/LAPACK kernels (templated on float/double).
//
// These are straightforward, cache-friendly reference implementations; they
// serve three roles in the reproduction:
//   1. the numerical payload executed by the simulated device kernels
//      (vbatch/kernels) — the simulator models *time*, the math is real;
//   2. the CPU baselines of §IV-F (through vbatch/cpu/cpu_batched);
//   3. the oracle used by the test suite.
//
// All matrices are column-major MatrixView<T>; `info`-style return codes
// follow LAPACK conventions (0 = success, i > 0 = numerical breakdown at
// the i-th step, matching xPOTRF/xGETRF semantics).
#pragma once

#include <span>

#include "vbatch/util/matrix_view.hpp"
#include "vbatch/util/types.hpp"

namespace vbatch::blas {

// ---------------------------------------------------------------------------
// Level-3 BLAS
// ---------------------------------------------------------------------------

/// C = alpha * op(A) * op(B) + beta * C.
/// op(A) is m×k, op(B) is k×n, C is m×n; dimensions are validated.
/// Above a small-size cutoff the work runs through the packed register-tiled
/// engine in microkernel.hpp; below it (or under Dispatch::ForceRef) the
/// reference loops of gemm_ref are used.
template <typename T>
void gemm(Trans trans_a, Trans trans_b, T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b,
          T beta, MatrixView<T> c);

/// Reference (unblocked) gemm: the oracle the conformance suite compares the
/// micro-kernel engine against. Same semantics as gemm, element-at-a-time.
template <typename T>
void gemm_ref(Trans trans_a, Trans trans_b, T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b,
              T beta, MatrixView<T> c);

/// C = alpha * op(A) * op(A)ᵀ + beta * C, updating only the `uplo` triangle
/// of the n×n matrix C. op(A) is n×k. For complex scalars this is herk
/// (op(A)·op(A)ᴴ) and the diagonal is kept exactly real. Large triangles
/// run on the micro-kernel engine (micro::syrk_blocked). With alpha = 0 or
/// k = 0 only the beta pass runs and A is not read.
template <typename T>
void syrk(Uplo uplo, Trans trans, T alpha, ConstMatrixView<T> a, T beta, MatrixView<T> c);

/// Reference (unblocked) syrk/herk; the testing oracle.
template <typename T>
void syrk_ref(Uplo uplo, Trans trans, T alpha, ConstMatrixView<T> a, T beta, MatrixView<T> c);

/// Solves op(A) * X = alpha * B (Left) or X * op(A) = alpha * B (Right)
/// where A is triangular; B is overwritten with X. Large triangles recurse
/// into gemm updates on the micro-kernel engine.
template <typename T>
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, T alpha, ConstMatrixView<T> a,
          MatrixView<T> b);

/// Reference (unblocked) trsm; the testing oracle.
template <typename T>
void trsm_ref(Side side, Uplo uplo, Trans trans, Diag diag, T alpha, ConstMatrixView<T> a,
              MatrixView<T> b);

/// B = alpha * op(A) * B (Left) or B = alpha * B * op(A) (Right), A
/// triangular. Large triangles recurse into micro-kernel gemm updates.
template <typename T>
void trmm(Side side, Uplo uplo, Trans trans, Diag diag, T alpha, ConstMatrixView<T> a,
          MatrixView<T> b);

/// Reference (unblocked) trmm; the testing oracle.
template <typename T>
void trmm_ref(Side side, Uplo uplo, Trans trans, Diag diag, T alpha, ConstMatrixView<T> a,
              MatrixView<T> b);

// ---------------------------------------------------------------------------
// LAPACK-style factorizations
// ---------------------------------------------------------------------------

/// In-place inversion of a triangular matrix. Returns 0, or i (1-based) if
/// A(i-1,i-1) is exactly zero.
template <typename T>
int trtri(Uplo uplo, Diag diag, MatrixView<T> a);

/// Unblocked Cholesky (LAPACK xPOTF2). Returns 0 on success or the 1-based
/// index of the first non-positive pivot.
template <typename T>
int potf2(Uplo uplo, MatrixView<T> a);

/// Lane count W of potf2_batch's batch-interleaved kernel for T under the
/// active ISA (float: 4 / 8 / 16 and double: 2 / 4 / 8 at 128-bit / AVX2 /
/// AVX-512); 1 when there is none (complex T, Isa::Scalar).
template <typename T>
[[nodiscard]] int potf2_lanes() noexcept;

/// Upper bound of potf2_lanes<T>(): the float lanes of a 512-bit vector.
inline constexpr int kMaxPotf2Lanes = 16;

/// potf2 on every panel of `a`, info[p] for panel p. Every W =
/// potf2_lanes<T>() consecutive square panels (fewer at the end) form one
/// group, whatever their orders; pass the panels sorted by order so a
/// group's orders are close. A group factors in the batch-interleaved
/// kernel, one panel per SIMD lane, where that is measured faster than
/// looping potf2 over it, and loops potf2 otherwise. Factors and info are
/// bit-identical to looping potf2 at every ISA (docs/blas.md,
/// "Batch-interleaved potf2").
template <typename T>
void potf2_batch(Uplo uplo, std::span<const MatrixView<T>> a, std::span<int> info);

/// Order at or below which potrf's recursion ends in one potf2. Leaves of
/// 16, 24 and 32 time within 2 % of each other on the Fig. 9 batch
/// (docs/blas.md, "Recursive potrf"); 16 matches the split quantum.
inline constexpr index_t kPotrfLeaf = 16;

/// Cholesky (LAPACK xPOTRF), recursive: halves the order at a multiple of
/// 16, with trsm and syrk between the halves and potf2 on leaves of
/// kPotrfLeaf or fewer. Returns 0 or, like LAPACK, the 1-based column of
/// the first non-positive pivot.
template <typename T>
int potrf(Uplo uplo, MatrixView<T> a);

/// Unblocked LU with partial pivoting (xGETF2). ipiv is 1-based like LAPACK.
template <typename T>
int getf2(MatrixView<T> a, std::span<int> ipiv);

/// Blocked LU with partial pivoting (xGETRF).
template <typename T>
int getrf(MatrixView<T> a, std::span<int> ipiv, index_t nb = 64);

/// Row interchanges: applies ipiv[k1..k2) to the rows of A (xLASWP).
template <typename T>
void laswp(MatrixView<T> a, std::span<const int> ipiv, index_t k1, index_t k2);

/// Unblocked Householder QR (xGEQR2). tau receives min(m,n) reflectors.
template <typename T>
void geqr2(MatrixView<T> a, std::span<T> tau);

/// Blocked Householder QR (xGEQRF).
template <typename T>
void geqrf(MatrixView<T> a, std::span<T> tau, index_t nb = 32);

/// Forms the m×n leading part of Q from a geqrf factorization (xORGQR,
/// unblocked). `a` holds the reflectors on input, Q on output.
template <typename T>
void orgqr(MatrixView<T> a, std::span<const T> tau);

/// Triangular solve after potrf: solves A X = B with A = L·Lᵀ (or UᵀU).
template <typename T>
void potrs(Uplo uplo, ConstMatrixView<T> a, MatrixView<T> b);

/// Computes Lᵀ·L (Lower) or U·Uᵀ (Upper) in place (LAPACK xLAUUM,
/// unblocked xLAUU2 algorithm) — the second half of the Cholesky-based
/// inversion xPOTRI.
template <typename T>
void lauum(Uplo uplo, MatrixView<T> a);

/// Inverse from the Cholesky factor (xPOTRI): overwrites the `uplo`
/// triangle of the factor with the same triangle of A⁻¹. Returns 0 or the
/// 1-based index of a zero diagonal element.
template <typename T>
int potri(Uplo uplo, MatrixView<T> a);

// ---------------------------------------------------------------------------
// Norms & residuals
// ---------------------------------------------------------------------------

/// Frobenius norm of a general matrix.
template <typename T>
double norm_fro(ConstMatrixView<T> a);

/// Maximum absolute entry.
template <typename T>
double norm_max(ConstMatrixView<T> a);

/// Relative Cholesky residual ‖A − L·Lᵀ‖_F / (n·‖A‖_F) for Lower, or
/// ‖A − Uᵀ·U‖_F / (n·‖A‖_F) for Upper. `a_orig` is the matrix before the
/// factorization, `factor` the triangle written by potrf.
template <typename T>
double potrf_residual(Uplo uplo, ConstMatrixView<T> a_orig, ConstMatrixView<T> factor);

/// Relative LU residual ‖P·A − L·U‖_F / (n·‖A‖_F).
template <typename T>
double getrf_residual(ConstMatrixView<T> a_orig, ConstMatrixView<T> lu,
                      std::span<const int> ipiv);

/// Relative QR residual ‖A − Q·R‖_F / (n·‖A‖_F).
template <typename T>
double geqrf_residual(ConstMatrixView<T> a_orig, ConstMatrixView<T> qr, std::span<const T> tau);

}  // namespace vbatch::blas
