// Batch containers: ownership of a set of matrices resident in (simulated)
// device memory together with the device metadata arrays a vbatched routine
// needs (paper §III-A: sizes, leading dimensions and pointers are arrays,
// and the metadata arrays live on the GPU).
//
// Metadata arrays (ints, pointers) are host-shadowed: their device residency
// is charged against the arena (no device-side copy is allocated) and aux
// kernels model the cost of touching them, while the functional values are
// directly readable — which is what lets TimingOnly runs proceed without
// dereferencing matrix payloads.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "vbatch/core/queue.hpp"
#include "vbatch/util/matrix_view.hpp"
#include "vbatch/util/rng.hpp"

namespace vbatch {

/// A device-resident array with a host shadow. Matrix *payloads* do not use
/// this class (they live purely in the arena); metadata does. The shadow is
/// the only copy: the arena is charged its bytes, nothing is allocated there.
template <typename T>
class DeviceVector {
 public:
  DeviceVector(Queue& q, std::size_t count)
      : queue_(&q), data_(count), charged_(q.device().charge_memory(count * sizeof(T))) {}
  ~DeviceVector() {
    if (charged_ != 0) queue_->device().release_memory(charged_);
  }
  DeviceVector(DeviceVector&& other) noexcept
      : queue_(other.queue_), data_(std::move(other.data_)), charged_(other.charged_) {
    other.charged_ = 0;
  }
  DeviceVector& operator=(DeviceVector&&) = delete;
  DeviceVector(const DeviceVector&) = delete;
  DeviceVector& operator=(const DeviceVector&) = delete;

  [[nodiscard]] T* device_ptr() noexcept { return data_.data(); }
  [[nodiscard]] const T* device_ptr() const noexcept { return data_.data(); }
  [[nodiscard]] std::span<T> host() noexcept { return {data_.data(), data_.size()}; }
  [[nodiscard]] std::span<const T> host() const noexcept { return {data_.data(), data_.size()}; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

 private:
  Queue* queue_;
  std::vector<T> data_;
  std::size_t charged_;  ///< arena bytes charged; 0 once moved from
};

/// Low-level, MAGMA-style view of a vbatched problem handed to drivers.
template <typename T>
struct VbatchedProblem {
  T* const* ptrs = nullptr;      ///< device pointer array
  std::span<const int> n;        ///< per-matrix order (host shadow of device array)
  std::span<const int> lda;
  std::span<int> info;           ///< per-matrix status (host shadow of device array)
  [[nodiscard]] int count() const noexcept { return static_cast<int>(n.size()); }
};

/// Per-item device arrays carved from one arena slab: item i is a
/// column-major ld_i × cols_i block at ptrs()[i] (one column each when
/// `cols` is empty; negative extents count as empty items). The one owner of
/// "per-item arrays in one allocation": the matrix payload of every batch
/// container, the per-matrix pivot and tau arrays of the LU/QR extensions,
/// and driver workspaces. The item pointer array is device metadata; the
/// slab holds max(1, total) elements — host-backed on a Full queue, an
/// arena charge under a tag pointer on a TimingOnly one — and is freed
/// exactly once: on destruction, never by a moved-from owner.
template <typename T>
class SlabArrays {
 public:
  SlabArrays(Queue& q, std::span<const int> ld, std::span<const int> cols = {});
  ~SlabArrays();
  SlabArrays(SlabArrays&&) noexcept;
  SlabArrays(const SlabArrays&) = delete;
  SlabArrays& operator=(const SlabArrays&) = delete;
  SlabArrays& operator=(SlabArrays&&) = delete;

  [[nodiscard]] int count() const noexcept { return static_cast<int>(ptrs_.size()); }
  [[nodiscard]] T** ptrs() noexcept { return ptrs_.device_ptr(); }
  [[nodiscard]] T* const* ptrs() const noexcept { return ptrs_.device_ptr(); }
  /// Item i's elements (readable in Full mode only).
  [[nodiscard]] std::span<const T> item(int i) const noexcept;
  /// The per-matrix pivot/tau contract: one item per matrix, item i holding
  /// at least min(m_i, n_i) elements. Reads only the slab offsets, so it
  /// holds in TimingOnly mode; host-side, no modelled time. Throws
  /// Status::InvalidArgument with a message starting with `what`.
  void require_min_extents(const char* what, std::span<const int> m,
                           std::span<const int> n) const;

 private:
  Queue* queue_;
  std::vector<std::size_t> offsets_;  ///< count + 1 element offsets into the slab
  DeviceVector<T*> ptrs_;
  void* slab_ = nullptr;
};

/// Rectangular batch for the LU/QR extensions: per-matrix m×n with lda = m.
template <typename T>
class RectBatch {
 public:
  RectBatch(Queue& q, std::span<const int> m, std::span<const int> n)
      : RectBatch(q, m, n, 0, false) {}

  [[nodiscard]] int count() const noexcept { return static_cast<int>(n_.size()); }
  [[nodiscard]] std::span<const int> rows() const noexcept { return m_ ? m_->host() : n_.host(); }
  [[nodiscard]] std::span<const int> cols() const noexcept { return n_.host(); }
  [[nodiscard]] std::span<const int> ldas() const noexcept { return lda_.host(); }
  [[nodiscard]] T** device_ptrs() noexcept { return payload_.ptrs(); }
  [[nodiscard]] std::span<int> info() noexcept { return info_.host(); }

  void fill_general(Rng& rng);
  /// View of matrix i (Full mode only).
  [[nodiscard]] MatrixView<T> matrix(int i) noexcept;
  /// Deep copy of matrix i into a fresh host buffer (Full mode only).
  [[nodiscard]] std::vector<T> copy_matrix(int i) const;
  [[nodiscard]] Queue& queue() noexcept { return *queue_; }

 protected:
  /// The square case: n_i × n_i with lda_i = max(1, n_i + lda_pad), where a
  /// non-zero pad gives every matrix an independent leading dimension
  /// (paper §III-A). One device array holds both rows and cols.
  RectBatch(Queue& q, std::span<const int> n, int lda_pad) : RectBatch(q, n, n, lda_pad, true) {}

 private:
  RectBatch(Queue& q, std::span<const int> m, std::span<const int> n, int lda_pad, bool square);
  /// Validates the dimensions and fills the metadata arrays (called from
  /// the member-initializer list, before the payload is carved by lda × n).
  std::span<const int> fill_metadata(std::span<const int> m, std::span<const int> n, int lda_pad);

  Queue* queue_;
  std::optional<DeviceVector<int>> m_;  ///< empty in the square case: rows are n_
  DeviceVector<int> n_;
  DeviceVector<int> lda_;
  DeviceVector<int> info_;
  SlabArrays<T> payload_;  ///< item i: matrix i's lda_i × n_i columns
};

/// Owner of a batch of square matrices in device memory plus the metadata
/// arrays: the square case of RectBatch. The convenience layer used by
/// examples, tests and benches.
template <typename T>
class Batch : public RectBatch<T> {
 public:
  /// Allocates matrices of the given orders with lda_i = n_i + lda_pad
  /// (paper §III-A: every matrix carries an independent leading dimension;
  /// a non-zero pad exercises exactly that independence). Throws
  /// Status::OutOfDeviceMemory when the arena is exhausted.
  explicit Batch(Queue& q, std::span<const int> sizes, int lda_pad = 0)
      : RectBatch<T>(q, sizes, lda_pad) {}

  /// All matrices the same order (fixed-size batch).
  static Batch fixed(Queue& q, int count, int n);

  [[nodiscard]] std::span<const int> sizes() const noexcept { return this->cols(); }

  [[nodiscard]] VbatchedProblem<T> problem() noexcept {
    return {this->device_ptrs(), this->cols(), this->ldas(), this->info()};
  }

  /// Largest order in the batch (host-side; the device-side equivalent is
  /// kernels::imax_reduce, which the LAPACK-like interface uses).
  [[nodiscard]] int max_size() const noexcept;

  /// Sum of Cholesky flops over the batch (the paper's Gflop/s denominator).
  [[nodiscard]] double potrf_flops() const noexcept;

  /// Fills every matrix with a random SPD matrix (no-op in TimingOnly mode).
  void fill_spd(Rng& rng);
};

}  // namespace vbatch
