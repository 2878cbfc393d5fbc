#include "vbatch/core/batch.hpp"

#include <algorithm>
#include <string>

#include "vbatch/util/error.hpp"
#include "vbatch/util/flops.hpp"

namespace vbatch {

// --- SlabArrays -------------------------------------------------------------

template <typename T>
SlabArrays<T>::SlabArrays(Queue& q, std::span<const int> ld, std::span<const int> cols)
    : queue_(&q), offsets_(ld.size() + 1, 0), ptrs_(q, ld.size()) {
  require(cols.empty() || cols.size() == ld.size(), "SlabArrays: extent array size mismatch");
  for (std::size_t i = 0; i < ld.size(); ++i) {
    const std::size_t width = cols.empty() ? 1 : static_cast<std::size_t>(std::max(0, cols[i]));
    offsets_[i + 1] = offsets_[i] + static_cast<std::size_t>(std::max(0, ld[i])) * width;
  }
  // Full mode backs the slab with host memory; TimingOnly only charges the
  // arena, under a tag pointer no launch dereferences.
  const std::size_t bytes = std::max<std::size_t>(1, offsets_.back()) * sizeof(T);
  slab_ = q.full() ? q.device().device_malloc(bytes) : q.device().device_reserve(bytes);
  T* base = static_cast<T*>(slab_);
  for (std::size_t i = 0; i < ld.size(); ++i) ptrs_.host()[i] = base + offsets_[i];
}

template <typename T>
SlabArrays<T>::~SlabArrays() {
  if (slab_ != nullptr) queue_->device().device_free(slab_);
}

template <typename T>
SlabArrays<T>::SlabArrays(SlabArrays&& other) noexcept
    : queue_(other.queue_),
      offsets_(std::move(other.offsets_)),
      ptrs_(std::move(other.ptrs_)),
      slab_(other.slab_) {
  other.slab_ = nullptr;
}

template <typename T>
std::span<const T> SlabArrays<T>::item(int i) const noexcept {
  const auto k = static_cast<std::size_t>(i);
  return {ptrs_.host()[k], offsets_[k + 1] - offsets_[k]};
}

template <typename T>
void SlabArrays<T>::require_min_extents(const char* what, std::span<const int> m,
                                        std::span<const int> n) const {
  if (static_cast<std::size_t>(count()) != n.size())
    throw_error(Status::InvalidArgument, std::string(what) + " has " + std::to_string(count()) +
                                             " items for " + std::to_string(n.size()) +
                                             " matrices");
  for (std::size_t i = 0; i < n.size(); ++i) {
    const std::size_t held = offsets_[i + 1] - offsets_[i];
    const auto need = static_cast<std::size_t>(std::max(0, std::min(m[i], n[i])));
    if (held < need)
      throw_error(Status::InvalidArgument, std::string(what) + " item " + std::to_string(i) +
                                               " holds " + std::to_string(held) +
                                               " entries, needs " + std::to_string(need));
  }
}

// --- RectBatch --------------------------------------------------------------

template <typename T>
RectBatch<T>::RectBatch(Queue& q, std::span<const int> m, std::span<const int> n, int lda_pad,
                        bool square)
    : queue_(&q),
      m_(square ? std::nullopt : std::make_optional<DeviceVector<int>>(q, m.size())),
      n_(q, n.size()),
      lda_(q, m.size()),
      info_(q, m.size()),
      payload_(q, fill_metadata(m, n, lda_pad), n) {}

template <typename T>
std::span<const int> RectBatch<T>::fill_metadata(std::span<const int> m, std::span<const int> n,
                                                 int lda_pad) {
  require(!m.empty() && m.size() == n.size(), "RectBatch: bad dimension arrays");
  require(lda_pad >= 0, "RectBatch: negative lda pad");
  for (std::size_t i = 0; i < m.size(); ++i) {
    require(m[i] >= 0 && n[i] >= 0, "RectBatch: negative dimension");
    if (m_) m_->host()[i] = m[i];
    n_.host()[i] = n[i];
    lda_.host()[i] = std::max(1, m[i] + lda_pad);
    info_.host()[i] = 0;
  }
  return lda_.host();
}

template <typename T>
void RectBatch<T>::fill_general(Rng& rng) {
  if (!queue_->full()) return;
  for (int i = 0; i < count(); ++i) {
    const auto k = static_cast<std::size_t>(i);
    vbatch::fill_general<T>(rng, device_ptrs()[i], rows()[k], n_.host()[k], lda_.host()[k]);
  }
}

template <typename T>
MatrixView<T> RectBatch<T>::matrix(int i) noexcept {
  const auto k = static_cast<std::size_t>(i);
  return MatrixView<T>(device_ptrs()[i], rows()[k], n_.host()[k], lda_.host()[k]);
}

template <typename T>
std::vector<T> RectBatch<T>::copy_matrix(int i) const {
  require(queue_->full(), "copy_matrix requires Full execution mode");
  const int m = rows()[static_cast<std::size_t>(i)];
  const int n = n_.host()[static_cast<std::size_t>(i)];
  const int lda = lda_.host()[static_cast<std::size_t>(i)];
  const T* src = payload_.ptrs()[i];
  std::vector<T> out(static_cast<std::size_t>(m) * static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j)
    for (int r = 0; r < m; ++r)
      out[static_cast<std::size_t>(r) + static_cast<std::size_t>(j) * static_cast<std::size_t>(m)] =
          src[r + static_cast<std::ptrdiff_t>(j) * lda];
  return out;
}

// --- Batch ------------------------------------------------------------------

template <typename T>
Batch<T> Batch<T>::fixed(Queue& q, int count, int n) {
  std::vector<int> sizes(static_cast<std::size_t>(count), n);
  return Batch(q, sizes);
}

template <typename T>
int Batch<T>::max_size() const noexcept {
  int m = 0;
  for (int v : sizes()) m = std::max(m, v);
  return m;
}

template <typename T>
double Batch<T>::potrf_flops() const noexcept {
  return flops::potrf_batch(sizes());
}

template <typename T>
void Batch<T>::fill_spd(Rng& rng) {
  if (!this->queue().full()) return;
  for (int i = 0; i < this->count(); ++i) {
    const int n = sizes()[static_cast<std::size_t>(i)];
    if (n > 0)
      vbatch::fill_spd<T>(rng, this->device_ptrs()[i], n,
                          this->ldas()[static_cast<std::size_t>(i)]);
  }
}

template class SlabArrays<int>;
template class SlabArrays<float>;
template class SlabArrays<double>;
template class SlabArrays<std::complex<float>>;
template class SlabArrays<std::complex<double>>;
template class RectBatch<float>;
template class RectBatch<double>;
template class RectBatch<std::complex<float>>;
template class RectBatch<std::complex<double>>;
template class Batch<float>;
template class Batch<double>;
template class Batch<std::complex<float>>;
template class Batch<std::complex<double>>;

}  // namespace vbatch
