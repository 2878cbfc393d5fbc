// Auxiliary device kernels for vbatched metadata (paper §III-A, §III-F).
//
// A vbatched routine keeps sizes and leading dimensions in device int
// arrays, so "any pointer displacement or any simple arithmetic operation on
// the matrix size need to be performed on the whole array" with dedicated
// GPU kernels. These are those kernels: integer reductions, element-wise
// size arithmetic and pointer displacement. Their (modelled) cost is what
// the paper calls "in most cases negligible" — bench/aux_overhead
// quantifies it.
#pragma once

#include <array>
#include <span>

#include "vbatch/sim/device.hpp"

namespace vbatch::kernels {

/// Device-side max-reduction over an int array (two-stage tree reduction).
/// `host_mirror` supplies the functional values; the launch models the cost
/// of reading `count` ints through the memory system.
[[nodiscard]] int imax_reduce(sim::Device& dev, std::span<const int> host_mirror);

/// Reduces the maxima of up to three arrays in one sweep kernel: returns
/// {max(a), max(b), max(c)}, 0 for an empty span, which the sweep does not
/// read. The QR driver uses it to fetch max(min(m,n)) and max(m) with a
/// single metadata pass instead of two back-to-back reductions.
[[nodiscard]] std::array<int, 3> imax_reduce3(sim::Device& dev, std::span<const int> a,
                                              std::span<const int> b, std::span<const int> c);

/// Element-wise clamp-subtract used by the factorization driver between
/// panel steps: out[i] = max(0, in[i] - offset). Returns the kernel time.
double shift_sizes(sim::Device& dev, std::span<const int> in, std::span<int> out, int offset);

/// Builds the list of batch indices whose size falls inside (lo, hi]
/// — the implicit-sorting "ready queue" construction (§III-D2). The indices
/// land in `out` (host mirror of a device index array); returns kernel time.
double build_size_window(sim::Device& dev, std::span<const int> sizes, int lo, int hi,
                         std::vector<int>& out);

/// One-pass variant: partitions all live indices (size > base) into
/// `windows.size()` ready queues. Window 0 holds the largest remaining
/// sizes: index i with remaining r = size[i] − base lands in window
/// min(⌊(live_max − r) / width⌋, windows.size()−1). A single kernel sweep,
/// so the driver pays one launch per step regardless of the window count.
double build_size_partition(sim::Device& dev, std::span<const int> sizes, int base,
                            int live_max, int width, std::vector<std::vector<int>>& windows);

/// The pointer-displacement kernel a device driver launches before each
/// sub-matrix operation: out[i] = base[i] + row_off + col_off · lda[i] over
/// a `count`-entry pointer array (§III-A, "any pointer displacement ...
/// need[s] to be performed on the whole array"). Only its cost is modelled:
/// the launches it precedes take extents, not pointers, so no array is
/// written.
void displace_ptrs(sim::Device& dev, int count);

/// Counts entries still live (size > offset) — used by the driver to decide
/// whether trsm/syrk launches are still needed (§III-F).
[[nodiscard]] int count_live(sim::Device& dev, std::span<const int> sizes, int offset);

}  // namespace vbatch::kernels
