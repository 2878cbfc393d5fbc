#include "vbatch/kernels/aux_kernels.hpp"

#include <algorithm>
#include <vector>

#include "vbatch/kernels/common.hpp"

namespace vbatch::kernels {

namespace {

// All aux kernels are bandwidth-bound integer sweeps: grid of 256-thread
// blocks, each handling 256 entries.
sim::LaunchConfig int_sweep_config(const char* name, int count) {
  sim::LaunchConfig cfg;
  cfg.name = name;
  cfg.block_threads = 256;
  cfg.grid_blocks = std::max(1, (count + 255) / 256);
  cfg.shared_mem = 256 * sizeof(int);
  cfg.precision = Precision::Single;  // integer work; SP lanes
  return cfg;
}

sim::BlockCost int_sweep_cost(int count, int block, double extra_bytes_per_elem = 0.0) {
  sim::BlockCost c;
  const int lo = block * 256;
  const int elems = std::clamp(count - lo, 0, 256);
  c.active_threads = elems;
  c.live_threads = 256;
  c.flops = elems;  // one integer op per element
  c.bytes = elems * (sizeof(int) + extra_bytes_per_elem);
  c.sync_steps = 8;  // tree reduction depth
  return c;
}

}  // namespace

int imax_reduce(sim::Device& dev, std::span<const int> host_mirror) {
  const int count = static_cast<int>(host_mirror.size());
  auto cfg = int_sweep_config("aux_imax_reduce", count);
  dev.launch(cfg, [count](int block) { return int_sweep_cost(count, block); });
  // Stage 2: reduce the per-block partials (single block).
  if (cfg.grid_blocks > 1) {
    auto cfg2 = int_sweep_config("aux_imax_reduce_stage2", cfg.grid_blocks);
    cfg2.grid_blocks = 1;
    dev.launch(cfg2, [blocks = cfg.grid_blocks](int) { return int_sweep_cost(blocks, 0); });
  }
  int m = 0;
  for (int v : host_mirror) m = std::max(m, v);
  return m;
}

std::array<int, 3> imax_reduce3(sim::Device& dev, std::span<const int> a,
                                std::span<const int> b, std::span<const int> c) {
  const int count = static_cast<int>(std::max({a.size(), b.size(), c.size()}));
  if (count == 0) return {0, 0, 0};
  int arrays = 0;
  for (const auto& s : {a, b, c})
    if (!s.empty()) ++arrays;
  auto cfg = int_sweep_config("aux_imax_reduce3", count);
  dev.launch(cfg, [count, arrays](int block) {
    // Same sweep as imax_reduce, but each thread reads one entry of every
    // array; the per-block partials carry all three running maxima.
    return int_sweep_cost(count, block, static_cast<double>(arrays - 1) * sizeof(int));
  });
  if (cfg.grid_blocks > 1) {
    auto cfg2 = int_sweep_config("aux_imax_reduce3_stage2", cfg.grid_blocks);
    cfg2.grid_blocks = 1;
    dev.launch(cfg2, [blocks = cfg.grid_blocks, arrays](int) {
      return int_sweep_cost(blocks, 0, static_cast<double>(arrays - 1) * sizeof(int));
    });
  }
  std::array<int, 3> out{0, 0, 0};
  for (int v : a) out[0] = std::max(out[0], v);
  for (int v : b) out[1] = std::max(out[1], v);
  for (int v : c) out[2] = std::max(out[2], v);
  return out;
}

double shift_sizes(sim::Device& dev, std::span<const int> in, std::span<int> out, int offset) {
  const int count = static_cast<int>(in.size());
  auto cfg = int_sweep_config("aux_shift_sizes", count);
  const double t = dev.launch(cfg, [count](int block) {
    return int_sweep_cost(count, block, sizeof(int));  // read + write
  });
  for (int i = 0; i < count; ++i) out[static_cast<std::size_t>(i)] = std::max(0, in[static_cast<std::size_t>(i)] - offset);
  return t;
}

double build_size_window(sim::Device& dev, std::span<const int> sizes, int lo, int hi,
                         std::vector<int>& out) {
  const int count = static_cast<int>(sizes.size());
  auto cfg = int_sweep_config("aux_build_window", count);
  const double t = dev.launch(cfg, [count](int block) {
    return int_sweep_cost(count, block, sizeof(int));  // read size, write index
  });
  out.clear();
  for (int i = 0; i < count; ++i) {
    const int s = sizes[static_cast<std::size_t>(i)];
    if (s > lo && s <= hi) out.push_back(i);
  }
  return t;
}

double build_size_partition(sim::Device& dev, std::span<const int> sizes, int base,
                            int live_max, int width, std::vector<std::vector<int>>& windows) {
  const int count = static_cast<int>(sizes.size());
  auto cfg = int_sweep_config("aux_build_partition", count);
  const double t = dev.launch(cfg, [count](int block) {
    return int_sweep_cost(count, block, sizeof(int));  // read size, write (window, index)
  });
  const int nwin = static_cast<int>(windows.size());
  for (auto& w : windows) w.clear();
  for (int i = 0; i < count; ++i) {
    const int r = sizes[static_cast<std::size_t>(i)] - base;  // remaining panel height
    if (r <= 0) continue;
    const int w = std::min((live_max - r) / width, nwin - 1);
    windows[static_cast<std::size_t>(w)].push_back(i);
  }
  return t;
}

void displace_ptrs(sim::Device& dev, int count) {
  const sim::LaunchConfig cfg{"aux_displace_ptrs", std::max(1, (count + 255) / 256), 256, 0,
                              Precision::Single};
  dev.launch(cfg, [count](int block) {
    sim::BlockCost c;
    const int elems = std::clamp(count - block * 256, 0, 256);
    c.active_threads = elems;
    c.live_threads = 256;
    c.flops = 2.0 * elems;
    // A pointer read and written plus the leading dimension per entry.
    c.bytes = static_cast<double>(elems) * (sizeof(void*) * 2 + sizeof(int));
    return c;
  });
}

int count_live(sim::Device& dev, std::span<const int> sizes, int offset) {
  const int count = static_cast<int>(sizes.size());
  auto cfg = int_sweep_config("aux_count_live", count);
  dev.launch(cfg, [count](int block) { return int_sweep_cost(count, block); });
  int live = 0;
  for (int s : sizes)
    if (s > offset) ++live;
  return live;
}

}  // namespace vbatch::kernels
