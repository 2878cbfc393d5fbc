#include "vbatch/kernels/potf2_panel.hpp"

#include <algorithm>

#include "vbatch/kernels/fused_potrf.hpp"
#include "vbatch/util/error.hpp"

namespace vbatch::kernels {

// §III-E1: "we reuse the fused kernel described in Section III-D in order
// to factorize a square panel of size NB, where NB > nb" — the panel
// factorization is a driver loop of fused-step launches over the NB×NB
// diagonal blocks, with ETM-classic terminating blocks whose matrix is
// already past the offset (or whose panel finished early).
template <typename T>
double launch_potf2_panel(sim::Device& dev, const Potf2PanelArgs<T>& args) {
  const int batch = args.batch.count();
  require(batch > 0, "potf2_panel: empty batch");
  require(args.NB > 0 && args.nb_inner > 0, "potf2_panel: bad blocking");

  // The diagonal blocks as a batch of their own: matrix i's block starts at
  // (offset, offset), has order clamp(n_i − offset, 0, NB) and keeps lda_i.
  // The kernel indexes its block in place, so this is host arithmetic on
  // the mirrors, not a device pointer displacement.
  const auto& a = args.batch;
  PanelScratch<T> local;
  PanelScratch<T>& sub = args.scratch != nullptr ? *args.scratch : local;
  sub.ptrs.resize(static_cast<std::size_t>(batch));
  sub.n.resize(static_cast<std::size_t>(batch));
  const index_t off = args.offset;
  for (std::size_t i = 0; i < sub.ptrs.size(); ++i) {
    const int ni = std::clamp(a.n[i] - args.offset, 0, args.NB);
    sub.n[i] = ni;
    sub.ptrs[i] = ni > 0 ? a.ptrs[i] + off + off * a.lda[i] : a.ptrs[i];  // never past the end
  }

  FusedStepArgs<T> step;
  step.batch = {sub.ptrs.data(), sub.n, a.lda};
  step.uplo = args.uplo;
  step.nb = args.nb_inner;
  step.etm = EtmMode::Classic;
  step.info = args.info;
  step.name = "vbatched_potf2_panel";
  step.info_offset = args.offset;

  double seconds = 0.0;
  for (step.step = 0; step.step * args.nb_inner < args.NB; ++step.step) {
    step.block_threads = round_up_warp(dev.spec(), args.NB - step.step * args.nb_inner);
    seconds += launch_fused_step(dev, step);
  }
  return seconds;
}

template double launch_potf2_panel<float>(sim::Device&, const Potf2PanelArgs<float>&);
template double launch_potf2_panel<double>(sim::Device&, const Potf2PanelArgs<double>&);
template double launch_potf2_panel<std::complex<float>>(
    sim::Device&, const Potf2PanelArgs<std::complex<float>>&);
template double launch_potf2_panel<std::complex<double>>(
    sim::Device&, const Potf2PanelArgs<std::complex<double>>&);

}  // namespace vbatch::kernels
