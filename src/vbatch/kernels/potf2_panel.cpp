#include "vbatch/kernels/potf2_panel.hpp"

#include <algorithm>
#include <vector>

#include "vbatch/kernels/fused_potrf.hpp"
#include "vbatch/util/error.hpp"

namespace vbatch::kernels {

// §III-E1: "we reuse the fused kernel described in Section III-D in order
// to factorize a square panel of size NB, where NB > nb" — the panel
// factorization is a driver loop of fused-step launches over the NB×NB
// diagonal blocks, with ETM-classic terminating blocks whose matrix is
// already past the offset (or whose panel finished early).
template <typename T>
double launch_potf2_panel(sim::Device& dev, const Potf2PanelArgs& args) {
  const int batch = static_cast<int>(args.n.size());
  require(batch > 0, "potf2_panel: empty batch");
  require(args.NB > 0 && args.nb_inner > 0, "potf2_panel: bad blocking");

  // The diagonal blocks as a batch of their own: matrix i's block has order
  // clamp(n_i − offset, 0, NB). The costs read only the orders and info,
  // so the sub-batch has no matrix pointers.
  std::vector<int> sub_n(static_cast<std::size_t>(batch));
  for (std::size_t i = 0; i < sub_n.size(); ++i)
    sub_n[i] = std::clamp(args.n[i] - args.offset, 0, args.NB);

  FusedStepArgs<T> step;
  step.batch.n = sub_n;
  step.nb = args.nb_inner;
  step.etm = EtmMode::Classic;
  step.info = args.info;
  step.column0 = args.offset;
  step.name = "vbatched_potf2_panel";

  double seconds = 0.0;
  for (step.step = 0; step.step * args.nb_inner < args.NB; ++step.step) {
    step.block_threads = round_up_warp(dev.spec(), args.NB - step.step * args.nb_inner);
    seconds += launch_fused_step(dev, step);
  }
  return seconds;
}

template double launch_potf2_panel<float>(sim::Device&, const Potf2PanelArgs&);
template double launch_potf2_panel<double>(sim::Device&, const Potf2PanelArgs&);
template double launch_potf2_panel<std::complex<float>>(sim::Device&,
                                                       const Potf2PanelArgs&);
template double launch_potf2_panel<std::complex<double>>(sim::Device&,
                                                        const Potf2PanelArgs&);

}  // namespace vbatch::kernels
