// Energy-to-solution accounting (paper §IV-G): "the integration of the
// power measurements over time". The meter integrates a PowerModel over a
// run — per-kernel for GPU runs (utilisation from each kernel's achieved
// throughput against peak) and as a single interval for modelled CPU runs.
// A run on one device also charges the other device's idle power, matching
// the paper's "total amount of energy consumed by both hardware CPU and
// GPU".
//
// For multi-device runs (vbatch::hetero) the EnergyMeter accumulator sums
// per-device ∫P dt contributions: each executor's active interval plus the
// idle draw it burns while waiting for the pool's makespan to elapse.
#pragma once

#include <cstddef>

#include "vbatch/energy/power_model.hpp"
#include "vbatch/sim/device_spec.hpp"
#include "vbatch/sim/timeline.hpp"

namespace vbatch::energy {

struct EnergyResult {
  double joules = 0.0;
  double seconds = 0.0;
  [[nodiscard]] double avg_watts() const noexcept {
    return seconds > 0.0 ? joules / seconds : 0.0;
  }
};

/// Integrates one device's power over a slice of its timeline (records from
/// index `first_record` on with start >= t0): per-kernel active power
/// (utilisation from achieved flops against peak) plus idle draw in the gaps
/// between kernels. No companion device is charged — this is the per-device
/// ∫P dt building block the multi-device meter sums.
[[nodiscard]] EnergyResult gpu_timeline_energy(const sim::DeviceSpec& spec,
                                               const PowerModel& gpu,
                                               const sim::Timeline& timeline, Precision prec,
                                               double t0 = 0.0, std::size_t first_record = 0);

/// One CPU interval at the utilisation implied by the achieved throughput.
/// The per-device ∫P dt building block for modelled CPU executors.
[[nodiscard]] EnergyResult cpu_interval_energy(const PowerModel& cpu, double seconds,
                                               double achieved_gflops, double peak_gflops);

/// Integrates GPU power over a slice of the device timeline (records with
/// start >= t0), adding the CPU's idle draw for the same wall time.
[[nodiscard]] EnergyResult gpu_run_energy(const sim::DeviceSpec& spec, const PowerModel& gpu,
                                          const PowerModel& cpu_idle,
                                          const sim::Timeline& timeline, Precision prec,
                                          double t0 = 0.0);

/// Energy of a modelled CPU run achieving `gflops` over `seconds`, adding
/// the GPU's idle draw.
[[nodiscard]] EnergyResult cpu_run_energy(const PowerModel& cpu, const PowerModel& gpu_idle,
                                          double seconds, double achieved_gflops,
                                          double peak_gflops);

/// Accumulator for multi-device runs: sums per-device active energy and the
/// idle tails of devices that finish before the pool's makespan. The total's
/// `seconds` is the wall time (makespan), not the sum of device-busy times,
/// so avg_watts() reads as the pool's average draw.
class EnergyMeter {
 public:
  /// Adds one device's pre-integrated active interval (joules only; the
  /// interval's own seconds are busy time, not wall time).
  void add(const EnergyResult& part) noexcept { total_.joules += part.joules; }

  /// Charges a device's idle draw for `seconds` (e.g. makespan − busy).
  void add_idle(const PowerModel& pm, double seconds) noexcept {
    if (seconds > 0.0) total_.joules += pm.watts(0.0) * seconds;
  }

  /// Sets the run's wall time (the makespan all devices span).
  void set_wall_seconds(double seconds) noexcept { total_.seconds = seconds; }

  [[nodiscard]] const EnergyResult& total() const noexcept { return total_; }

 private:
  EnergyResult total_;
};

}  // namespace vbatch::energy
