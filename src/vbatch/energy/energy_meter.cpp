#include "vbatch/energy/energy_meter.hpp"

#include <algorithm>

namespace vbatch::energy {

EnergyResult gpu_timeline_energy(const sim::DeviceSpec& spec, const PowerModel& gpu,
                                 const sim::Timeline& timeline, Precision prec, double t0) {
  // Each kernel contributes its utilisation-dependent power *above idle*
  // for its own duration; the idle baseline is charged once over the whole
  // [t0, t_end] span. For a serial timeline this is algebraically the old
  // per-record watts(util)·dur plus idle gaps; for overlapping streams it
  // correctly charges the shared baseline once instead of once per
  // concurrent record (the device has one idle draw, however many streams
  // are busy on it).
  EnergyResult r;
  const double peak = spec.peak_gflops(prec) * 1e9;
  const double idle_watts = gpu.watts(0.0);
  double t_end = t0;
  for (const auto& rec : timeline.records()) {
    if (rec.start < t0) continue;
    const double dur = rec.end - rec.start;
    if (dur <= 0.0) continue;
    const double util = peak > 0.0 ? (rec.flops / dur) / peak : 0.0;
    r.joules += (gpu.watts(util) - idle_watts) * dur;
    t_end = std::max(t_end, rec.end);
  }
  r.seconds = t_end - t0;
  r.joules += idle_watts * r.seconds;
  return r;
}

EnergyResult cpu_interval_energy(const PowerModel& cpu, double seconds, double achieved_gflops,
                                 double peak_gflops) {
  EnergyResult r;
  r.seconds = seconds;
  const double util = peak_gflops > 0.0 ? achieved_gflops / peak_gflops : 0.0;
  r.joules = cpu.watts(util) * seconds;
  return r;
}

EnergyResult gpu_run_energy(const sim::DeviceSpec& spec, const PowerModel& gpu,
                            const PowerModel& cpu_idle, const sim::Timeline& timeline,
                            Precision prec, double t0) {
  EnergyResult r = gpu_timeline_energy(spec, gpu, timeline, prec, t0);
  // The host CPU idles throughout the GPU run.
  r.joules += cpu_idle.watts(0.0) * r.seconds;
  return r;
}

EnergyResult cpu_run_energy(const PowerModel& cpu, const PowerModel& gpu_idle, double seconds,
                            double achieved_gflops, double peak_gflops) {
  EnergyResult r = cpu_interval_energy(cpu, seconds, achieved_gflops, peak_gflops);
  r.joules += gpu_idle.watts(0.0) * seconds;
  return r;
}

}  // namespace vbatch::energy
