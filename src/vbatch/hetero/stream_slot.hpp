// StreamSlot: where the virtual-time scheduler placed one chunk inside its
// executor's concurrent stream slots.
//
// Executors with set_streams(k > 1) compute up to k chunks at once; the
// scheduler hands every commit its slot so the executor can align the
// chunk's timeline records with the schedule (a GPU executor places the
// chunk's dry-run records into [start, start + serial/rate) on `stream`,
// one of its own k streams). A resident single-stream executor's slot is
// always {0, clock, 1.0}: its chunks run back to back.
#pragma once

namespace vbatch::hetero {

struct StreamSlot {
  int stream = 0;     ///< stream index inside the executor, 0-based
  double start = 0.0; ///< executor virtual clock where the compute begins
  /// Modelled progress rate under stream contention: the chunk occupies its
  /// stream for serial_seconds / rate. 1.0 = no contention (the chunk's
  /// occupancy fits in the device's free slot share at dispatch).
  double rate = 1.0;

  // --- Out-of-core staging placement (all zero for a resident chunk, whose
  // copies take zero seconds and hold zero bytes). A streamed chunk's inputs
  // occupy the executor's arena over [h2d_start, d2h_start + d2h_seconds);
  // the GPU executor records the two copies on its timeline's transfer lane
  // at these positions.
  double h2d_start = 0.0;
  double h2d_seconds = 0.0;
  double d2h_start = 0.0;
  double d2h_seconds = 0.0;
  double bytes = 0.0;  ///< chunk payload footprint staged each way
  int chunk = -1;      ///< chunk index (transfer-record label)
};

}  // namespace vbatch::hetero
