// The process-wide host worker pool behind the parallel execution engine.
//
// Originally this lived in vbatch::cpu and only ran the CPU baselines'
// numerics; it is now shared by every front's numerics pass (through
// kernels::parallel_for_grained) and the CPU baselines, so the whole
// library pays thread start-up exactly once per process instead of once per
// kernel launch.
//
// Determinism contract: parallel_for distributes indices dynamically, but
// every index writes only its own output slot, so results are independent
// of the worker count and of scheduling order. The engine-level controls
// (`set_host_threads`, the VBATCH_NUM_THREADS environment variable and the
// CLI's --threads flag) therefore change wall-clock time only, never
// results.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace vbatch::util {

class ThreadPool {
 public:
  explicit ThreadPool(unsigned threads = std::thread::hardware_concurrency());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; tasks run in FIFO order across workers.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has completed.
  void wait_idle();

  [[nodiscard]] unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

  /// Runs fn(i) for i in [0, count) across the pool and waits. Safe to call
  /// from within a pool task: nested calls run inline on the calling worker
  /// instead of deadlocking on the shared queue.
  void parallel_for(int count, const std::function<void(int)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  int in_flight_ = 0;
  bool stop_ = false;
};

/// The shared pool. Lazily constructed on first use with `set_host_threads`'
/// count if one was set, else VBATCH_NUM_THREADS, else hardware concurrency.
ThreadPool& host_pool();

/// Sets the worker count for host_pool(); 0 restores the default. Rebuilds
/// the pool if it already exists (call between launches, not during one).
void set_host_threads(unsigned threads);

/// Worker count host_pool() has (or would be built with).
[[nodiscard]] unsigned host_threads();

}  // namespace vbatch::util
