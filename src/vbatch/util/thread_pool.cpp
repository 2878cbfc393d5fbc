#include "vbatch/util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <optional>

#include "vbatch/util/parse.hpp"

namespace vbatch::util {

namespace {

// Set while a thread is inside worker_loop; parallel_for uses it to run
// nested invocations inline (a worker waiting on the queue it drains would
// deadlock).
thread_local bool t_in_worker = false;

unsigned clamp_threads(unsigned threads) {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  return std::clamp(threads, 1u, 64u);
}

unsigned env_threads() {
  if (const char* env = std::getenv("VBATCH_NUM_THREADS")) {
    const std::optional<long> v = try_parse_number<long>(env);
    if (v && *v > 0) return static_cast<unsigned>(std::min<long>(*v, 64));
  }
  return 0;  // unset / invalid: fall through to hardware concurrency
}

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;
unsigned g_requested_threads = 0;  // 0 = default

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  threads = clamp_threads(threads);
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  t_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard lock(mutex_);
      if (--in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(int count, const std::function<void(int)>& fn) {
  if (count <= 0) return;
  const unsigned workers = std::min<unsigned>(size(), static_cast<unsigned>(count));
  if (workers <= 1 || t_in_worker) {
    for (int i = 0; i < count; ++i) fn(i);
    return;
  }

  // Per-call completion state so concurrent parallel_for calls (and plain
  // submits) never wait on each other's tasks.
  struct State {
    std::atomic<int> next{0};
    std::atomic<unsigned> remaining;
    std::mutex m;
    std::condition_variable done;
  };
  auto state = std::make_shared<State>();
  state->remaining.store(workers, std::memory_order_relaxed);

  for (unsigned w = 0; w < workers; ++w) {
    submit([state, count, &fn] {
      for (;;) {
        const int i = state->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) break;
        fn(i);
      }
      if (state->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard lock(state->m);
        state->done.notify_all();
      }
    });
  }
  std::unique_lock lock(state->m);
  state->done.wait(lock, [&] { return state->remaining.load(std::memory_order_acquire) == 0; });
}

ThreadPool& host_pool() {
  std::lock_guard lock(g_pool_mutex);
  if (!g_pool) {
    const unsigned n = g_requested_threads != 0 ? g_requested_threads : env_threads();
    g_pool = std::make_unique<ThreadPool>(clamp_threads(n));
  }
  return *g_pool;
}

void set_host_threads(unsigned threads) {
  std::lock_guard lock(g_pool_mutex);
  g_requested_threads = threads;
  if (g_pool && g_pool->size() != clamp_threads(threads != 0 ? threads : env_threads())) {
    g_pool.reset();  // rebuilt lazily with the new count
  }
}

unsigned host_threads() {
  {
    std::lock_guard lock(g_pool_mutex);
    if (g_pool) return g_pool->size();
    if (g_requested_threads != 0) return clamp_threads(g_requested_threads);
  }
  const unsigned env = env_threads();
  return clamp_threads(env);
}

}  // namespace vbatch::util
