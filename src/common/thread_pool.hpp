// Fixed-size thread pool with a parallel_for helper.
//
// Used by RandomForest training, the dataset builder (per-(CNN, GPU)
// profiling jobs) and the simulator sweep benches.  Work is pulled from
// a single mutex-guarded deque — at the grain sizes in this project
// (whole trees, whole model profiles) queue contention is irrelevant,
// so the simple design wins per the Core Guidelines (CP: keep
// concurrency structured and boring).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gpuperf {

class ThreadPool {
 public:
  /// n_threads == 0 picks std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; returns immediately.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.  Exceptions thrown
  /// by tasks are captured; the first one is rethrown here.
  void wait();

  /// Run fn(i) for i in [0, n), distributing across the pool and
  /// blocking until done; the calling thread participates in the work.
  /// Rethrows the first exception thrown by any fn(i).  Error state is
  /// per-invocation (not pool-global), so concurrent parallel_for calls
  /// on a shared pool never observe each other's failures; a nested
  /// call from inside one of this pool's own workers runs inline
  /// instead of deadlocking on its own queue.  In a forked child every
  /// call runs inline, since pools copied from the parent have no
  /// workers there.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Process-wide shared pool (lazily created).
  static ThreadPool& shared();

  /// The pool whose worker is executing the calling thread, or nullptr
  /// when called from a non-worker thread.
  static ThreadPool* current();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

}  // namespace gpuperf
