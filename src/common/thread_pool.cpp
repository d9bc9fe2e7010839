#include "common/thread_pool.hpp"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "common/check.hpp"

namespace gpuperf {

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0)
    n_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  GP_CHECK(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    GP_CHECK_MSG(!stop_, "submit on a stopped ThreadPool");
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_done_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

namespace {
thread_local ThreadPool* tls_current_pool = nullptr;

// Set in every forked child.  A child inherits each pool object but
// none of its worker threads, so a shard it queued could wait forever;
// parallel_for in a child runs inline instead.
std::atomic<bool> g_forked_child{false};
[[maybe_unused]] const int kAtforkRegistered =
    ::pthread_atfork(nullptr, nullptr, [] { g_forked_child = true; });
}  // namespace

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (size() == 1 || n == 1 || current() == this || g_forked_child) {
    // Run inline: single worker, trivial n, a nested call from one of
    // this pool's own workers (queueing and blocking on siblings could
    // deadlock), or a forked child.  Exceptions propagate directly.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Per-invocation context: index claim counter, completion count and
  // first error all live here, so concurrent invocations sharing the
  // pool are fully independent.
  struct Ctx {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<bool> failed{false};
    std::size_t shards = 0;
    std::mutex mutex;
    std::condition_variable cv;
    std::exception_ptr error;
  };
  auto ctx = std::make_shared<Ctx>();
  ctx->shards = std::min(size() + 1, n);  // +1: the caller works too

  auto run_shard = [ctx, n, &fn] {
    try {
      for (std::size_t i = ctx->next.fetch_add(1); i < n;
           i = ctx->next.fetch_add(1)) {
        if (ctx->failed.load(std::memory_order_relaxed)) break;
        fn(i);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(ctx->mutex);
      if (!ctx->error) ctx->error = std::current_exception();
      ctx->failed.store(true, std::memory_order_relaxed);
    }
    if (ctx->done.fetch_add(1) + 1 == ctx->shards) {
      std::lock_guard<std::mutex> lock(ctx->mutex);
      ctx->cv.notify_all();
    }
  };

  for (std::size_t s = 0; s + 1 < ctx->shards; ++s) submit(run_shard);
  run_shard();  // caller participates instead of idling

  std::unique_lock<std::mutex> lock(ctx->mutex);
  ctx->cv.wait(lock, [&] { return ctx->done.load() == ctx->shards; });
  if (ctx->error) std::rethrow_exception(ctx->error);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

ThreadPool* ThreadPool::current() { return tls_current_pool; }

void ThreadPool::worker_loop() {
  tls_current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) cv_done_.notify_all();
    }
  }
}

}  // namespace gpuperf
