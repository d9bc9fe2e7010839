#include "common/thread_pool.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/subprocess.hpp"

namespace gpuperf {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++counter; });
  pool.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEveryIndex) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [&](std::size_t) { FAIL(); });
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.parallel_for(5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The pool stays usable after an error.
  std::atomic<int> counter{0};
  pool.submit([&] { ++counter; });
  pool.wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t i) {
                                   if (i == 13)
                                     throw std::runtime_error("unlucky");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForRunsInlineInAForkedChild) {
  ThreadPool pool(4);
  pool.parallel_for(8, [](std::size_t) {});  // the workers are up
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // The child's copy of the pool has no worker threads: a queued
    // shard would never run and the call would never return.
    std::atomic<int> ran{0};
    pool.parallel_for(64, [&](std::size_t) { ran.fetch_add(1); });
    ::_exit(ran.load() == 64 ? 0 : 1);
  }
  int status = 0;
  const bool exited = wait_exit(pid, &status, 5000);
  if (!exited) {
    ::kill(pid, SIGKILL);
    waitpid_retry(pid, &status, 0);
  }
  ASSERT_TRUE(exited) << "parallel_for hung in the forked child";
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << describe_wait_status(status);
}

TEST(ThreadPool, RejectsNullTask) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(nullptr), CheckError);
}

TEST(ThreadPool, SharedPoolSingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
  EXPECT_GE(ThreadPool::shared().size(), 1u);
}

TEST(ThreadPool, ManySmallParallelFors) {
  ThreadPool pool(4);
  long long total = 0;
  for (int round = 0; round < 20; ++round) {
    std::atomic<long long> sum{0};
    pool.parallel_for(100, [&](std::size_t i) {
      sum += static_cast<long long>(i);
    });
    total += sum.load();
  }
  EXPECT_EQ(total, 20LL * (99 * 100 / 2));
}

// --- Contention guarantees the serve subsystem leans on -------------

TEST(ThreadPool, ManyProducersSubmitConcurrently) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 250;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i)
        pool.submit([&] { ++counter; });
    });
  for (auto& producer : producers) producer.join();
  pool.wait();
  EXPECT_EQ(counter.load(), kProducers * kPerProducer);
}

TEST(ThreadPool, ExceptionsUnderContentionDoNotWedgeThePool) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&, i] {
      ++ran;
      if (i % 10 == 3) throw std::runtime_error("sporadic");
    });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  EXPECT_EQ(ran.load(), 100);  // failures never stop the queue draining
  std::atomic<int> after{0};
  pool.submit([&] { ++after; });
  pool.wait();
  EXPECT_EQ(after.load(), 1);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i)
      pool.submit([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++counter;
      });
    // No wait(): destruction itself must finish the queue.
  }
  EXPECT_EQ(counter.load(), 64);
}

}  // namespace
}  // namespace gpuperf
