// The launch-config memo behind InstructionCounter: single-flight
// under heavy concurrency, deadline aborts never cached,
// pointer-argument invariance (buffers off the slice share an entry),
// size-argument sensitivity, an uncached oracle for count() and its
// per-count() lookup accounting.  Stats are asserted as deltas because
// the memo is process-wide and other tests in this binary use it too.
#include "ptx/counter.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/check.hpp"
#include "common/deadline.hpp"
#include "cnn/zoo.hpp"
#include "ptx/interpreter.hpp"

namespace gpuperf::ptx {
namespace {

const PtxKernel& library_kernel(const std::string& name) {
  return CodeGenerator::parsed_kernel_library().kernel(name);
}

KernelLaunch copy_launch(std::int64_t n, std::int64_t dst = 0x1000,
                         std::int64_t src = 0x2000) {
  return bind_launch(library_kernel("gp_copy"), 5, 256,
                     {{"p_dst", dst}, {"p_a", src}, {"p_n", n}});
}

TEST(CounterMemo, SingleFlightUnder32ConcurrentThreads) {
  const InstructionCounter counter;
  // An argument value no other test uses, so this key is cold.
  const KernelLaunch launch = copy_launch(77777);

  const auto before = InstructionCounter::memo_stats();

  constexpr int kThreads = 32;
  std::mutex mutex;
  std::condition_variable cv;
  int ready = 0;
  bool go = false;
  std::vector<ExecutionCounts> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      {
        std::unique_lock<std::mutex> lock(mutex);
        if (++ready == kThreads) cv.notify_all();
        cv.wait(lock, [&] { return go; });
      }
      results[t] = counter.count_launch(launch);
    });
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return ready == kThreads; });
    go = true;
  }
  cv.notify_all();
  for (auto& th : threads) th.join();

  const auto after = InstructionCounter::memo_stats();
  // Exactly one underlying symbolic execution; everyone else waited on
  // the winner's future (or found the ready entry).
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, static_cast<std::uint64_t>(kThreads - 1));

  ASSERT_GT(results[0].total, 0);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[t].total, results[0].total);
    EXPECT_EQ(results[t].by_class, results[0].by_class);
  }
}

TEST(CounterMemo, DeadlineAbortIsNotCached) {
  const InstructionCounter counter;
  const KernelLaunch launch = copy_launch(88888);  // cold key

  Deadline tight;
  tight.with_step_budget(1);
  EXPECT_THROW(counter.count_launch(launch, tight), AnalysisTimeout);

  // The aborted compute must have been erased, not poisoned: the same
  // key computes successfully under an unlimited deadline...
  const ExecutionCounts ok = counter.count_launch(launch);
  EXPECT_GT(ok.total, 0);

  // ...and that success IS cached.
  const auto before = InstructionCounter::memo_stats();
  const ExecutionCounts again = counter.count_launch(launch);
  const auto after = InstructionCounter::memo_stats();
  EXPECT_EQ(again.total, ok.total);
  EXPECT_EQ(after.hits - before.hits, 1u);
  EXPECT_EQ(after.misses, before.misses);
}

TEST(CounterMemo, PointerArgumentsShareOneEntry) {
  const InstructionCounter counter;
  const KernelLaunch a = copy_launch(99999);  // cold key
  // Different buffers, same geometry.
  const KernelLaunch b = copy_launch(99999, 0xdead0000, 0xbeef0000);

  const auto before = InstructionCounter::memo_stats();
  const ExecutionCounts ca = counter.count_launch(a);
  const ExecutionCounts cb = counter.count_launch(b);
  const auto after = InstructionCounter::memo_stats();

  // Buffers are off the slice: the second launch is a memo hit.
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_GE(after.hits - before.hits, 1u);
  EXPECT_EQ(ca.total, cb.total);
}

TEST(CounterMemo, SizeArgumentsKeySeparateEntries) {
  const InstructionCounter counter;
  const ExecutionCounts small = counter.count_launch(copy_launch(11111));
  const ExecutionCounts large = counter.count_launch(copy_launch(22222));
  EXPECT_LT(small.total, large.total);
}

TEST(CounterMemo, ModelCountMatchesPerLaunchAccumulation) {
  // count() (parallel fan-out + index-ordered reduction on multi-core
  // machines) must agree exactly with a serial per-launch loop.
  const CodeGenerator codegen;
  const CompiledModel compiled =
      codegen.compile(cnn::zoo::build("MobileNetV2"));
  const InstructionCounter counter;
  const ModelInstructionProfile profile = counter.count(compiled);

  std::int64_t total = 0;
  ASSERT_EQ(profile.per_launch.size(), compiled.launches.size());
  for (std::size_t i = 0; i < compiled.launches.size(); ++i) {
    const ExecutionCounts counts = counter.count_launch(compiled.launches[i]);
    EXPECT_EQ(profile.per_launch[i], counts.total) << "launch " << i;
    EXPECT_EQ(profile.per_launch_class[i], counts.by_class) << "launch " << i;
    total += counts.total;
  }
  EXPECT_EQ(profile.total_instructions, total);
}

TEST(CounterMemo, CountMatchesAnUncachedOracle) {
  // count_launch reads the same memo as count(), so a key that merges
  // launches with different counts fools the test above.  Here every
  // launch runs through its own executor with no memo at all.
  const PtxModule& lib = CodeGenerator::parsed_kernel_library();
  std::vector<SymbolicExecutor> executors;
  for (const PtxKernel& kernel : lib.kernels) executors.emplace_back(kernel);
  const auto executor_for = [&](const std::string& name) -> const auto& {
    for (std::size_t k = 0; k < lib.kernels.size(); ++k)
      if (lib.kernels[k].name == name) return executors[k];
    throw std::logic_error("no kernel " + name);
  };

  const CodeGenerator codegen;
  const InstructionCounter counter;
  for (const char* model : {"MobileNetV2", "resnet50v2", "densenet121"}) {
    const CompiledModel compiled = codegen.compile(cnn::zoo::build(model));
    InstructionCounter::reset_memo();
    const ModelInstructionProfile profile = counter.count(compiled);

    ModelInstructionProfile oracle;
    for (const KernelLaunch& launch : compiled.launches) {
      const ExecutionCounts counts = executor_for(launch.kernel).run(launch);
      oracle.per_launch.push_back(counts.total);
      oracle.per_launch_class.push_back(counts.by_class);
      oracle.total_instructions += counts.total;
      for (std::size_t c = 0; c < kOpClassCount; ++c)
        oracle.by_class[c] += counts.by_class[c];
      oracle.total_threads += launch.total_threads();
    }
    EXPECT_EQ(profile.launch_count,
              static_cast<std::int64_t>(compiled.launches.size()))
        << model;
    EXPECT_EQ(profile.per_launch, oracle.per_launch) << model;
    EXPECT_EQ(profile.per_launch_class, oracle.per_launch_class) << model;
    EXPECT_EQ(profile.total_instructions, oracle.total_instructions) << model;
    EXPECT_EQ(profile.by_class, oracle.by_class) << model;
    EXPECT_EQ(profile.total_threads, oracle.total_threads) << model;
  }
}

TEST(CounterMemo, ShortArgumentVectorIsRejectedBeforeAnyRead) {
  // p_kt, the last of gp_gemm's seven parameters, is on the slice, so
  // every reader would index one past a six-value vector.
  const PtxKernel& gemm = library_kernel("gp_gemm");
  KernelLaunch short_launch =
      bind_launch(gemm, 2, 256,
                  {{"p_c", 1}, {"p_a", 2}, {"p_b", 3}, {"p_bias", 4},
                   {"p_total", 500}, {"p_n", 20}, {"p_kt", 3}});
  short_launch.args.pop_back();

  const InstructionCounter counter;
  EXPECT_THROW(counter.count_launch(short_launch), CheckError);

  CompiledModel model;
  model.model_name = "short";
  for (std::int64_t n = 1; n <= 12; ++n)
    model.launches.push_back(copy_launch(n));
  model.launches.push_back(short_launch);
  EXPECT_THROW(counter.count(model), CheckError);

  EXPECT_THROW(SymbolicExecutor(gemm).run(short_launch), CheckError);
  EXPECT_THROW(Interpreter(gemm).run_thread(short_launch, 0, 0), CheckError);
}

TEST(CounterMemo, CountLooksUpEachDistinctKeyOnce) {
  const CompiledModel compiled =
      CodeGenerator().compile(cnn::zoo::build("MobileNetV2"));

  // Distinct (kernel, grid, block, slice-slot values) tuples, counted
  // here without the counter's grouping.
  const PtxModule& lib = CodeGenerator::parsed_kernel_library();
  std::map<std::string, std::vector<std::size_t>> slice_slots;
  std::set<std::tuple<std::string, std::int64_t, std::int64_t,
                      std::vector<std::int64_t>>>
      distinct;
  for (const KernelLaunch& launch : compiled.launches) {
    auto slots = slice_slots.find(launch.kernel);
    if (slots == slice_slots.end())
      slots = slice_slots
                  .emplace(launch.kernel,
                           SymbolicExecutor(lib.kernel(launch.kernel))
                               .slice_params())
                  .first;
    std::vector<std::int64_t> values;
    for (const std::size_t slot : slots->second)
      values.push_back(launch.args.at(slot));
    distinct.emplace(launch.kernel, launch.grid_dim, launch.block_dim,
                     std::move(values));
  }
  ASSERT_LT(distinct.size(), compiled.launches.size());

  const InstructionCounter counter;
  InstructionCounter::reset_memo();
  const auto before = InstructionCounter::memo_stats();
  const std::int64_t cold = counter.count(compiled).total_instructions;
  const auto cold_stats = InstructionCounter::memo_stats();
  EXPECT_EQ(cold_stats.misses - before.misses, distinct.size());
  EXPECT_EQ(cold_stats.hits, before.hits);
  EXPECT_LE(cold_stats.parallel_tasks - before.parallel_tasks,
            distinct.size());

  const std::int64_t warm = counter.count(compiled).total_instructions;
  const auto warm_stats = InstructionCounter::memo_stats();
  EXPECT_EQ(warm, cold);
  EXPECT_EQ(warm_stats.misses, cold_stats.misses);
  EXPECT_EQ(warm_stats.parallel_tasks, cold_stats.parallel_tasks);
  EXPECT_EQ(warm_stats.hits - cold_stats.hits, distinct.size());
}

}  // namespace
}  // namespace gpuperf::ptx
