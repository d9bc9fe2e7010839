// Out-of-core DCA acceptance tests: a synthetic multi-million-
// instruction kernel must build its dependency graph into a spill file
// under a tiny resident budget, slice and count correctly, and stay
// inside a bounded RSS; the same path must reject (typed) when no spill
// directory is configured and abort cooperatively on a deadline.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/deadline.hpp"
#include "common/limits.hpp"
#include "common/mapped_buffer.hpp"
#include "ptx/depgraph.hpp"
#include "ptx/interpreter.hpp"
#include "ptx/slicer.hpp"
#include "ptx/symexec.hpp"
#include "ptx/synthetic.hpp"

namespace gpuperf::ptx {
namespace {

std::string make_spill_dir() {
  char tmpl[] = "/tmp/gpuperf-spill-test-XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

/// RAII spill-config override (the knobs are process-wide).
class SpillOverride {
 public:
  explicit SpillOverride(SpillConfig config) : saved_(dca_spill_config()) {
    set_dca_spill_config(std::move(config));
  }
  ~SpillOverride() { set_dca_spill_config(saved_); }

 private:
  SpillConfig saved_;
};

/// Current VmRSS in bytes, from /proc/self/status.
std::size_t current_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr)
    if (std::sscanf(line, "VmRSS: %zu kB", &kb) == 1) break;
  std::fclose(f);
  return kb * 1024;
}

constexpr bool kUnderSanitizer =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    true;
#else
    false;
#endif
#else
    false;
#endif

TEST(Synthetic, SmallModuleCountsMatchInterpreterAndClosedForm) {
  SyntheticSpec spec;
  spec.body_instructions = 200;
  spec.data_registers = 8;
  spec.seed_registers = 4;
  const PtxModule mod = synthetic_module(spec);
  const PtxKernel& kernel = mod.kernels.front();
  ASSERT_TRUE(kernel.registers_interned());
  ASSERT_EQ(kernel.instructions.size(), 200u + 4u + 6u);

  const KernelLaunch launch = bind_launch(kernel, 2, 32, {{"p_n", 17}});
  const ExecutionCounts sc = SymbolicExecutor(kernel).run(launch);
  EXPECT_EQ(sc.total, synthetic_dynamic_instructions(spec, 17, 64));
  const ThreadCounts ic = Interpreter(kernel).run_all(launch);
  EXPECT_EQ(sc.total, ic.total);
}

TEST(Spill, TinyBudgetForcesFileBackedGraph) {
  SyntheticSpec spec;
  spec.body_instructions = 20000;
  const PtxModule mod = synthetic_module(spec);
  const PtxKernel& kernel = mod.kernels.front();

  const std::string dir = make_spill_dir();
  const SpillOverride guard(SpillConfig{dir, 4096});
  const std::uint64_t files_before = MappedBuffer::spill_files_total();

  const DependencyGraph g = DependencyGraph::build(kernel);
  EXPECT_TRUE(g.spilled());
  EXPECT_GT(g.csr_bytes(), 4096u);
  EXPECT_GT(MappedBuffer::spill_files_total(), files_before);

  // The spilled graph is fully usable: the slice finds exactly the loop
  // head (mov i, ld.param n, add i, setp — the 4 branch feeders).
  const Slice slice = compute_slice(kernel, g);
  EXPECT_EQ(slice.slice_size(), 4u);
  EXPECT_TRUE(slice.tracks(kernel, "%r1"));
  EXPECT_FALSE(slice.tracks(kernel, "%f1"));
  ::rmdir(dir.c_str());
}

TEST(Spill, NoSpillDirRejectsWithTypedError) {
  SyntheticSpec spec;
  spec.body_instructions = 20000;
  const PtxModule mod = synthetic_module(spec);
  const SpillOverride guard(SpillConfig{"", 4096});
  EXPECT_THROW(DependencyGraph::build(mod.kernels.front()), LimitExceeded);
}

TEST(Spill, DeadlineAbortsMidBuild) {
  SyntheticSpec spec;
  spec.body_instructions = 20000;
  const PtxModule mod = synthetic_module(spec);
  Deadline deadline;
  deadline.with_step_budget(100);  // far fewer than one pass's charges
  EXPECT_THROW(DependencyGraph::build(mod.kernels.front(), deadline),
               AnalysisTimeout);
}

TEST(Spill, GiantKernelSlicesAndCountsInsideBoundedRss) {
  // The headline acceptance test: 2M+ instructions, 1 MiB resident
  // budget.  The CSR arrays (~40 MiB here) must land in the spill file,
  // and building + slicing + counting must not grow RSS by more than
  // the arena scratch + slice arrays + faulted-back graph pages —
  // far below the ~150 MiB the old vector-of-vectors layout needed.
  SyntheticSpec spec;
  spec.body_instructions = 2'000'000;
  PtxModule mod = synthetic_module(spec);
  PtxKernel& kernel = mod.kernels.front();
  ASSERT_GE(kernel.instructions.size(), 2'000'000u);

  const std::string dir = make_spill_dir();
  const SpillOverride guard(SpillConfig{dir, 1u << 20});

  const std::size_t rss_before = current_rss_bytes();
  const DependencyGraph g = DependencyGraph::build(kernel);
  EXPECT_TRUE(g.spilled());
  EXPECT_GT(g.csr_bytes(), 30u << 20);
  const Slice slice = compute_slice(kernel, g);
  EXPECT_EQ(slice.slice_size(), 4u);
  const std::size_t rss_after = current_rss_bytes();

  if (!kUnderSanitizer && rss_before > 0 && rss_after > rss_before) {
    EXPECT_LT(rss_after - rss_before, 96u << 20)
        << "graph build+slice RSS delta exceeds the out-of-core bound";
  }

  // And the giant kernel still counts exactly (closed form), via the
  // move-in executor so the 2M-instruction stream is not copied.
  const KernelLaunch launch = bind_launch(kernel, 1, 2, {{"p_n", 5}});
  const SymbolicExecutor sym(std::move(kernel));
  const ExecutionCounts counts = sym.run(launch);
  EXPECT_EQ(counts.total, synthetic_dynamic_instructions(spec, 5, 2));
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace gpuperf::ptx
