// Differential equivalence suite for the CSR dependency-graph storage:
// the flat arena/CSR representation must be bit-identical — same
// adjacency rows, same definition sites, same slice, same tracked set,
// same dynamic counts — to the straightforward vector-of-vectors
// representation it replaced.  The oracle below IS that pre-refactor
// representation, reimplemented verbatim from the old depgraph/slicer
// code, so any CSR construction bug (off-by-one offsets, bad prefix
// sums, compaction corruption) diverges here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <vector>

#include "ptx/codegen.hpp"
#include "ptx/depgraph.hpp"
#include "ptx/interpreter.hpp"
#include "ptx/parser.hpp"
#include "ptx/slicer.hpp"
#include "ptx/symexec.hpp"

namespace gpuperf::ptx {
namespace {

/// The pre-refactor graph: one heap vector per instruction / register.
struct OracleGraph {
  std::vector<std::vector<std::size_t>> deps;
  std::vector<std::vector<std::size_t>> defs_by_id;
};

OracleGraph oracle_graph(const PtxKernel& kernel) {
  const auto& ins = kernel.instructions;
  OracleGraph g;
  g.deps.resize(ins.size());
  g.defs_by_id.resize(kernel.register_count());
  for (std::size_t i = 0; i < ins.size(); ++i)
    for (int id : ins[i].def_ids()) g.defs_by_id[id].push_back(i);
  for (std::size_t i = 0; i < ins.size(); ++i) {
    std::vector<std::size_t>& d = g.deps[i];
    for (int id : ins[i].use_ids()) {
      if (id < 0 || static_cast<std::size_t>(id) >= g.defs_by_id.size())
        continue;
      const auto& defs = g.defs_by_id[id];
      d.insert(d.end(), defs.begin(), defs.end());
    }
    std::sort(d.begin(), d.end());
    d.erase(std::unique(d.begin(), d.end()), d.end());
  }
  return g;
}

/// The pre-refactor slicer: deque worklist + set-of-names tracking.
struct OracleSlice {
  std::vector<bool> in_slice;
  std::set<std::string> tracked;
};

OracleSlice oracle_slice(const PtxKernel& kernel, const OracleGraph& g) {
  const auto& ins = kernel.instructions;
  OracleSlice slice;
  slice.in_slice.assign(ins.size(), false);
  std::deque<std::size_t> worklist;
  auto mark = [&](std::size_t i) {
    if (!slice.in_slice[i]) {
      slice.in_slice[i] = true;
      worklist.push_back(i);
    }
  };
  for (std::size_t i = 0; i < ins.size(); ++i) {
    if (ins[i].guard_id < 0) continue;
    const int id = ins[i].guard_id;
    if (static_cast<std::size_t>(id) < g.defs_by_id.size())
      for (std::size_t def : g.defs_by_id[id]) mark(def);
  }
  while (!worklist.empty()) {
    const std::size_t i = worklist.front();
    worklist.pop_front();
    for (std::size_t dep : g.deps[i]) mark(dep);
  }
  for (std::size_t i = 0; i < ins.size(); ++i)
    if (slice.in_slice[i])
      for (const std::string& reg : ins[i].defs()) slice.tracked.insert(reg);
  return slice;
}

void expect_graph_and_slice_match(const PtxKernel& kernel) {
  const DependencyGraph csr = DependencyGraph::build(kernel);
  const OracleGraph oracle = oracle_graph(kernel);

  ASSERT_EQ(csr.node_count(), oracle.deps.size()) << kernel.name;
  std::size_t oracle_edges = 0;
  for (std::size_t i = 0; i < oracle.deps.size(); ++i) {
    const auto row = csr.deps(i);
    ASSERT_EQ(row.size(), oracle.deps[i].size())
        << kernel.name << " deps row " << i;
    for (std::size_t j = 0; j < row.size(); ++j)
      ASSERT_EQ(row[j], oracle.deps[i][j])
          << kernel.name << " deps[" << i << "][" << j << "]";
    oracle_edges += oracle.deps[i].size();
  }
  EXPECT_EQ(csr.edge_count(), oracle_edges) << kernel.name;

  for (std::size_t id = 0; id < oracle.defs_by_id.size(); ++id) {
    const auto row = csr.defs_of_id(static_cast<int>(id));
    ASSERT_EQ(row.size(), oracle.defs_by_id[id].size())
        << kernel.name << " defs of id " << id;
    for (std::size_t j = 0; j < row.size(); ++j)
      ASSERT_EQ(row[j], oracle.defs_by_id[id][j])
          << kernel.name << " defs_of[" << id << "][" << j << "]";
  }

  const Slice slice = compute_slice(kernel, csr);
  const OracleSlice expected = oracle_slice(kernel, oracle);
  std::size_t expected_size = 0;
  for (std::size_t i = 0; i < expected.in_slice.size(); ++i) {
    ASSERT_EQ(slice.in_slice[i] != 0, expected.in_slice[i])
        << kernel.name << " in_slice[" << i << "]";
    if (expected.in_slice[i]) ++expected_size;
  }
  EXPECT_EQ(slice.slice_size(), expected_size) << kernel.name;
  EXPECT_EQ(slice.tracked_count(), expected.tracked.size()) << kernel.name;
  for (std::size_t id = 0; id < kernel.register_count(); ++id)
    EXPECT_EQ(slice.tracks_id(static_cast<int>(id)),
              expected.tracked.count(kernel.register_names[id]) > 0)
        << kernel.name << " tracked " << kernel.register_names[id];
}

TEST(CsrDifferential, EveryLibraryKernelMatchesOracle) {
  const PtxModule& lib = CodeGenerator::parsed_kernel_library();
  ASSERT_FALSE(lib.kernels.empty());
  for (const PtxKernel& kernel : lib.kernels)
    expect_graph_and_slice_match(kernel);
}

TEST(CsrDifferential, HandKernelsMatchOracle) {
  // Shapes the library under-exercises: multiple defs of one register,
  // guarded non-branch instructions, registers read before any def.
  const PtxModule mod = parse_ptx(R"(
.visible .entry redefs(
  .param .u32 p_n
) {
  .reg .pred %p<3>;
  .reg .u32 %r<6>;
  mov.u32 %r1, %tid.x;
  ld.param.u32 %r2, [p_n];
  mov.u32 %r3, 0;
LOOP:
  add.s32 %r3, %r3, 1;
  add.s32 %r4, %r3, %r5;
  setp.lt.s32 %p1, %r3, %r2;
  @%p1 add.s32 %r4, %r4, 2;
  @%p1 bra LOOP;
  ret;
}
)");
  for (const PtxKernel& kernel : mod.kernels)
    expect_graph_and_slice_match(kernel);
}

/// The end-to-end check: symbolic execution on the CSR graph still
/// matches brute-force interpretation (which never touches the graph)
/// for every library kernel across the launch-geometry grid.
struct Geometry {
  std::int64_t grid;
  std::int64_t block;
  std::int64_t n;
};

class CsrCountDifferential : public ::testing::TestWithParam<Geometry> {};

/// One argument per parameter, in the kernel's order.
std::vector<std::int64_t> default_args(const PtxKernel& kernel,
                                       std::int64_t n) {
  std::vector<std::int64_t> args;
  std::int64_t next_addr = 0x10000000;
  for (const KernelParam& p : kernel.params) {
    if (p.type == PtxType::kU64) {
      args.push_back(next_addr);
      next_addr += 0x100000;
    } else if (p.name == "p_window") {
      args.push_back(9);
    } else if (p.name == "p_c") {
      args.push_back(7);
    } else if (p.name == "p_kt") {
      args.push_back(3);
    } else if (p.name == "p_hw") {
      args.push_back(49);
    } else if (kernel.name == "gp_gemm" && p.name == "p_n") {
      args.push_back(16);
    } else {
      args.push_back(n);
    }
  }
  return args;
}

TEST_P(CsrCountDifferential, CountsMatchInterpreter) {
  const Geometry geo = GetParam();
  const PtxModule& lib = CodeGenerator::parsed_kernel_library();
  for (const PtxKernel& kernel : lib.kernels) {
    KernelLaunch launch;
    launch.kernel = kernel.name;
    launch.grid_dim = geo.grid;
    launch.block_dim = geo.block;
    launch.args = default_args(kernel, geo.n);
    const ExecutionCounts sc = SymbolicExecutor(kernel).run(launch);
    const ThreadCounts ic = Interpreter(kernel).run_all(launch);
    EXPECT_EQ(sc.total, ic.total)
        << kernel.name << " grid=" << geo.grid << " block=" << geo.block;
    for (std::size_t c = 0; c < sc.by_class.size(); ++c)
      EXPECT_EQ(sc.by_class[c], ic.by_class[c]) << kernel.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CsrCountDifferential,
    ::testing::Values(Geometry{1, 256, 1}, Geometry{1, 256, 255},
                      Geometry{2, 256, 257}, Geometry{3, 256, 700}));

}  // namespace
}  // namespace gpuperf::ptx
