// Differential fuzz target for the symbolic executor.  The bytes decode
// into a small kernel inside the fragment the executor supports — an
// optional guard on an affine thread index, up to two nested
// parameter-bound counted loops, affine index arithmetic feeding both —
// and a launch of at most 8 blocks × 64 threads.  SymbolicExecutor::run
// must count exactly what Interpreter::run_all counts by running every
// thread: the same total and the same per-class counts.  Any difference,
// and any exception from either engine, aborts the process.
//
// Layout (missing bytes read as 0):
//   grid (1 + b % 8), block (1 + b % 64);
//   index: base (b % 4: gid, tid, ctaid, ctaid - tid), chain length
//     (b % 4), then per link a kind (b % 5: add, sub, mul, shl, mad by
//     p_k) and an immediate (b % 4);
//   guard: mode (b % 4: none, skip when true, skip when false, skip
//     when true with the bound on the left), compare (b % 6), p_n (b);
//   p_k (b % 4);
//   loops: count (b % 3); per loop, outermost first, a start (b % 4:
//     0, tid, ctaid, bound - ctaid), a step (1 + b % 3), a shape (b % 3:
//     count up while lt the bound, count up while le, count down from
//     the bound while gt 0) and the bound parameter's value (b % 9).
// Every counter moves by a positive step towards its bound, so every
// loop ends within 9 trips past its start; products always have one
// constant side, so every value a branch reads stays affine; the grid
// caps mixed ctaid rows at 8.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "ptx/interpreter.hpp"
#include "ptx/module.hpp"
#include "ptx/symexec.hpp"

namespace {

using namespace gpuperf::ptx;
using i64 = std::int64_t;

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  unsigned take() { return pos_ < size_ ? data_[pos_++] : 0u; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

Operand reg(const char* prefix, int i) {
  return RegOperand{prefix + std::to_string(i)};
}
Operand imm(i64 v) { return ImmOperand{static_cast<double>(v), false}; }
Operand param(const char* name) { return MemOperand{name, 0}; }
Operand label(const char* name) { return LabelOperand{name}; }
Operand special(SpecialReg r) { return SpecialOperand{r}; }

/// A kernel under construction, in the style of ptx/synthetic.
class Builder {
 public:
  Builder() {
    k_.name = "fuzz_dca";
    k_.params = {{"p_out", PtxType::kU64, true},
                 {"p_n", PtxType::kU32, false},
                 {"p_k", PtxType::kU32, false},
                 {"p_a", PtxType::kU32, false},
                 {"p_b", PtxType::kU32, false}};
    k_.reg_decls = {{PtxType::kPred, "%p", 4},
                    {PtxType::kU32, "%r", 24},
                    {PtxType::kU64, "%rd", 4},
                    {PtxType::kF32, "%f", 4}};
  }

  Instruction& emit(Opcode op, PtxType type, std::vector<Operand> dsts,
                    std::vector<Operand> srcs,
                    StateSpace space = StateSpace::kNone) {
    Instruction inst;
    inst.opcode = op;
    inst.type = type;
    inst.space = space;
    inst.dsts = std::move(dsts);
    inst.srcs = std::move(srcs);
    k_.instructions.push_back(std::move(inst));
    return k_.instructions.back();
  }
  void setp(CompareOp cmp, Operand dst, Operand a, Operand b) {
    emit(Opcode::kSetp, PtxType::kS32, {std::move(dst)},
         {std::move(a), std::move(b)})
        .cmp = cmp;
  }
  void branch(const char* target, std::string guard, bool negated) {
    Instruction& bra =
        emit(Opcode::kBra, PtxType::kU32, {}, {label(target)});
    bra.guard = std::move(guard);
    bra.guard_negated = negated;
  }
  void mark(const char* name) { k_.labels[name] = k_.instructions.size(); }

  PtxKernel finish() {
    k_.intern_registers();
    return std::move(k_);
  }

 private:
  PtxKernel k_;
};

struct Case {
  PtxKernel kernel;
  KernelLaunch launch;
};

Case decode(Reader& in) {
  Builder b;
  const i64 grid = 1 + in.take() % 8;
  const i64 block = 1 + in.take() % 64;

  // %r1 tid, %r2 ctaid, %r3 ntid, %r4 the index base, %r5 the index.
  b.emit(Opcode::kMov, PtxType::kU32, {reg("%r", 1)},
         {special(SpecialReg::kTidX)});
  b.emit(Opcode::kMov, PtxType::kU32, {reg("%r", 2)},
         {special(SpecialReg::kCtaidX)});
  b.emit(Opcode::kMov, PtxType::kU32, {reg("%r", 3)},
         {special(SpecialReg::kNtidX)});
  switch (in.take() % 4) {
    case 0:  // gid
      b.emit(Opcode::kMad, PtxType::kS32, {reg("%r", 4)},
             {reg("%r", 2), reg("%r", 3), reg("%r", 1)});
      break;
    case 1:
      b.emit(Opcode::kMov, PtxType::kU32, {reg("%r", 4)}, {reg("%r", 1)});
      break;
    case 2:
      b.emit(Opcode::kMov, PtxType::kU32, {reg("%r", 4)}, {reg("%r", 2)});
      break;
    default:
      b.emit(Opcode::kSub, PtxType::kS32, {reg("%r", 4)},
             {reg("%r", 2), reg("%r", 1)});
      break;
  }
  b.emit(Opcode::kLd, PtxType::kU32, {reg("%r", 6)}, {param("p_k")},
         StateSpace::kParam);
  const unsigned links = in.take() % 4;
  b.emit(Opcode::kMov, PtxType::kU32, {reg("%r", 5)}, {reg("%r", 4)});
  for (unsigned i = 0; i < links; ++i) {
    const unsigned kind = in.take() % 5;
    const i64 v = in.take() % 4;
    switch (kind) {
      case 0:
        b.emit(Opcode::kAdd, PtxType::kS32, {reg("%r", 5)},
               {reg("%r", 5), imm(v)});
        break;
      case 1:
        b.emit(Opcode::kSub, PtxType::kS32, {reg("%r", 5)},
               {reg("%r", 5), imm(v)});
        break;
      case 2:
        b.emit(Opcode::kMul, PtxType::kS32, {reg("%r", 5)},
               {reg("%r", 5), imm(v)});
        break;
      case 3:
        b.emit(Opcode::kShl, PtxType::kB32, {reg("%r", 5)},
               {reg("%r", 5), imm(v % 3)});
        break;
      default:
        b.emit(Opcode::kMad, PtxType::kS32, {reg("%r", 5)},
               {reg("%r", 5), reg("%r", 6), imm(v)});
        break;
    }
  }

  const unsigned guard = in.take() % 4;
  const auto guard_cmp = static_cast<CompareOp>(in.take() % 6);
  const i64 p_n = in.take();
  const i64 p_k = in.take() % 4;
  if (guard != 0) {
    b.emit(Opcode::kLd, PtxType::kU32, {reg("%r", 7)}, {param("p_n")},
           StateSpace::kParam);
    if (guard == 3)
      b.setp(guard_cmp, reg("%p", 1), reg("%r", 7), reg("%r", 5));
    else
      b.setp(guard_cmp, reg("%p", 1), reg("%r", 5), reg("%r", 7));
    b.branch("EXIT", "%p1", guard == 2);
  }

  // Data work off the slice: counted, never evaluated.
  b.emit(Opcode::kLd, PtxType::kU64, {reg("%rd", 1)}, {param("p_out")},
         StateSpace::kParam);
  b.emit(Opcode::kMulWide, PtxType::kS32, {reg("%rd", 2)},
         {reg("%r", 5), imm(4)});
  b.emit(Opcode::kAdd, PtxType::kU64, {reg("%rd", 3)},
         {reg("%rd", 1), reg("%rd", 2)});

  const unsigned loops = in.take() % 3;
  struct Loop {
    unsigned shape;
    i64 step;
    int counter, bound, pred;  // %r, %r and %p registers
    const char* head;
  };
  std::vector<Loop> open;
  i64 bounds[2] = {0, 0};
  const char* heads[2] = {"OUTER", "INNER"};
  for (unsigned l = 0; l < loops; ++l) {
    const unsigned init = in.take() % 4;
    const i64 step = 1 + in.take() % 3;
    const unsigned shape = in.take() % 3;
    bounds[l] = in.take() % 9;
    const int n = static_cast<int>(l);
    Loop loop{shape, step, 10 + 2 * n, 11 + 2 * n, 2 + n, heads[l]};
    b.emit(Opcode::kLd, PtxType::kU32, {reg("%r", loop.bound)},
           {param(l == 0 ? "p_a" : "p_b")}, StateSpace::kParam);
    if (shape == 2) {
      // Count down from the bound: while (i > 0).
      b.emit(Opcode::kMov, PtxType::kU32, {reg("%r", loop.counter)},
             {reg("%r", loop.bound)});
    } else {
      switch (init) {
        case 0:
          b.emit(Opcode::kMov, PtxType::kU32, {reg("%r", loop.counter)},
                 {imm(0)});
          break;
        case 1:
          b.emit(Opcode::kMov, PtxType::kU32, {reg("%r", loop.counter)},
                 {reg("%r", 1)});
          break;
        case 2:
          b.emit(Opcode::kMov, PtxType::kU32, {reg("%r", loop.counter)},
                 {reg("%r", 2)});
          break;
        default:
          b.emit(Opcode::kSub, PtxType::kS32, {reg("%r", loop.counter)},
                 {reg("%r", loop.bound), reg("%r", 2)});
          break;
      }
    }
    b.mark(loop.head);
    b.emit(Opcode::kLd, PtxType::kF32, {reg("%f", 1 + static_cast<int>(l))},
           {Operand{MemOperand{"%rd3", 0}}}, StateSpace::kGlobal);
    open.push_back(loop);
  }

  b.emit(Opcode::kFma, PtxType::kF32, {reg("%f", 3)},
         {reg("%f", 1), reg("%f", 2), reg("%f", 3)});
  b.emit(Opcode::kSt, PtxType::kF32, {},
         {Operand{MemOperand{"%rd3", 0}}, reg("%f", 3)}, StateSpace::kGlobal);

  for (auto it = open.rbegin(); it != open.rend(); ++it) {
    const Loop& loop = *it;
    if (loop.shape == 2) {
      b.emit(Opcode::kSub, PtxType::kS32, {reg("%r", loop.counter)},
             {reg("%r", loop.counter), imm(loop.step)});
      b.setp(CompareOp::kGt, reg("%p", loop.pred), reg("%r", loop.counter),
             imm(0));
    } else {
      b.emit(Opcode::kAdd, PtxType::kS32, {reg("%r", loop.counter)},
             {reg("%r", loop.counter), imm(loop.step)});
      b.setp(loop.shape == 0 ? CompareOp::kLt : CompareOp::kLe,
             reg("%p", loop.pred), reg("%r", loop.counter),
             reg("%r", loop.bound));
    }
    b.branch(loop.head, "%p" + std::to_string(loop.pred), false);
  }
  b.mark("EXIT");
  b.emit(Opcode::kRet, PtxType::kU32, {}, {});

  Case out{b.finish(), {}};
  out.launch = bind_launch(out.kernel, grid, block,
                           {{"p_out", 0x10000000},
                            {"p_n", p_n},
                            {"p_k", p_k},
                            {"p_a", bounds[0]},
                            {"p_b", bounds[1]}});
  return out;
}

[[noreturn]] void fail(const Case& c, const std::string& what) {
  std::fprintf(stderr, "symbolic execution differs from the interpreter: %s\n"
               "launch grid=%lld block=%lld p_n=%lld p_k=%lld p_a=%lld "
               "p_b=%lld\n%s\n",
               what.c_str(), static_cast<long long>(c.launch.grid_dim),
               static_cast<long long>(c.launch.block_dim),
               static_cast<long long>(c.launch.args[1]),
               static_cast<long long>(c.launch.args[2]),
               static_cast<long long>(c.launch.args[3]),
               static_cast<long long>(c.launch.args[4]),
               c.kernel.to_ptx().c_str());
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  Reader in(data, size);
  const Case c = decode(in);
  ExecutionCounts got;
  ThreadCounts want;
  try {
    want = Interpreter(c.kernel).run_all(c.launch);
  } catch (const std::exception& e) {
    fail(c, std::string("the interpreter threw: ") + e.what());
  }
  try {
    got = SymbolicExecutor(c.kernel).run(c.launch);
  } catch (const std::exception& e) {
    fail(c, std::string("the symbolic executor threw: ") + e.what());
  }
  if (got.total != want.total)
    fail(c, "total " + std::to_string(got.total) + " vs " +
                std::to_string(want.total));
  for (std::size_t i = 0; i < want.by_class.size(); ++i)
    if (got.by_class[i] != want.by_class[i])
      fail(c, std::string("class ") +
                  op_class_name(static_cast<OpClass>(i)) + " " +
                  std::to_string(got.by_class[i]) + " vs " +
                  std::to_string(want.by_class[i]));
  return 0;
}
