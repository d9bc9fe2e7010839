#include "ptx/interpreter.hpp"

#include <cmath>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"

namespace gpuperf::ptx {

namespace {

/// A concrete register value: integer and float views kept in sync
/// loosely (our kernels never reinterpret bits in ways that matter to
/// control flow).
struct Cell {
  std::int64_t i = 0;
  double f = 0.0;
  bool pred = false;
};

}  // namespace

ThreadCounts Interpreter::run_thread(const KernelLaunch& launch,
                                     std::int64_t ctaid, std::int64_t tid,
                                     const Deadline& deadline) const {
  GP_CHECK(ctaid >= 0 && ctaid < launch.grid_dim);
  GP_CHECK(tid >= 0 && tid < launch.block_dim);
  check_arity(kernel_, launch);

  std::vector<Cell> regs(kernel_.register_count());
  std::unordered_map<std::int64_t, double> shared;

  ThreadCounts counts;
  std::size_t pc = 0;
  constexpr std::int64_t kStepLimit = 200'000'000;

  auto cell = [&](const Operand& op) -> Cell {
    if (const auto* r = std::get_if<RegOperand>(&op)) {
      GP_DCHECK(r->id >= 0 && static_cast<std::size_t>(r->id) < regs.size());
      return regs[r->id];
    }
    if (const auto* imm = std::get_if<ImmOperand>(&op)) {
      Cell c;
      c.f = imm->value;
      c.i = imm->ivalue();
      return c;
    }
    if (const auto* sr = std::get_if<SpecialOperand>(&op)) {
      Cell c;
      switch (sr->reg) {
        case SpecialReg::kTidX: c.i = tid; break;
        case SpecialReg::kCtaidX: c.i = ctaid; break;
        case SpecialReg::kNtidX: c.i = launch.block_dim; break;
        case SpecialReg::kNctaidX: c.i = launch.grid_dim; break;
      }
      c.f = static_cast<double>(c.i);
      return c;
    }
    GP_CHECK_MSG(false, "unexpected operand kind in value position");
  };

  auto store = [&](const Operand& op, Cell c) {
    const auto* r = std::get_if<RegOperand>(&op);
    GP_CHECK(r != nullptr && r->id >= 0);
    regs[r->id] = c;
  };

  auto mem_address = [&](const MemOperand& mem) -> std::int64_t {
    if (mem.base_reg_id >= 0) return regs[mem.base_reg_id].i + mem.offset;
    return mem.offset;  // parameter bases handled separately
  };

  while (pc < kernel_.instructions.size()) {
    GP_CHECK_MSG(counts.total < kStepLimit,
                 "interpreter step limit in " << kernel_.name);
    deadline.charge(kernel_.name.c_str());
    const Instruction& inst = kernel_.instructions[pc];
    ++counts.total;
    ++counts.by_class[static_cast<std::size_t>(
        classify(inst.opcode, inst.type, inst.space))];

    bool guard_pass = true;
    if (inst.guard_id >= 0) {
      const bool p = regs[inst.guard_id].pred;
      guard_pass = inst.guard_negated ? !p : p;
    }

    const bool is_f = is_float_type(inst.type);
    auto src = [&](std::size_t i) { return cell(inst.srcs[i]); };
    auto set_int = [&](std::int64_t v) {
      Cell c;
      c.i = v;
      c.f = static_cast<double>(v);
      store(inst.dsts.front(), c);
    };
    auto set_f = [&](double v) {
      Cell c;
      c.f = v;
      c.i = static_cast<std::int64_t>(v);
      store(inst.dsts.front(), c);
    };

    if (!guard_pass) {
      if (inst.is_branch()) {
        ++pc;
        continue;
      }
      // Our codegen only guards branches, but predicated ALU ops would
      // simply be skipped here.
      ++pc;
      continue;
    }

    switch (inst.opcode) {
      case Opcode::kMov:
      case Opcode::kCvta:
        store(inst.dsts.front(), src(0));
        break;
      case Opcode::kCvt: {
        Cell a = src(0);
        if (is_f)
          set_f(a.f);
        else
          set_int(a.i);
        break;
      }
      case Opcode::kLd: {
        const auto* mem = std::get_if<MemOperand>(&inst.srcs.front());
        GP_CHECK(mem != nullptr);
        if (inst.space == StateSpace::kParam) {
          GP_CHECK_MSG(mem->param_slot >= 0,
                       "ld.param of undeclared parameter '" << mem->base
                                                             << "'");
          set_int(launch.args[static_cast<std::size_t>(mem->param_slot)]);
        } else if (inst.space == StateSpace::kShared) {
          const auto it = shared.find(mem_address(*mem));
          set_f(it == shared.end() ? 0.0 : it->second);
        } else {
          set_f(0.0);  // global memory contents are immaterial to counts
        }
        break;
      }
      case Opcode::kSt: {
        if (inst.space == StateSpace::kShared) {
          const auto* mem = std::get_if<MemOperand>(&inst.srcs.front());
          GP_CHECK(mem != nullptr);
          shared[mem_address(*mem)] = cell(inst.srcs[1]).f;
        }
        break;
      }
      case Opcode::kAdd:
        is_f ? set_f(src(0).f + src(1).f) : set_int(src(0).i + src(1).i);
        break;
      case Opcode::kSub:
        is_f ? set_f(src(0).f - src(1).f) : set_int(src(0).i - src(1).i);
        break;
      case Opcode::kMul:
      case Opcode::kMulLo:
      case Opcode::kMulWide:
        is_f ? set_f(src(0).f * src(1).f) : set_int(src(0).i * src(1).i);
        break;
      case Opcode::kMad:
        set_int(src(0).i * src(1).i + src(2).i);
        break;
      case Opcode::kFma:
        set_f(src(0).f * src(1).f + src(2).f);
        break;
      case Opcode::kDiv: {
        if (is_f) {
          set_f(src(1).f == 0.0 ? 0.0 : src(0).f / src(1).f);
        } else {
          GP_CHECK_MSG(src(1).i != 0, "integer division by zero");
          set_int(src(0).i / src(1).i);
        }
        break;
      }
      case Opcode::kRem:
        GP_CHECK_MSG(src(1).i != 0, "integer remainder by zero");
        set_int(src(0).i % src(1).i);
        break;
      case Opcode::kAnd: set_int(src(0).i & src(1).i); break;
      case Opcode::kOr: set_int(src(0).i | src(1).i); break;
      case Opcode::kXor: set_int(src(0).i ^ src(1).i); break;
      case Opcode::kNot: set_int(~src(0).i); break;
      case Opcode::kShl: set_int(src(0).i << (src(1).i & 63)); break;
      case Opcode::kShr: set_int(src(0).i >> (src(1).i & 63)); break;
      case Opcode::kMin:
        is_f ? set_f(std::min(src(0).f, src(1).f))
             : set_int(std::min(src(0).i, src(1).i));
        break;
      case Opcode::kMax:
        is_f ? set_f(std::max(src(0).f, src(1).f))
             : set_int(std::max(src(0).i, src(1).i));
        break;
      case Opcode::kNeg:
        is_f ? set_f(-src(0).f) : set_int(-src(0).i);
        break;
      case Opcode::kAbs:
        is_f ? set_f(std::fabs(src(0).f)) : set_int(std::abs(src(0).i));
        break;
      case Opcode::kRcp:
        set_f(src(0).f == 0.0 ? 0.0 : 1.0 / src(0).f);
        break;
      case Opcode::kSqrt:
        set_f(std::sqrt(std::max(src(0).f, 0.0)));
        break;
      case Opcode::kEx2:
        set_f(std::exp2(std::min(src(0).f, 80.0)));
        break;
      case Opcode::kLg2:
        set_f(src(0).f <= 0.0 ? -80.0 : std::log2(src(0).f));
        break;
      case Opcode::kSetp: {
        const Cell a = src(0);
        const Cell b = src(1);
        bool result = false;
        const bool fcmp = is_f;
        auto cmp = [&](auto x, auto y) {
          switch (*inst.cmp) {
            case CompareOp::kLt: return x < y;
            case CompareOp::kLe: return x <= y;
            case CompareOp::kGt: return x > y;
            case CompareOp::kGe: return x >= y;
            case CompareOp::kEq: return x == y;
            case CompareOp::kNe: return x != y;
          }
          return false;
        };
        result = fcmp ? cmp(a.f, b.f) : cmp(a.i, b.i);
        Cell c;
        c.pred = result;
        c.i = result ? 1 : 0;
        store(inst.dsts.front(), c);
        break;
      }
      case Opcode::kSelp: {
        const auto* pr = std::get_if<RegOperand>(&inst.srcs[2]);
        GP_CHECK(pr != nullptr && pr->id >= 0);
        const bool p = regs[pr->id].pred;
        store(inst.dsts.front(), p ? src(0) : src(1));
        break;
      }
      case Opcode::kBar:
        break;  // single-thread interpretation: no-op
      case Opcode::kBra: {
        const auto* label = std::get_if<LabelOperand>(&inst.srcs.front());
        GP_CHECK(label != nullptr);
        pc = kernel_.label_target(label->name);
        continue;
      }
      case Opcode::kRet:
        return counts;
    }
    ++pc;
  }
  return counts;  // fell off the end (no ret) — treated as exit
}

ThreadCounts Interpreter::run_all(const KernelLaunch& launch,
                                  const Deadline& deadline) const {
  ThreadCounts total;
  for (std::int64_t ct = 0; ct < launch.grid_dim; ++ct) {
    for (std::int64_t t = 0; t < launch.block_dim; ++t) {
      const ThreadCounts c = run_thread(launch, ct, t, deadline);
      total.total += c.total;
      for (std::size_t i = 0; i < c.by_class.size(); ++i)
        total.by_class[i] += c.by_class[i];
    }
  }
  return total;
}

}  // namespace gpuperf::ptx
