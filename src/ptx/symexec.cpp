#include "ptx/symexec.hpp"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "common/check.hpp"
#include "ptx/depgraph.hpp"

namespace gpuperf::ptx {

ExecutionCounts& ExecutionCounts::operator+=(const ExecutionCounts& other) {
  total += other.total;
  for (std::size_t i = 0; i < by_class.size(); ++i)
    by_class[i] += other.by_class[i];
  if (block_exec.size() < other.block_exec.size())
    block_exec.resize(other.block_exec.size(), 0);
  for (std::size_t i = 0; i < other.block_exec.size(); ++i)
    block_exec[i] += other.block_exec[i];
  return *this;
}

namespace {

using i64 = std::int64_t;
using i128 = __int128;

i64 div_floor(i64 a, i64 b) {
  GP_DCHECK(b != 0);
  i64 q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

i64 div_ceil(i64 a, i64 b) { return -div_floor(-a, b); }

/// Affine value / predicate over (ctaid, tid).
struct Value {
  enum class Kind { kUnknown, kInt, kPred };
  Kind kind = Kind::kUnknown;
  // kInt: c0 + c_ct*ctaid + c_t*tid.
  // kPred: cmp(c0 + c_ct*ctaid + c_t*tid, 0).
  i64 c0 = 0, c_ct = 0, c_t = 0;
  CompareOp op = CompareOp::kLt;

  static Value unknown() { return Value{}; }
  static Value constant(i64 v) {
    Value out;
    out.kind = Kind::kInt;
    out.c0 = v;
    return out;
  }
  bool is_const() const {
    return kind == Kind::kInt && c_ct == 0 && c_t == 0;
  }
};

/// Half-open launch sub-box.
struct Box {
  i64 ct_lo = 0, ct_hi = 0, t_lo = 0, t_hi = 0;
  i64 weight() const { return (ct_hi - ct_lo) * (t_hi - t_lo); }
  bool empty() const { return ct_lo >= ct_hi || t_lo >= t_hi; }
};

/// Min/max of an affine form over a box (corners of a monotone form).
void affine_range(const Value& v, const Box& box, i64& lo, i64& hi) {
  GP_DCHECK(v.kind != Value::Kind::kUnknown);
  i128 min_v = v.c0, max_v = v.c0;
  auto extend = [&](i64 coef, i64 a_lo, i64 a_hi_inclusive) {
    if (coef == 0) return;
    const i128 x = static_cast<i128>(coef) * a_lo;
    const i128 y = static_cast<i128>(coef) * a_hi_inclusive;
    min_v += x < y ? x : y;
    max_v += x > y ? x : y;
  };
  extend(v.c_ct, box.ct_lo, box.ct_hi - 1);
  extend(v.c_t, box.t_lo, box.t_hi - 1);
  GP_CHECK_MSG(min_v >= INT64_MIN / 2 && max_v <= INT64_MAX / 2,
               "affine range overflow");
  lo = static_cast<i64>(min_v);
  hi = static_cast<i64>(max_v);
}

enum class Tri { kTrue, kFalse, kMixed };

Tri eval_pred_range(CompareOp op, i64 dmin, i64 dmax) {
  switch (op) {
    case CompareOp::kLt:
      if (dmax < 0) return Tri::kTrue;
      if (dmin >= 0) return Tri::kFalse;
      return Tri::kMixed;
    case CompareOp::kLe:
      if (dmax <= 0) return Tri::kTrue;
      if (dmin > 0) return Tri::kFalse;
      return Tri::kMixed;
    case CompareOp::kGt:
      if (dmin > 0) return Tri::kTrue;
      if (dmax <= 0) return Tri::kFalse;
      return Tri::kMixed;
    case CompareOp::kGe:
      if (dmin >= 0) return Tri::kTrue;
      if (dmax < 0) return Tri::kFalse;
      return Tri::kMixed;
    case CompareOp::kEq:
      if (dmin == 0 && dmax == 0) return Tri::kTrue;
      if (dmin > 0 || dmax < 0) return Tri::kFalse;
      return Tri::kMixed;
    case CompareOp::kNe:
      if (dmin > 0 || dmax < 0) return Tri::kTrue;
      if (dmin == 0 && dmax == 0) return Tri::kFalse;
      return Tri::kMixed;
  }
  return Tri::kMixed;
}

Tri eval_pred(const Value& pred, const Box& box) {
  i64 lo, hi;
  affine_range(pred, box, lo, hi);
  return eval_pred_range(pred.op, lo, hi);
}

/// One-variable split: regions of x in [lo, hi) by cmp(c0 + c1*x, 0).
struct Range1 {
  i64 lo, hi;
  bool truth;
};

std::vector<Range1> split_1d(i64 c0, i64 c1, i64 lo, i64 hi, CompareOp op) {
  std::vector<Range1> out;
  auto push = [&](i64 a, i64 b, bool truth) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (a < b) out.push_back(Range1{a, b, truth});
  };
  if (c1 == 0) {
    const Tri t = eval_pred_range(op, c0, c0);
    push(lo, hi, t == Tri::kTrue);
    return out;
  }
  // d(x) = c0 + c1*x, strictly monotone over the integers.
  switch (op) {
    case CompareOp::kLt:
    case CompareOp::kLe:
    case CompareOp::kGt:
    case CompareOp::kGe: {
      // Find the first x where the predicate is false (monotone flip).
      // Normalize to "d(x) < bound" style via direction analysis:
      // predicate truth is monotone in x, so binary-free threshold math
      // suffices.
      const bool true_at_low_d = op == CompareOp::kLt || op == CompareOp::kLe;
      // Threshold on d: lt -> d < 0; le -> d <= 0; gt -> d > 0; ge -> d >= 0.
      // first x with d(x) >= 0 is x0 = ceil(-c0 / c1) for c1 > 0.
      if (c1 > 0) {
        const i64 x_ge0 = div_ceil(-c0, c1);          // d >= 0 from here
        const i64 x_gt0 = div_floor(-c0, c1) + 1;     // d > 0 from here
        switch (op) {
          case CompareOp::kLt:
            push(lo, x_ge0, true);
            push(x_ge0, hi, false);
            break;
          case CompareOp::kLe:
            push(lo, x_gt0, true);
            push(x_gt0, hi, false);
            break;
          case CompareOp::kGt:
            push(lo, x_gt0, false);
            push(x_gt0, hi, true);
            break;
          case CompareOp::kGe:
            push(lo, x_ge0, false);
            push(x_ge0, hi, true);
            break;
          default:
            break;
        }
      } else {
        // Decreasing d: mirror by substituting x -> -x.
        std::vector<Range1> mirrored =
            split_1d(c0, -c1, -(hi - 1), -lo + 1, op);
        for (const Range1& r : mirrored)
          push(-(r.hi - 1), -r.lo + 1, r.truth);
        std::sort(out.begin(), out.end(),
                  [](const Range1& a, const Range1& b) { return a.lo < b.lo; });
      }
      (void)true_at_low_d;
      break;
    }
    case CompareOp::kEq: {
      if ((-c0) % c1 == 0) {
        const i64 x0 = (-c0) / c1;
        push(lo, x0, false);
        push(x0, x0 + 1, true);
        push(x0 + 1, hi, false);
      } else {
        push(lo, hi, false);
      }
      break;
    }
    case CompareOp::kNe: {
      if ((-c0) % c1 == 0) {
        const i64 x0 = (-c0) / c1;
        push(lo, x0, true);
        push(x0, x0 + 1, false);
        push(x0 + 1, hi, true);
      } else {
        push(lo, hi, true);
      }
      break;
    }
  }
  return out;
}

/// Partition a box by a predicate into homogeneous sub-boxes.
std::vector<std::pair<Box, bool>> split_box(const Value& pred,
                                            const Box& box) {
  std::vector<std::pair<Box, bool>> out;
  if (pred.c_t == 0) {
    for (const Range1& r :
         split_1d(pred.c0, pred.c_ct, box.ct_lo, box.ct_hi, pred.op)) {
      Box b = box;
      b.ct_lo = r.lo;
      b.ct_hi = r.hi;
      out.push_back({b, r.truth});
    }
    return out;
  }
  if (pred.c_ct == 0) {
    for (const Range1& r :
         split_1d(pred.c0, pred.c_t, box.t_lo, box.t_hi, pred.op)) {
      Box b = box;
      b.t_lo = r.lo;
      b.t_hi = r.hi;
      out.push_back({b, r.truth});
    }
    return out;
  }

  // General case: classify each ctaid row; rows that are uniformly
  // true/false group into 1-d runs, mixed rows split over tid.  Our
  // kernels produce at most one mixed row per box (gid guards), so the
  // enumeration cap is generous.
  i64 mixed_rows = 0;
  i64 run_lo = box.ct_lo;
  Tri run_tri = Tri::kMixed;
  bool run_open = false;
  auto close_run = [&](i64 end) {
    if (run_open && run_lo < end) {
      Box b = box;
      b.ct_lo = run_lo;
      b.ct_hi = end;
      out.push_back({b, run_tri == Tri::kTrue});
    }
    run_open = false;
  };
  for (i64 ct = box.ct_lo; ct < box.ct_hi; ++ct) {
    Value row = pred;
    row.c0 += pred.c_ct * ct;
    row.c_ct = 0;
    Box row_box = box;
    row_box.ct_lo = ct;
    row_box.ct_hi = ct + 1;
    const Tri tri = eval_pred(row, row_box);
    if (tri == Tri::kMixed) {
      close_run(ct);
      GP_CHECK_MSG(++mixed_rows <= 64,
                   "unsupported divergence pattern (too many mixed rows)");
      for (const Range1& r :
           split_1d(row.c0, row.c_t, box.t_lo, box.t_hi, row.op)) {
        Box b = row_box;
        b.t_lo = r.lo;
        b.t_hi = r.hi;
        out.push_back({b, r.truth});
      }
    } else {
      if (!run_open || tri != run_tri) {
        close_run(ct);
        run_open = true;
        run_lo = ct;
        run_tri = tri;
      }
    }
  }
  close_run(box.ct_hi);
  return out;
}

// Dense environment indexed by interned register id; a default
// (kUnknown) entry plays the role the old string-keyed map gave to an
// absent key, so no per-step hashing remains on the hot path.
using Env = std::vector<Value>;

/// Back-edge snapshot for loop acceleration.
struct Snapshot {
  Env env;
  std::vector<i64> counts;
  i64 pred_c0 = 0;
};

struct State {
  Box box;
  std::size_t block = 0;
  Env env;
  std::vector<i64> counts;  // per-block, per-thread
  std::unordered_map<std::size_t, std::deque<Snapshot>> snaps;
};

}  // namespace

struct SymbolicExecutor::Impl {
  PtxKernel kernel;
  Cfg cfg;
  Slice slice;
  // Per-block opclass histograms and sizes.
  std::vector<std::array<i64, kOpClassCount>> block_hist;
  std::vector<i64> block_size;
  // Slots of the kernel parameters read by in-slice ld.param
  // instructions — the only launch arguments that can influence counts
  // (memo key material).
  std::vector<std::size_t> slice_params;

  explicit Impl(PtxKernel k, const Deadline& deadline)
      : kernel(std::move(k)) {
    kernel.intern_registers();  // no-op for parser/codegen output
    cfg = Cfg::build(kernel);
    slice =
        compute_slice(kernel, DependencyGraph::build(kernel, deadline),
                      deadline);
    for (std::size_t i = 0; i < kernel.instructions.size(); ++i) {
      const Instruction& inst = kernel.instructions[i];
      if (!slice.in_slice[i] || inst.opcode != Opcode::kLd ||
          inst.space != StateSpace::kParam)
        continue;
      const auto* mem = std::get_if<MemOperand>(&inst.srcs.front());
      GP_CHECK_MSG(mem != nullptr && mem->param_slot >= 0,
                   "ld.param of an undeclared parameter in " << kernel.name);
      const auto slot = static_cast<std::size_t>(mem->param_slot);
      if (std::find(slice_params.begin(), slice_params.end(), slot) ==
          slice_params.end())
        slice_params.push_back(slot);
    }
    block_hist.resize(cfg.block_count());
    block_size.resize(cfg.block_count());
    for (std::size_t b = 0; b < cfg.block_count(); ++b) {
      const BasicBlock& block = cfg.block(b);
      block_size[b] = static_cast<i64>(block.size());
      auto& hist = block_hist[b];
      hist.fill(0);
      for (std::size_t i = block.first; i <= block.last; ++i) {
        const Instruction& inst = kernel.instructions[i];
        ++hist[static_cast<std::size_t>(
            classify(inst.opcode, inst.type, inst.space))];
      }
    }
  }

  Value eval_operand(const Operand& op, const Env& env,
                     const KernelLaunch& launch) const {
    if (const auto* r = std::get_if<RegOperand>(&op)) {
      GP_DCHECK(r->id >= 0 &&
                static_cast<std::size_t>(r->id) < env.size());
      return env[r->id];
    }
    if (const auto* imm = std::get_if<ImmOperand>(&op)) {
      if (imm->is_float) return Value::unknown();
      return Value::constant(imm->ivalue());
    }
    if (const auto* sr = std::get_if<SpecialOperand>(&op)) {
      Value v;
      v.kind = Value::Kind::kInt;
      switch (sr->reg) {
        case SpecialReg::kTidX: v.c_t = 1; break;
        case SpecialReg::kCtaidX: v.c_ct = 1; break;
        case SpecialReg::kNtidX: v.c0 = launch.block_dim; break;
        case SpecialReg::kNctaidX: v.c0 = launch.grid_dim; break;
      }
      return v;
    }
    return Value::unknown();
  }

  /// Evaluate one slice instruction, updating env.
  void eval_instruction(const Instruction& inst, Env& env,
                        const KernelLaunch& launch) const {
    GP_CHECK_MSG(inst.guard.empty(),
                 "guarded non-branch instruction in slice");
    auto src = [&](std::size_t i) {
      GP_CHECK(i < inst.srcs.size());
      return eval_operand(inst.srcs[i], env, launch);
    };
    auto set_dst = [&](Value v) {
      GP_CHECK(inst.dsts.size() == 1);
      const auto* r = std::get_if<RegOperand>(&inst.dsts.front());
      GP_CHECK(r != nullptr && r->id >= 0);
      env[r->id] = v;
    };
    auto affine_add = [](const Value& a, const Value& b, i64 sign) {
      if (a.kind != Value::Kind::kInt || b.kind != Value::Kind::kInt)
        return Value::unknown();
      Value v;
      v.kind = Value::Kind::kInt;
      v.c0 = a.c0 + sign * b.c0;
      v.c_ct = a.c_ct + sign * b.c_ct;
      v.c_t = a.c_t + sign * b.c_t;
      return v;
    };
    auto affine_mul = [](const Value& a, const Value& b) {
      if (a.kind != Value::Kind::kInt || b.kind != Value::Kind::kInt)
        return Value::unknown();
      const Value* scale = nullptr;
      const Value* other = nullptr;
      if (a.is_const()) {
        scale = &a;
        other = &b;
      } else if (b.is_const()) {
        scale = &b;
        other = &a;
      } else {
        return Value::unknown();
      }
      Value v;
      v.kind = Value::Kind::kInt;
      v.c0 = other->c0 * scale->c0;
      v.c_ct = other->c_ct * scale->c0;
      v.c_t = other->c_t * scale->c0;
      return v;
    };

    const bool is_float = is_float_type(inst.type);
    switch (inst.opcode) {
      case Opcode::kMov:
      case Opcode::kCvt:
      case Opcode::kCvta:
        set_dst(is_float ? Value::unknown() : src(0));
        break;
      case Opcode::kLd: {
        if (inst.space == StateSpace::kParam) {
          // run() checked the argument count; the constructor checked
          // that every in-slice ld.param names a declared parameter.
          const auto* mem = std::get_if<MemOperand>(&inst.srcs.front());
          GP_CHECK(mem != nullptr && mem->offset == 0);
          set_dst(Value::constant(
              launch.args[static_cast<std::size_t>(mem->param_slot)]));
        } else {
          set_dst(Value::unknown());
        }
        break;
      }
      case Opcode::kAdd:
        set_dst(is_float ? Value::unknown()
                         : affine_add(src(0), src(1), +1));
        break;
      case Opcode::kSub:
        set_dst(is_float ? Value::unknown()
                         : affine_add(src(0), src(1), -1));
        break;
      case Opcode::kMul:
      case Opcode::kMulLo:
      case Opcode::kMulWide:
        set_dst(is_float ? Value::unknown() : affine_mul(src(0), src(1)));
        break;
      case Opcode::kMad: {
        if (is_float) {
          set_dst(Value::unknown());
          break;
        }
        const Value prod = affine_mul(src(0), src(1));
        set_dst(affine_add(prod, src(2), +1));
        break;
      }
      case Opcode::kShl: {
        const Value a = src(0);
        const Value s = src(1);
        if (a.kind == Value::Kind::kInt && s.is_const() && s.c0 >= 0 &&
            s.c0 < 63) {
          Value v = a;
          v.c0 <<= s.c0;
          v.c_ct <<= s.c0;
          v.c_t <<= s.c0;
          set_dst(v);
        } else {
          set_dst(Value::unknown());
        }
        break;
      }
      case Opcode::kShr: {
        const Value a = src(0);
        const Value s = src(1);
        if (a.is_const() && s.is_const() && s.c0 >= 0 && s.c0 < 63)
          set_dst(Value::constant(a.c0 >> s.c0));
        else
          set_dst(Value::unknown());
        break;
      }
      case Opcode::kDiv: {
        const Value a = src(0);
        const Value b2 = src(1);
        if (a.is_const() && b2.is_const() && b2.c0 != 0)
          set_dst(Value::constant(a.c0 / b2.c0));
        else
          set_dst(Value::unknown());
        break;
      }
      case Opcode::kRem: {
        const Value a = src(0);
        const Value b2 = src(1);
        if (a.is_const() && b2.is_const() && b2.c0 != 0)
          set_dst(Value::constant(a.c0 % b2.c0));
        else
          set_dst(Value::unknown());
        break;
      }
      case Opcode::kMin:
      case Opcode::kMax: {
        const Value a = src(0);
        const Value b2 = src(1);
        if (a.is_const() && b2.is_const())
          set_dst(Value::constant(inst.opcode == Opcode::kMin
                                      ? std::min(a.c0, b2.c0)
                                      : std::max(a.c0, b2.c0)));
        else
          set_dst(Value::unknown());
        break;
      }
      case Opcode::kSetp: {
        const Value a = src(0);
        const Value b2 = src(1);
        GP_CHECK(inst.cmp.has_value());
        if (a.kind != Value::Kind::kInt || b2.kind != Value::Kind::kInt) {
          Value v;  // unknown predicate — fatal only if branched on
          set_dst(v);
          break;
        }
        Value v;
        v.kind = Value::Kind::kPred;
        v.op = *inst.cmp;
        v.c0 = a.c0 - b2.c0;
        v.c_ct = a.c_ct - b2.c_ct;
        v.c_t = a.c_t - b2.c_t;
        set_dst(v);
        break;
      }
      case Opcode::kSelp: {
        // Not generated in branch-feeding positions; keep unknown.
        set_dst(Value::unknown());
        break;
      }
      case Opcode::kSt:
      case Opcode::kBar:
        break;  // no register effects
      case Opcode::kNeg:
      case Opcode::kAbs: {
        const Value a = src(0);
        if (!is_float && a.kind == Value::Kind::kInt) {
          Value v = a;
          if (inst.opcode == Opcode::kNeg || a.is_const()) {
            if (inst.opcode == Opcode::kNeg) {
              v.c0 = -v.c0;
              v.c_ct = -v.c_ct;
              v.c_t = -v.c_t;
            } else {
              v = Value::constant(std::abs(a.c0));
            }
            set_dst(v);
            break;
          }
        }
        set_dst(Value::unknown());
        break;
      }
      default:
        if (!inst.dsts.empty()) set_dst(Value::unknown());
        break;
    }
  }

  /// Negate a predicate value (for "@!%p" guards).
  static Value negate_pred(Value v) {
    switch (v.op) {
      case CompareOp::kLt: v.op = CompareOp::kGe; break;
      case CompareOp::kLe: v.op = CompareOp::kGt; break;
      case CompareOp::kGt: v.op = CompareOp::kLe; break;
      case CompareOp::kGe: v.op = CompareOp::kLt; break;
      case CompareOp::kEq: v.op = CompareOp::kNe; break;
      case CompareOp::kNe: v.op = CompareOp::kEq; break;
    }
    return v;
  }

  /// Smallest k >= 1 such that the predicate (with diff advanced by
  /// k * delta) is no longer uniformly true over the box; 0 if none
  /// exists (infinite loop).
  i64 first_non_true(const Value& pred, const Box& box, i64 delta) const {
    if (delta == 0) return 0;
    i64 dmin, dmax;
    affine_range(pred, box, dmin, dmax);
    switch (pred.op) {
      case CompareOp::kLt:  // true iff dmax < 0
        if (delta <= 0) return 0;
        return div_ceil(-dmax, delta);
      case CompareOp::kLe:  // true iff dmax <= 0
        if (delta <= 0) return 0;
        return div_floor(-dmax, delta) + 1;
      case CompareOp::kGt:  // true iff dmin > 0
        if (delta >= 0) return 0;
        return div_ceil(dmin, -delta);
      case CompareOp::kGe:  // true iff dmin >= 0
        if (delta >= 0) return 0;
        return div_floor(dmin, -delta) + 1;
      case CompareOp::kEq:
        return 1;  // any nonzero delta breaks equality immediately
      case CompareOp::kNe: {
        // True while 0 outside [dmin, dmax]; interval slides by delta.
        if (delta > 0 && dmax < 0) return div_ceil(-dmax, delta);
        if (delta < 0 && dmin > 0) return div_ceil(dmin, -delta);
        return 0;
      }
    }
    return 0;
  }

  ExecutionCounts run(const KernelLaunch& launch,
                      const Deadline& deadline) const {
    GP_CHECK(launch.grid_dim >= 1 && launch.block_dim >= 1);
    check_arity(kernel, launch);

    std::vector<i64> global_block_exec(cfg.block_count(), 0);

    std::vector<State> work;
    State init;
    init.box = Box{0, launch.grid_dim, 0, launch.block_dim};
    init.block = cfg.entry();
    init.env.assign(kernel.register_count(), Value::unknown());
    init.counts.assign(cfg.block_count(), 0);
    work.push_back(std::move(init));

    std::size_t steps = 0;
    constexpr std::size_t kStepLimit = 50'000'000;

    while (!work.empty()) {
      State st = std::move(work.back());
      work.pop_back();

      for (;;) {
        GP_CHECK_MSG(++steps < kStepLimit,
                     "symbolic execution step limit exceeded in "
                         << kernel.name);
        deadline.charge(kernel.name.c_str());
        const BasicBlock& block = cfg.block(st.block);
        st.counts[st.block] += 1;

        // Evaluate the slice instructions of this block.
        for (std::size_t i = block.first; i <= block.last; ++i) {
          if (!slice.in_slice[i]) continue;
          if (kernel.instructions[i].is_branch()) continue;
          eval_instruction(kernel.instructions[i], st.env, launch);
        }

        const Instruction& term = kernel.instructions[block.last];
        if (term.is_exit()) {
          const i64 w = st.box.weight();
          for (std::size_t b = 0; b < st.counts.size(); ++b)
            global_block_exec[b] += st.counts[b] * w;
          break;
        }

        if (!term.is_branch()) {
          GP_CHECK(block.succs.size() == 1);
          st.block = block.succs.front();
          continue;
        }

        // Branch: unconditional or guarded.
        const auto* label = std::get_if<LabelOperand>(&term.srcs.front());
        GP_CHECK(label != nullptr);
        const std::size_t target =
            cfg.block_of(kernel.label_target(label->name));

        if (term.guard.empty()) {
          st.block = target;
          continue;
        }

        GP_DCHECK(term.guard_id >= 0 &&
                  static_cast<std::size_t>(term.guard_id) < st.env.size());
        GP_CHECK_MSG(st.env[term.guard_id].kind == Value::Kind::kPred,
                     "branch on unknown predicate '"
                         << term.guard << "' in " << kernel.name
                         << " (data-dependent branch?)");
        Value pred = st.env[term.guard_id];
        if (term.guard_negated) pred = negate_pred(pred);

        const Tri tri = eval_pred(pred, st.box);
        if (tri == Tri::kMixed) {
          auto parts = split_box(pred, st.box);
          GP_CHECK_MSG(parts.size() >= 2, "mixed predicate failed to split");
          for (auto& [sub_box, truth] : parts) {
            State child = st;  // env/counts/snaps copied
            child.box = sub_box;
            child.block = truth ? target : (st.block + 1);
            GP_CHECK(truth || st.block + 1 < cfg.block_count());
            work.push_back(std::move(child));
          }
          break;  // children carry on
        }

        const bool taken = tri == Tri::kTrue;
        if (!taken) {
          GP_CHECK_MSG(st.block + 1 < cfg.block_count(),
                       "fallthrough off kernel end");
          st.block = st.block + 1;
          continue;
        }

        // Taken back-edge: try affine loop acceleration.
        if (target <= st.block) {
          auto& history = st.snaps[block.last];
          Snapshot snap;
          snap.env = st.env;
          snap.counts = st.counts;
          snap.pred_c0 = pred.c0;
          history.push_back(std::move(snap));
          if (history.size() > 3) history.pop_front();

          if (history.size() == 3) {
            const Snapshot& s0 = history[0];
            const Snapshot& s1 = history[1];
            const Snapshot& s2 = history[2];
            bool consistent = true;

            // Register deltas must match between consecutive snapshots
            // (affine coefficients unchanged, c0 advancing linearly).
            std::vector<std::pair<int, i64>> reg_delta;
            reg_delta.reserve(s2.env.size());
            for (std::size_t id = 0; id < s2.env.size(); ++id) {
              const Value& v2 = s2.env[id];
              if (v2.kind != Value::Kind::kInt) continue;
              const Value& v1 = s1.env[id];
              const Value& v0 = s0.env[id];
              if (v1.kind != Value::Kind::kInt ||
                  v0.kind != Value::Kind::kInt ||
                  v1.c_ct != v2.c_ct || v1.c_t != v2.c_t ||
                  v0.c_ct != v2.c_ct || v0.c_t != v2.c_t) {
                consistent = false;
                break;
              }
              const i64 d21 = v2.c0 - v1.c0;
              const i64 d10 = v1.c0 - v0.c0;
              if (d21 != d10) {
                consistent = false;
                break;
              }
              reg_delta.emplace_back(static_cast<int>(id), d21);
            }

            std::vector<i64> count_delta(st.counts.size(), 0);
            if (consistent) {
              for (std::size_t b = 0; b < st.counts.size(); ++b) {
                const i64 d21 = s2.counts[b] - s1.counts[b];
                const i64 d10 = s1.counts[b] - s0.counts[b];
                if (d21 != d10) {
                  consistent = false;
                  break;
                }
                count_delta[b] = d21;
              }
            }

            const i64 pred_delta = s2.pred_c0 - s1.pred_c0;
            if (consistent &&
                (s1.pred_c0 - s0.pred_c0) == pred_delta &&
                pred_delta != 0) {
              const i64 k = first_non_true(pred, st.box, pred_delta);
              GP_CHECK_MSG(k != 0, "non-terminating loop in " << kernel.name);
              const i64 ff = k - 1;  // iterations to fast-forward
              if (ff > 0) {
                for (const auto& [id, delta] : reg_delta)
                  st.env[id].c0 += ff * delta;
                for (std::size_t b = 0; b < st.counts.size(); ++b)
                  st.counts[b] += ff * count_delta[b];
                history.clear();
              }
            }
          }
        }
        st.block = target;
      }
    }

    ExecutionCounts out;
    out.block_exec = std::move(global_block_exec);
    for (std::size_t b = 0; b < out.block_exec.size(); ++b) {
      out.total += out.block_exec[b] * block_size[b];
      for (std::size_t c = 0; c < kOpClassCount; ++c)
        out.by_class[c] += out.block_exec[b] * block_hist[b][c];
    }
    return out;
  }
};

SymbolicExecutor::SymbolicExecutor(const PtxKernel& kernel,
                                   const Deadline& deadline)
    : impl_(std::make_unique<Impl>(kernel, deadline)) {}

SymbolicExecutor::SymbolicExecutor(PtxKernel&& kernel,
                                   const Deadline& deadline)
    : impl_(std::make_unique<Impl>(std::move(kernel), deadline)) {}

SymbolicExecutor::~SymbolicExecutor() = default;
SymbolicExecutor::SymbolicExecutor(SymbolicExecutor&&) noexcept = default;
SymbolicExecutor& SymbolicExecutor::operator=(SymbolicExecutor&&) noexcept =
    default;

ExecutionCounts SymbolicExecutor::run(const KernelLaunch& launch,
                                      const Deadline& deadline) const {
  return impl_->run(launch, deadline);
}

const Cfg& SymbolicExecutor::cfg() const { return impl_->cfg; }
const Slice& SymbolicExecutor::slice() const { return impl_->slice; }
const PtxKernel& SymbolicExecutor::kernel() const { return impl_->kernel; }
const std::vector<std::size_t>& SymbolicExecutor::slice_params() const {
  return impl_->slice_params;
}

}  // namespace gpuperf::ptx
