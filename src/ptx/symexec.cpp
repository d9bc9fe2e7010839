#include "ptx/symexec.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "ptx/depgraph.hpp"

namespace gpuperf::ptx {

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

using detail::AffinePred;
using detail::Box;
using detail::Range1;

/// Affine value / predicate over (ctaid, tid).
struct Value {
  enum class Kind : std::uint8_t { kUnknown, kInt, kPred };
  // kInt: c0 + c_ct*ctaid + c_t*tid.
  // kPred: cmp(c0 + c_ct*ctaid + c_t*tid, 0).
  i64 c0 = 0, c_ct = 0, c_t = 0;
  CompareOp op = CompareOp::kLt;
  Kind kind = Kind::kUnknown;

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
  AffinePred affine() const { return AffinePred{c0, c_ct, c_t, op}; }
};

/// Min/max of an affine form over a box (corners of a monotone form).
void affine_range(const AffinePred& v, const Box& box, i64& lo, i64& hi) {
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

Tri eval_pred(const AffinePred& pred, const Box& box) {
  i64 lo, hi;
  affine_range(pred, box, lo, hi);
  return eval_pred_range(pred.op, lo, hi);
}

/// Calls f(a, b, dmin, dmax) for each piece [a, b) of [lo, hi) over
/// which both dmin + c*(x - lo) and dmax + c*(x - lo) keep their sign;
/// dmin and dmax are given at x = lo and passed on at x = a.  A form
/// d + c*k reaches zero at k = div_ceil(-d, c) and leaves it at
/// div_floor(-d, c) + 1, so at most four cuts fall inside.
template <typename F>
void for_each_sign_piece(i64 dmin, i64 dmax, i64 c, i64 lo, i64 hi, F&& f) {
  std::array<i64, 6> cut{};  // ascending offsets from lo
  std::size_t n = 1;
  if (c != 0)
    for (const i64 d : {dmin, dmax})
      for (const i64 k : {div_ceil(-d, c), div_floor(-d, c) + 1}) {
        if (k <= 0 || k >= hi - lo) continue;
        std::size_t i = n++;
        for (; cut[i - 1] > k; --i) cut[i] = cut[i - 1];
        cut[i] = k;
      }
  cut[n++] = hi - lo;
  for (std::size_t i = 0; i + 1 < n; ++i)
    if (cut[i] < cut[i + 1])
      f(lo + cut[i], lo + cut[i + 1], dmin + c * cut[i], dmax + c * cut[i]);
}

/// Calls f(range) for each maximal run of x in [lo, hi) over which
/// cmp(c0 + c1*x, 0) is constant, in ascending order.
template <typename F>
void for_each_run(i64 c0, i64 c1, i64 lo, i64 hi, CompareOp op, F&& f) {
  Range1 run{0, 0, false};
  bool open = false;
  const i64 d = c0 + c1 * lo;
  for_each_sign_piece(d, d, c1, lo, hi, [&](i64 a, i64 b, i64 v, i64) {
    const bool truth = eval_pred_range(op, v, v) == Tri::kTrue;
    if (open && run.truth == truth) {
      run.hi = b;
      return;
    }
    if (open) f(run);
    run = Range1{a, b, truth};
    open = true;
  });
  if (open) f(run);
}

}  // namespace

namespace detail {

void split_1d(i64 c0, i64 c1, i64 lo, i64 hi, CompareOp op,
              std::vector<Range1>& out) {
  out.clear();
  for_each_run(c0, c1, lo, hi, op, [&](const Range1& r) { out.push_back(r); });
}

void split_box(const AffinePred& pred, const Box& box,
               std::vector<std::pair<Box, bool>>& out) {
  out.clear();
  if (pred.c_t == 0 || pred.c_ct == 0) {
    const bool on_ct = pred.c_t == 0;
    const auto emit = [&](const Range1& r) {
      Box b = box;
      (on_ct ? b.ct_lo : b.t_lo) = r.lo;
      (on_ct ? b.ct_hi : b.t_hi) = r.hi;
      out.push_back({b, r.truth});
    };
    if (on_ct)
      for_each_run(pred.c0, pred.c_ct, box.ct_lo, box.ct_hi, pred.op, emit);
    else
      for_each_run(pred.c0, pred.c_t, box.t_lo, box.t_hi, pred.op, emit);
    return;
  }

  // Row ct ranges over [dmin, dmax] + c_ct*(ct - ct_lo), so its class
  // (true, false or mixed) only changes at the sign cuts of the two
  // bounds.  Uniform pieces of one class merge into a run; mixed rows
  // (a gid guard's boundary) split over tid one by one and never merge
  // into a neighbouring run: a ne row can be mixed over its range yet
  // split into one full-width range.
  AffinePred first_row = pred;
  first_row.c0 += pred.c_ct * box.ct_lo;
  first_row.c_ct = 0;
  i64 dmin, dmax;
  affine_range(first_row, Box{box.ct_lo, box.ct_lo + 1, box.t_lo, box.t_hi},
               dmin, dmax);
  i64 mixed_rows = 0;
  bool in_run = false;
  for_each_sign_piece(
      dmin, dmax, pred.c_ct, box.ct_lo, box.ct_hi,
      [&](i64 a, i64 b, i64 lo, i64 hi) {
        const Tri tri = eval_pred_range(pred.op, lo, hi);
        if (tri != Tri::kMixed) {
          const bool truth = tri == Tri::kTrue;
          if (in_run && out.back().second == truth)
            out.back().first.ct_hi = b;
          else
            out.push_back({Box{a, b, box.t_lo, box.t_hi}, truth});
          in_run = true;
          return;
        }
        in_run = false;
        for (i64 ct = a; ct < b; ++ct) {
          GP_CHECK_MSG(++mixed_rows <= 64,
                       "unsupported divergence pattern (too many mixed rows)");
          for_each_run(pred.c0 + pred.c_ct * ct, pred.c_t, box.t_lo,
                       box.t_hi, pred.op, [&](const Range1& r) {
                         out.push_back({Box{ct, ct + 1, r.lo, r.hi}, r.truth});
                       });
        }
      });
}

}  // namespace detail

namespace {

/// A resolved source operand.
struct Src {
  enum class Kind : std::uint8_t {
    kUnknown,  // float immediate, untracked register, other operands
    kSlot,     // environment slot `v`
    kImm,      // integer immediate `v`
    kTid,
    kCtaid,
    kNtid,
    kNctaid,
    kArg,  // launch argument `v` (an in-slice ld.param)
  };
  Kind kind = Kind::kUnknown;
  i64 v = 0;
};

/// One lowered slice instruction: env[dst] = code(src...).  kFail
/// throws the CheckError the instruction's malformation raised when
/// it was interpreted directly; `dst` then indexes Impl::failures.
struct Op {
  enum class Code : std::uint8_t {
    kNop,  // no register effect; never stored
    kCopy,
    kUnknown,
    kAdd,
    kSub,
    kMul,
    kMad,
    kShl,
    kShr,
    kDiv,
    kRem,
    kMin,
    kMax,
    kSetp,
    kNeg,
    kAbs,
    kFail,
  };
  Code code = Code::kNop;
  CompareOp cmp = CompareOp::kLt;  // kSetp
  std::uint32_t dst = 0;
  std::array<Src, 3> src{};
};

/// A failed GP_CHECK of a malformed slice instruction, raised when a
/// run reaches it.
struct Failure {
  const char* expr;
  const char* msg;
};

/// One basic block of the flat program: its ops, then its terminator.
struct Step {
  enum class Kind : std::uint8_t { kExit, kJump, kBranch };
  Kind kind = Kind::kJump;
  bool negated = false;
  std::int32_t guard_slot = -1;  // kBranch; -1: no slice op writes it
  std::int32_t loop = -1;        // kBranch back-edge: its loop index
  std::uint32_t ops_begin = 0, ops_end = 0;
  std::uint32_t target = 0;  // kJump, kBranch
};

/// A frame's fixed-size part; its environment and counts live in the
/// work stack's value and word buffers at the frame's index.
struct Head {
  Box box;
  std::uint32_t block = 0;
  bool rings_live = false;  // set by the frame's first taken back-edge
};

/// The per-thread work stack.  Frame i owns heads[i],
/// values[i*value_width, ...) (the environment, then each loop's three
/// environment snapshots) and words[i*word_width, ...) (the block
/// counts, then each loop's ring size and head, then its three count
/// snapshots).  Widths change per executor; the buffers only grow.
struct Frames {
  std::vector<Head> heads;
  std::vector<Value> values;
  std::vector<i64> words;
  std::vector<i64> block_exec;
  std::vector<std::pair<Box, bool>> parts;
};

Frames& thread_frames() {
  thread_local Frames frames;
  return frames;
}

/// Negate a predicate value (for "@!%p" guards).
Value negate_pred(Value v) {
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

Value affine_add(const Value& a, const Value& b, i64 sign) {
  if (a.kind != Value::Kind::kInt || b.kind != Value::Kind::kInt)
    return Value::unknown();
  Value v;
  v.kind = Value::Kind::kInt;
  v.c0 = a.c0 + sign * b.c0;
  v.c_ct = a.c_ct + sign * b.c_ct;
  v.c_t = a.c_t + sign * b.c_t;
  return v;
}

Value affine_mul(const Value& a, const Value& b) {
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
}

Value read(const Src& s, const Value* env, const KernelLaunch& launch) {
  Value v;
  switch (s.kind) {
    case Src::Kind::kUnknown: break;
    case Src::Kind::kSlot: return env[s.v];
    case Src::Kind::kImm: return Value::constant(s.v);
    case Src::Kind::kTid:
      v.kind = Value::Kind::kInt;
      v.c_t = 1;
      break;
    case Src::Kind::kCtaid:
      v.kind = Value::Kind::kInt;
      v.c_ct = 1;
      break;
    case Src::Kind::kNtid: return Value::constant(launch.block_dim);
    case Src::Kind::kNctaid: return Value::constant(launch.grid_dim);
    case Src::Kind::kArg:
      return Value::constant(launch.args[static_cast<std::size_t>(s.v)]);
  }
  return v;
}

/// The value an op writes.
Value eval(const Op& op, const Value* env, const KernelLaunch& launch) {
  using Code = Op::Code;
  const auto src = [&](std::size_t i) { return read(op.src[i], env, launch); };
  switch (op.code) {
    case Code::kCopy: return src(0);
    case Code::kAdd: return affine_add(src(0), src(1), +1);
    case Code::kSub: return affine_add(src(0), src(1), -1);
    case Code::kMul: return affine_mul(src(0), src(1));
    case Code::kMad: return affine_add(affine_mul(src(0), src(1)), src(2), +1);
    case Code::kShl: {
      Value v = src(0);
      const Value s = src(1);
      if (v.kind != Value::Kind::kInt || !s.is_const() || s.c0 < 0 ||
          s.c0 >= 63)
        return Value::unknown();
      v.c0 <<= s.c0;
      v.c_ct <<= s.c0;
      v.c_t <<= s.c0;
      return v;
    }
    case Code::kShr:
    case Code::kDiv:
    case Code::kRem:
    case Code::kMin:
    case Code::kMax: {
      const Value a = src(0);
      const Value b = src(1);
      if (!a.is_const() || !b.is_const()) return Value::unknown();
      switch (op.code) {
        case Code::kShr:
          if (b.c0 < 0 || b.c0 >= 63) return Value::unknown();
          return Value::constant(a.c0 >> b.c0);
        case Code::kDiv:
          if (b.c0 == 0) return Value::unknown();
          return Value::constant(a.c0 / b.c0);
        case Code::kRem:
          if (b.c0 == 0) return Value::unknown();
          return Value::constant(a.c0 % b.c0);
        case Code::kMin: return Value::constant(std::min(a.c0, b.c0));
        default: return Value::constant(std::max(a.c0, b.c0));
      }
    }
    case Code::kSetp: {
      const Value a = src(0);
      const Value b = src(1);
      // An unknown predicate is fatal only if branched on.
      if (a.kind != Value::Kind::kInt || b.kind != Value::Kind::kInt)
        return Value::unknown();
      Value v;
      v.kind = Value::Kind::kPred;
      v.op = op.cmp;
      v.c0 = a.c0 - b.c0;
      v.c_ct = a.c_ct - b.c_ct;
      v.c_t = a.c_t - b.c_t;
      return v;
    }
    case Code::kNeg: {
      Value v = src(0);
      if (v.kind != Value::Kind::kInt) return Value::unknown();
      v.c0 = -v.c0;
      v.c_ct = -v.c_ct;
      v.c_t = -v.c_t;
      return v;
    }
    case Code::kAbs: {
      const Value a = src(0);
      return a.is_const() ? Value::constant(std::abs(a.c0)) : Value::unknown();
    }
    case Code::kNop:
    case Code::kUnknown:
    case Code::kFail: break;
  }
  return Value::unknown();
}

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
  // Env slot of each register id, -1 for registers no slice
  // instruction writes (they always read as unknown).
  std::vector<int> slot_of;
  std::size_t slot_count = 0;
  std::size_t loop_count = 0;
  // The flat program: block b is steps[b], its ops
  // ops[steps[b].ops_begin, steps[b].ops_end).
  std::vector<Step> steps;
  std::vector<Op> ops;
  std::vector<Failure> failures;
  // Frame layout (see Frames): the values and the words one frame
  // takes; a frame whose rings are not live uses only the first
  // slot_count values and steps.size() words.
  std::size_t value_width = 0;
  std::size_t word_width = 0;

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
    slot_of.assign(kernel.register_count(), -1);
    for (std::size_t id = 0; id < slot_of.size(); ++id)
      if (slice.tracks_id(static_cast<int>(id)))
        slot_of[id] = static_cast<int>(slot_count++);
    const std::size_t n_blocks = cfg.block_count();
    block_hist.resize(n_blocks);
    block_size.resize(n_blocks);
    steps.resize(n_blocks);
    for (std::size_t b = 0; b < n_blocks; ++b) {
      const BasicBlock& block = cfg.block(b);
      block_size[b] = static_cast<i64>(block.size());
      auto& hist = block_hist[b];
      hist.fill(0);
      Step& step = steps[b];
      step.ops_begin = static_cast<std::uint32_t>(ops.size());
      for (std::size_t i = block.first; i <= block.last; ++i) {
        const Instruction& inst = kernel.instructions[i];
        ++hist[static_cast<std::size_t>(
            classify(inst.opcode, inst.type, inst.space))];
        if (!slice.in_slice[i] || inst.is_branch()) continue;
        const Op op = lower(inst);
        if (op.code != Op::Code::kNop) ops.push_back(op);
      }
      step.ops_end = static_cast<std::uint32_t>(ops.size());
      // Cfg::build lists a branch's target first; any other block has
      // only its fallthrough.
      const Instruction& term = kernel.instructions[block.last];
      if (term.is_exit()) {
        step.kind = Step::Kind::kExit;
        continue;
      }
      step.target = static_cast<std::uint32_t>(block.succs.front());
      if (!term.is_branch() || term.guard.empty()) continue;
      step.kind = Step::Kind::kBranch;
      step.negated = term.guard_negated;
      GP_DCHECK(term.guard_id >= 0);
      step.guard_slot = slot_of[term.guard_id];
      if (step.target <= b) step.loop = static_cast<int>(loop_count++);
    }
    value_width = slot_count * (1 + 3 * loop_count);
    word_width = n_blocks + loop_count * (2 + 3 * (n_blocks + 1));
  }

  Src resolve(const Operand& op) const {
    if (const auto* r = std::get_if<RegOperand>(&op)) {
      GP_DCHECK(r->id >= 0 &&
                static_cast<std::size_t>(r->id) < slot_of.size());
      const int slot = slot_of[r->id];
      return slot < 0 ? Src{} : Src{Src::Kind::kSlot, slot};
    }
    if (const auto* imm = std::get_if<ImmOperand>(&op))
      return imm->is_float ? Src{} : Src{Src::Kind::kImm, imm->ivalue()};
    if (const auto* sr = std::get_if<SpecialOperand>(&op)) {
      switch (sr->reg) {
        case SpecialReg::kTidX: return Src{Src::Kind::kTid, 0};
        case SpecialReg::kCtaidX: return Src{Src::Kind::kCtaid, 0};
        case SpecialReg::kNtidX: return Src{Src::Kind::kNtid, 0};
        case SpecialReg::kNctaidX: return Src{Src::Kind::kNctaid, 0};
      }
    }
    return Src{};
  }

  /// Lower one in-slice non-branch instruction to the op that computes
  /// what interpreting it computes.  Its checks are static, so the
  /// first one that would fail is known here and lowers to a kFail op
  /// raising it (same expression, same message) when a run reaches it.
  Op lower(const Instruction& inst) {
    Op op;
    const auto fail = [&](const char* expr, const char* msg = "") {
      op.code = Op::Code::kFail;
      op.dst = static_cast<std::uint32_t>(failures.size());
      failures.push_back({expr, msg});
      return op;
    };
    // Read the first `n_srcs` sources, check `cmp` if asked to, then
    // write the one register destination — the order interpretation
    // checks them in.
    const auto lowered = [&](Op::Code code, std::size_t n_srcs,
                             bool with_cmp = false) {
      for (std::size_t i = 0; i < n_srcs; ++i) {
        if (!(i < inst.srcs.size())) return fail("i < inst.srcs.size()");
        op.src[i] = resolve(inst.srcs[i]);
      }
      if (with_cmp) {
        if (!inst.cmp.has_value()) return fail("inst.cmp.has_value()");
        op.cmp = *inst.cmp;
      }
      if (!(inst.dsts.size() == 1)) return fail("inst.dsts.size() == 1");
      const auto* r = std::get_if<RegOperand>(&inst.dsts.front());
      if (!(r != nullptr && r->id >= 0))
        return fail("r != nullptr && r->id >= 0");
      GP_DCHECK(slot_of[r->id] >= 0);  // slice writes are tracked
      op.code = code;
      op.dst = static_cast<std::uint32_t>(slot_of[r->id]);
      return op;
    };

    if (!inst.guard.empty())
      return fail("inst.guard.empty()",
                  "guarded non-branch instruction in slice");
    using Code = Op::Code;
    const bool is_float = is_float_type(inst.type);
    switch (inst.opcode) {
      case Opcode::kMov:
      case Opcode::kCvt:
      case Opcode::kCvta:
        return is_float ? lowered(Code::kUnknown, 0) : lowered(Code::kCopy, 1);
      case Opcode::kLd: {
        if (inst.space != StateSpace::kParam)
          return lowered(Code::kUnknown, 0);
        // run() checks the argument count; the constructor checked that
        // every in-slice ld.param names a declared parameter.
        const auto* mem = std::get_if<MemOperand>(&inst.srcs.front());
        if (!(mem != nullptr && mem->offset == 0))
          return fail("mem != nullptr && mem->offset == 0");
        op.src[0] = Src{Src::Kind::kArg, mem->param_slot};
        return lowered(Code::kCopy, 0);
      }
      case Opcode::kAdd:
        return lowered(is_float ? Code::kUnknown : Code::kAdd,
                       is_float ? 0 : 2);
      case Opcode::kSub:
        return lowered(is_float ? Code::kUnknown : Code::kSub,
                       is_float ? 0 : 2);
      case Opcode::kMul:
      case Opcode::kMulLo:
      case Opcode::kMulWide:
        return lowered(is_float ? Code::kUnknown : Code::kMul,
                       is_float ? 0 : 2);
      case Opcode::kMad:
        return lowered(is_float ? Code::kUnknown : Code::kMad,
                       is_float ? 0 : 3);
      case Opcode::kShl: return lowered(Code::kShl, 2);
      case Opcode::kShr: return lowered(Code::kShr, 2);
      case Opcode::kDiv: return lowered(Code::kDiv, 2);
      case Opcode::kRem: return lowered(Code::kRem, 2);
      case Opcode::kMin: return lowered(Code::kMin, 2);
      case Opcode::kMax: return lowered(Code::kMax, 2);
      case Opcode::kSetp: return lowered(Code::kSetp, 2, /*with_cmp=*/true);
      case Opcode::kSelp:
        // Not generated in branch-feeding positions; keep unknown.
        return lowered(Code::kUnknown, 0);
      case Opcode::kSt:
      case Opcode::kBar:
        return op;  // no register effects
      case Opcode::kNeg:
        return lowered(is_float ? Code::kUnknown : Code::kNeg, 1);
      case Opcode::kAbs:
        return lowered(is_float ? Code::kUnknown : Code::kAbs, 1);
      default:
        return inst.dsts.empty() ? op : lowered(Code::kUnknown, 0);
    }
  }

  /// Smallest k >= 1 such that the predicate (with diff advanced by
  /// k * delta) is no longer uniformly true over the box; 0 if none
  /// exists (infinite loop).
  i64 first_non_true(const Value& pred, const Box& box, i64 delta) const {
    if (delta == 0) return 0;
    i64 dmin, dmax;
    affine_range(pred.affine(), box, dmin, dmax);
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

  /// Record a taken back-edge of `loop` in the frame's ring and, once
  /// three snapshots show constant deltas, fast-forward to the last
  /// iteration over which the predicate stays uniformly true.  Each
  /// snapshot is the environment plus the block counts and the
  /// predicate's c0 (the count snapshot's last column).
  void accelerate(Head& head, Value* env, i64* counts, const Value& pred,
                  std::size_t loop) const {
    const std::size_t n_blocks = steps.size();
    const std::size_t width = n_blocks + 1;
    i64* ring_meta = counts + n_blocks;  // per loop: size, head
    if (!head.rings_live) {
      std::fill(ring_meta, ring_meta + 2 * loop_count, 0);
      head.rings_live = true;
    }
    i64& size = ring_meta[2 * loop];
    i64& oldest = ring_meta[2 * loop + 1];
    Value* ring_env = env + slot_count * (1 + 3 * loop);
    i64* ring_counts = ring_meta + 2 * loop_count + 3 * width * loop;
    i64 at = oldest;
    if (size < 3)
      at = (oldest + size++) % 3;
    else
      oldest = (oldest + 1) % 3;
    std::copy(env, env + slot_count, ring_env + at * slot_count);
    std::copy(counts, counts + n_blocks, ring_counts + at * width);
    ring_counts[at * width + width - 1] = pred.c0;
    if (size < 3) return;

    const Value* e0 = ring_env + oldest * slot_count;
    const Value* e1 = ring_env + (oldest + 1) % 3 * slot_count;
    const Value* e2 = ring_env + at * slot_count;
    const i64* n0 = ring_counts + oldest * width;
    const i64* n1 = ring_counts + (oldest + 1) % 3 * width;
    const i64* n2 = ring_counts + at * width;
    // Integer registers must keep their coefficients and advance c0 by
    // a constant delta; so must every block count and the predicate.
    for (std::size_t s = 0; s < slot_count; ++s) {
      if (e2[s].kind != Value::Kind::kInt) continue;
      if (e1[s].kind != Value::Kind::kInt || e0[s].kind != Value::Kind::kInt ||
          e1[s].c_ct != e2[s].c_ct || e1[s].c_t != e2[s].c_t ||
          e0[s].c_ct != e2[s].c_ct || e0[s].c_t != e2[s].c_t ||
          e2[s].c0 - e1[s].c0 != e1[s].c0 - e0[s].c0)
        return;
    }
    for (std::size_t b = 0; b < width; ++b)
      if (n2[b] - n1[b] != n1[b] - n0[b]) return;
    const i64 pred_delta = n2[width - 1] - n1[width - 1];
    if (pred_delta == 0) return;
    const i64 k = first_non_true(pred, head.box, pred_delta);
    GP_CHECK_MSG(k != 0, "non-terminating loop in " << kernel.name);
    const i64 ff = k - 1;  // iterations to fast-forward
    if (ff <= 0) return;
    for (std::size_t s = 0; s < slot_count; ++s)
      if (env[s].kind == Value::Kind::kInt)
        env[s].c0 += ff * (e2[s].c0 - e1[s].c0);
    for (std::size_t b = 0; b < n_blocks; ++b)
      counts[b] += ff * (n2[b] - n1[b]);
    size = 0;
  }

  /// Make room for `n` frames of this executor's width, keeping the
  /// frames below `keep`.
  void reserve_frames(Frames& f, std::size_t n, std::size_t keep) const {
    if (f.heads.size() >= n && f.values.size() >= n * value_width &&
        f.words.size() >= n * word_width)
      return;
    n = std::max({n, 2 * keep, std::size_t{8}});
    // Another executor may have left the buffers laid out for its own
    // width; only the frames below `keep` (this run's) matter.
    f.heads.resize(std::max(f.heads.size(), n));
    f.values.resize(std::max(f.values.size(), n * value_width));
    f.words.resize(std::max(f.words.size(), n * word_width));
  }

  /// Copy frame `from` into frame `to`: the head, the environment and
  /// the counts, and the rings once they are live.
  void copy_frame(Frames& f, std::size_t from, std::size_t to) const {
    const Head& head = f.heads[from];
    f.heads[to] = head;
    std::copy_n(f.values.data() + from * value_width,
                head.rings_live ? value_width : slot_count,
                f.values.data() + to * value_width);
    std::copy_n(f.words.data() + from * word_width,
                head.rings_live ? word_width : steps.size(),
                f.words.data() + to * word_width);
  }

  ExecutionCounts run(const KernelLaunch& launch,
                      const Deadline& deadline) const {
    GP_CHECK(launch.grid_dim >= 1 && launch.block_dim >= 1);
    check_arity(kernel, launch);

    const std::size_t n_blocks = steps.size();
    Frames& f = thread_frames();
    reserve_frames(f, 1, 0);
    if (f.block_exec.size() < n_blocks) f.block_exec.resize(n_blocks);
    std::fill_n(f.block_exec.begin(), n_blocks, 0);
    f.heads[0] = Head{Box{0, launch.grid_dim, 0, launch.block_dim},
                      static_cast<std::uint32_t>(cfg.entry()), false};
    std::fill_n(f.values.begin(), slot_count, Value::unknown());
    std::fill_n(f.words.begin(), n_blocks, 0);
    std::size_t pending = 1;  // frames [0, pending) wait to run

    std::size_t step_count = 0;
    constexpr std::size_t kStepLimit = 50'000'000;

    while (pending > 0) {
      const std::size_t cur = --pending;  // runs in place
      Head& head = f.heads[cur];
      Value* env = f.values.data() + cur * value_width;
      i64* counts = f.words.data() + cur * word_width;

      for (;;) {
        GP_CHECK_MSG(++step_count < kStepLimit,
                     "symbolic execution step limit exceeded in "
                         << kernel.name);
        deadline.charge(kernel.name.c_str());
        const Step& step = steps[head.block];
        counts[head.block] += 1;

        for (std::uint32_t i = step.ops_begin; i < step.ops_end; ++i) {
          const Op& op = ops[i];
          if (op.code == Op::Code::kFail) {
            const Failure& failure = failures[op.dst];
            ::gpuperf::detail::check_failed(failure.expr, __FILE__, __LINE__,
                                            failure.msg);
          }
          env[op.dst] = eval(op, env, launch);
        }

        if (step.kind == Step::Kind::kExit) {
          const Box& box = head.box;
          const i64 w = (box.ct_hi - box.ct_lo) * (box.t_hi - box.t_lo);
          for (std::size_t b = 0; b < n_blocks; ++b)
            f.block_exec[b] += counts[b] * w;
          break;
        }
        if (step.kind == Step::Kind::kJump) {
          head.block = step.target;
          continue;
        }

        const std::size_t fallthrough = head.block + std::size_t{1};
        GP_CHECK_MSG(step.guard_slot >= 0 &&
                         env[step.guard_slot].kind == Value::Kind::kPred,
                     "branch on unknown predicate '"
                         << kernel.instructions[cfg.block(head.block).last]
                                .guard
                         << "' in " << kernel.name
                         << " (data-dependent branch?)");
        Value pred = env[step.guard_slot];
        if (step.negated) pred = negate_pred(pred);

        Tri tri = eval_pred(pred.affine(), head.box);
        if (tri == Tri::kMixed) {
          detail::split_box(pred.affine(), head.box, f.parts);
          // An eq/ne form whose range straddles zero without an integer
          // point on it (2*tid == 9) splits into one part: uniform.
          if (f.parts.size() == 1)
            tri = f.parts.front().second ? Tri::kTrue : Tri::kFalse;
        }
        if (tri == Tri::kMixed) {
          const std::size_t n_parts = f.parts.size();
          GP_CHECK_MSG(n_parts >= 2, "mixed predicate failed to split");
          GP_CHECK(fallthrough < n_blocks);
          // Part p runs in frame cur + p, the last one first.  The
          // reserve may move the buffers: head/env/counts go stale.
          reserve_frames(f, cur + n_parts, cur + 1);
          for (std::size_t p = 1; p < n_parts; ++p)
            copy_frame(f, cur, cur + p);
          for (std::size_t p = 0; p < n_parts; ++p) {
            f.heads[cur + p].box = f.parts[p].first;
            f.heads[cur + p].block = static_cast<std::uint32_t>(
                f.parts[p].second ? step.target : fallthrough);
          }
          pending = cur + n_parts;
          break;  // the parts carry on
        }

        if (tri == Tri::kFalse) {
          GP_CHECK_MSG(fallthrough < n_blocks, "fallthrough off kernel end");
          head.block = static_cast<std::uint32_t>(fallthrough);
          continue;
        }

        if (step.loop >= 0)
          accelerate(head, env, counts, pred,
                     static_cast<std::size_t>(step.loop));
        head.block = step.target;
      }
    }

    ExecutionCounts out;
    for (std::size_t b = 0; b < n_blocks; ++b) {
      const i64 n = f.block_exec[b];
      out.total += n * block_size[b];
      for (std::size_t c = 0; c < kOpClassCount; ++c)
        out.by_class[c] += n * block_hist[b][c];
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
