#include "ptx/symexec.hpp"

#include <algorithm>

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

using detail::AffinePred;
using detail::Box;
using detail::Range1;

/// Affine value / predicate over (ctaid, tid).
struct Value : AffinePred {
  enum class Kind { kUnknown, kInt, kPred };
  // kInt: c0 + c_ct*ctaid + c_t*tid.
  // kPred: cmp(c0 + c_ct*ctaid + c_t*tid, 0).
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

}  // namespace

namespace detail {

std::vector<Range1> split_1d(i64 c0, i64 c1, i64 lo, i64 hi, CompareOp op) {
  std::vector<Range1> out;
  const i64 d = c0 + c1 * lo;
  for_each_sign_piece(d, d, c1, lo, hi, [&](i64 a, i64 b, i64 v, i64) {
    const bool truth = eval_pred_range(op, v, v) == Tri::kTrue;
    if (!out.empty() && out.back().truth == truth)
      out.back().hi = b;
    else
      out.push_back(Range1{a, b, truth});
  });
  return out;
}

std::vector<std::pair<Box, bool>> split_box(const AffinePred& pred,
                                            const Box& box) {
  std::vector<std::pair<Box, bool>> out;
  if (pred.c_t == 0 || pred.c_ct == 0) {
    const bool on_ct = pred.c_t == 0;
    for (const Range1& r :
         on_ct ? split_1d(pred.c0, pred.c_ct, box.ct_lo, box.ct_hi, pred.op)
               : split_1d(pred.c0, pred.c_t, box.t_lo, box.t_hi, pred.op)) {
      Box b = box;
      (on_ct ? b.ct_lo : b.t_lo) = r.lo;
      (on_ct ? b.ct_hi : b.t_hi) = r.hi;
      out.push_back({b, r.truth});
    }
    return out;
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
          for (const Range1& r : split_1d(pred.c0 + pred.c_ct * ct, pred.c_t,
                                          box.t_lo, box.t_hi, pred.op))
            out.push_back({Box{ct, ct + 1, r.lo, r.hi}, r.truth});
        }
      });
  return out;
}

}  // namespace detail

namespace {

/// Back-edge history of one loop: its last three snapshots, oldest at
/// `head`.  Each snapshot is the tracked registers plus the block
/// counts and the predicate's c0 (`counts`' last column).
struct Ring {
  std::size_t size = 0, head = 0;
  std::vector<Value> env;   // 3 slots × tracked registers
  std::vector<i64> counts;  // 3 slots × (blocks + 1)
};

struct State {
  Box box;
  std::size_t block = 0;
  std::vector<Value> env;   // one Value per tracked register
  std::vector<i64> counts;  // per-block, per-thread
  std::vector<Ring> rings;  // per loop, allocated on the first back-edge
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
  // Block b's non-branch slice instructions are
  // slice_insts[slice_begin[b], slice_begin[b + 1]).
  std::vector<const Instruction*> slice_insts;
  std::vector<std::size_t> slice_begin;
  // Env slot of each register id, -1 for registers no slice
  // instruction writes (they always read as unknown).
  std::vector<int> slot_of;
  std::size_t slot_count = 0;
  // Loop index of each block that ends in a guarded backward branch,
  // -1 for every other block.
  std::vector<int> loop_of;
  std::size_t loop_count = 0;

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
    block_hist.resize(cfg.block_count());
    block_size.resize(cfg.block_count());
    loop_of.assign(cfg.block_count(), -1);
    for (std::size_t b = 0; b < cfg.block_count(); ++b) {
      const BasicBlock& block = cfg.block(b);
      block_size[b] = static_cast<i64>(block.size());
      auto& hist = block_hist[b];
      hist.fill(0);
      slice_begin.push_back(slice_insts.size());
      for (std::size_t i = block.first; i <= block.last; ++i) {
        const Instruction& inst = kernel.instructions[i];
        ++hist[static_cast<std::size_t>(
            classify(inst.opcode, inst.type, inst.space))];
        if (slice.in_slice[i] && !inst.is_branch())
          slice_insts.push_back(&inst);
      }
      const Instruction& term = kernel.instructions[block.last];
      if (term.is_branch() && !term.guard.empty() && block.succs.front() <= b)
        loop_of[b] = static_cast<int>(loop_count++);
    }
    slice_begin.push_back(slice_insts.size());
  }

  Value eval_operand(const Operand& op, const std::vector<Value>& env,
                     const KernelLaunch& launch) const {
    if (const auto* r = std::get_if<RegOperand>(&op)) {
      GP_DCHECK(r->id >= 0 &&
                static_cast<std::size_t>(r->id) < slot_of.size());
      const int slot = slot_of[r->id];
      return slot < 0 ? Value::unknown() : env[slot];
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
  void eval_instruction(const Instruction& inst, std::vector<Value>& env,
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
      env[slot_of[r->id]] = v;
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

  /// Record a taken back-edge of `loop` in the state's ring and, once
  /// three snapshots show constant deltas, fast-forward to the last
  /// iteration over which the predicate stays uniformly true.
  void accelerate(State& st, const Value& pred, std::size_t loop) const {
    const std::size_t width = st.counts.size() + 1;
    if (st.rings.empty())
      st.rings.assign(loop_count, Ring{0, 0, std::vector<Value>(3 * slot_count),
                                       std::vector<i64>(3 * width)});
    Ring& ring = st.rings[loop];
    std::size_t at = ring.head;
    if (ring.size < 3)
      at = (ring.head + ring.size++) % 3;
    else
      ring.head = (ring.head + 1) % 3;
    std::copy(st.env.begin(), st.env.end(), ring.env.data() + at * slot_count);
    std::copy(st.counts.begin(), st.counts.end(),
              ring.counts.data() + at * width);
    ring.counts[at * width + width - 1] = pred.c0;
    if (ring.size < 3) return;

    const Value* e0 = ring.env.data() + ring.head * slot_count;
    const Value* e1 = ring.env.data() + (ring.head + 1) % 3 * slot_count;
    const Value* e2 = ring.env.data() + at * slot_count;
    const i64* n0 = ring.counts.data() + ring.head * width;
    const i64* n1 = ring.counts.data() + (ring.head + 1) % 3 * width;
    const i64* n2 = ring.counts.data() + at * width;
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
    const i64 k = first_non_true(pred, st.box, pred_delta);
    GP_CHECK_MSG(k != 0, "non-terminating loop in " << kernel.name);
    const i64 ff = k - 1;  // iterations to fast-forward
    if (ff <= 0) return;
    for (std::size_t s = 0; s < slot_count; ++s)
      if (st.env[s].kind == Value::Kind::kInt)
        st.env[s].c0 += ff * (e2[s].c0 - e1[s].c0);
    for (std::size_t b = 0; b + 1 < width; ++b)
      st.counts[b] += ff * (n2[b] - n1[b]);
    ring.size = 0;
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
    init.env.assign(slot_count, Value::unknown());
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

        for (std::size_t i = slice_begin[st.block];
             i < slice_begin[st.block + 1]; ++i)
          eval_instruction(*slice_insts[i], st.env, launch);

        const Instruction& term = kernel.instructions[block.last];
        if (term.is_exit()) {
          const i64 w =
              (st.box.ct_hi - st.box.ct_lo) * (st.box.t_hi - st.box.t_lo);
          for (std::size_t b = 0; b < st.counts.size(); ++b)
            global_block_exec[b] += st.counts[b] * w;
          break;
        }

        // Cfg::build lists a branch's target first; any other block has
        // only its fallthrough.
        const std::size_t target = block.succs.front();
        if (!term.is_branch() || term.guard.empty()) {
          st.block = target;
          continue;
        }

        GP_DCHECK(term.guard_id >= 0);
        const int slot = slot_of[term.guard_id];
        GP_CHECK_MSG(slot >= 0 && st.env[slot].kind == Value::Kind::kPred,
                     "branch on unknown predicate '"
                         << term.guard << "' in " << kernel.name
                         << " (data-dependent branch?)");
        Value pred = st.env[slot];
        if (term.guard_negated) pred = negate_pred(pred);

        const Tri tri = eval_pred(pred, st.box);
        if (tri == Tri::kMixed) {
          auto parts = detail::split_box(pred, st.box);
          GP_CHECK_MSG(parts.size() >= 2, "mixed predicate failed to split");
          GP_CHECK(st.block + 1 < cfg.block_count());
          const std::size_t fallthrough = st.block + 1;
          for (std::size_t p = 0; p < parts.size(); ++p) {
            st.box = parts[p].first;
            st.block = parts[p].second ? target : fallthrough;
            if (p + 1 < parts.size())
              work.push_back(st);  // env/counts/rings copied
            else
              work.push_back(std::move(st));
          }
          break;  // children carry on
        }

        if (tri == Tri::kFalse) {
          GP_CHECK_MSG(st.block + 1 < cfg.block_count(),
                       "fallthrough off kernel end");
          st.block = st.block + 1;
          continue;
        }

        if (loop_of[st.block] >= 0)
          accelerate(st, pred, static_cast<std::size_t>(loop_of[st.block]));
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
