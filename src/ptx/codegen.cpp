#include "ptx/codegen.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "cnn/static_analyzer.hpp"
#include "ptx/parser.hpp"

namespace gpuperf::ptx {

namespace {

// ---- operand shorthands ----

Operand R(const std::string& name) { return RegOperand{name}; }
Operand I(std::int64_t v) {
  return ImmOperand{static_cast<double>(v), false};
}
Operand F(double v) { return ImmOperand{v, true}; }
Operand M(const std::string& base, std::int64_t off = 0) {
  return MemOperand{base, off};
}
Operand L(const std::string& name) { return LabelOperand{name}; }
Operand SR(SpecialReg r) { return SpecialOperand{r}; }

/// Incremental kernel builder with fresh-register allocation.
class Kb {
 public:
  Kb(std::string name, int block_dim) {
    k_.name = std::move(name);
    k_.reqntid = block_dim;
  }

  void param(const std::string& name, PtxType type) {
    k_.params.push_back(
        KernelParam{name, type, type == PtxType::kU64});
  }

  std::string r() { return "%r" + std::to_string(next_r_++); }   // 32-bit
  std::string rd() { return "%rd" + std::to_string(next_rd_++); }  // 64-bit
  std::string f() { return "%f" + std::to_string(next_f_++); }   // f32
  std::string p() { return "%p" + std::to_string(next_p_++); }   // pred

  void label(const std::string& name) {
    k_.labels[name] = k_.instructions.size();
  }

  void shared(std::int64_t bytes) { k_.shared_bytes = bytes; }

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

  // -- common idioms --

  std::string mov_u32(Operand src) {
    std::string dst = r();
    emit(Opcode::kMov, PtxType::kU32, {R(dst)}, {std::move(src)});
    return dst;
  }

  std::string ld_param_u32(const std::string& pname) {
    std::string dst = r();
    emit(Opcode::kLd, PtxType::kU32, {R(dst)}, {M(pname)},
         StateSpace::kParam);
    return dst;
  }

  std::string ld_param_ptr(const std::string& pname) {
    std::string raw = rd();
    emit(Opcode::kLd, PtxType::kU64, {R(raw)}, {M(pname)},
         StateSpace::kParam);
    std::string dst = rd();
    emit(Opcode::kCvta, PtxType::kU64, {R(dst)}, {R(raw)});
    return dst;
  }

  /// gid = ctaid.x * ntid.x + tid.x
  std::string gid() {
    std::string ct = mov_u32(SR(SpecialReg::kCtaidX));
    std::string nt = mov_u32(SR(SpecialReg::kNtidX));
    std::string t = mov_u32(SR(SpecialReg::kTidX));
    std::string g = r();
    emit(Opcode::kMad, PtxType::kS32, {R(g)}, {R(ct), R(nt), R(t)});
    return g;
  }

  /// stride = nctaid.x * ntid.x (grid-stride loops)
  std::string grid_stride() {
    std::string nc = mov_u32(SR(SpecialReg::kNctaidX));
    std::string nt = mov_u32(SR(SpecialReg::kNtidX));
    std::string s = r();
    emit(Opcode::kMulLo, PtxType::kS32, {R(s)}, {R(nc), R(nt)});
    return s;
  }

  /// addr = base + idx * 4 (f32 element address)
  std::string elem_addr(const std::string& base, const std::string& idx) {
    std::string off = rd();
    emit(Opcode::kMulWide, PtxType::kS32, {R(off)}, {R(idx), I(4)});
    std::string addr = rd();
    emit(Opcode::kAdd, PtxType::kU64, {R(addr)}, {R(base), R(off)});
    return addr;
  }

  std::string ld_global_f32(const std::string& addr) {
    std::string dst = f();
    emit(Opcode::kLd, PtxType::kF32, {R(dst)}, {M(addr)},
         StateSpace::kGlobal);
    return dst;
  }

  void st_global_f32(const std::string& addr, const std::string& val) {
    emit(Opcode::kSt, PtxType::kF32, {}, {M(addr), R(val)},
         StateSpace::kGlobal);
  }

  /// setp dst, a `cmp` b
  std::string setp(CompareOp cmp, PtxType type, Operand a, Operand b) {
    std::string dst = p();
    auto& inst = emit(Opcode::kSetp, type, {R(dst)},
                      {std::move(a), std::move(b)});
    inst.cmp = cmp;
    return dst;
  }

  void guarded_bra(const std::string& pred, bool negated,
                   const std::string& target) {
    auto& inst = emit(Opcode::kBra, PtxType::kU32, {}, {L(target)});
    inst.guard = pred;
    inst.guard_negated = negated;
  }

  void bra(const std::string& target) {
    emit(Opcode::kBra, PtxType::kU32, {}, {L(target)});
  }

  void bar() { emit(Opcode::kBar, PtxType::kU32, {}, {}); }

  void ret() { emit(Opcode::kRet, PtxType::kU32, {}, {}); }

  PtxKernel finish() {
    // Register declarations summarize what was allocated.
    auto decl = [&](PtxType t, const char* prefix, int n) {
      if (n > 1) k_.reg_decls.push_back(RegDecl{t, prefix, n});
    };
    decl(PtxType::kPred, "%p", next_p_);
    decl(PtxType::kF32, "%f", next_f_);
    decl(PtxType::kU32, "%r", next_r_);
    decl(PtxType::kU64, "%rd", next_rd_);
    k_.intern_registers();
    return std::move(k_);
  }

 private:
  PtxKernel k_;
  int next_r_ = 1, next_rd_ = 1, next_f_ = 1, next_p_ = 1;
};

constexpr int kBlock = CodeGenerator::kBlockDim;
constexpr int kTile = CodeGenerator::kGemmTile;

// ---- kernel emitters ----

/// Grid-stride elementwise skeleton; `body` maps the loaded value
/// register to the value register to store.
template <typename Body>
PtxKernel elementwise_kernel(const std::string& name, int n_inputs,
                             Body&& body) {
  Kb b(name, kBlock);
  b.param("p_dst", PtxType::kU64);
  b.param("p_a", PtxType::kU64);
  if (n_inputs > 1) b.param("p_b", PtxType::kU64);
  b.param("p_n", PtxType::kU32);

  std::string i = b.gid();
  std::string n = b.ld_param_u32("p_n");
  std::string a = b.ld_param_ptr("p_a");
  std::string b2 = n_inputs > 1 ? b.ld_param_ptr("p_b") : std::string();
  std::string dst = b.ld_param_ptr("p_dst");
  std::string stride = b.grid_stride();

  std::string done = b.setp(CompareOp::kGe, PtxType::kS32, R(i), R(n));
  b.guarded_bra(done, false, "EXIT");
  b.label("LOOP");
  std::string addr_a = b.elem_addr(a, i);
  std::string va = b.ld_global_f32(addr_a);
  std::string vb;
  if (n_inputs > 1) {
    std::string addr_b = b.elem_addr(b2, i);
    vb = b.ld_global_f32(addr_b);
  }
  std::string out = body(b, va, vb, i);
  std::string addr_d = b.elem_addr(dst, i);
  b.st_global_f32(addr_d, out);
  b.emit(Opcode::kAdd, PtxType::kS32, {R(i)}, {R(i), R(stride)});
  std::string more = b.setp(CompareOp::kLt, PtxType::kS32, R(i), R(n));
  b.guarded_bra(more, false, "LOOP");
  b.label("EXIT");
  b.ret();
  return b.finish();
}

/// exp(x) lowered as ex2(x * log2(e)) — the nvcc fast-math idiom.
std::string emit_exp(Kb& b, const std::string& x) {
  std::string scaled = b.f();
  b.emit(Opcode::kMul, PtxType::kF32, {R(scaled)},
         {R(x), F(1.4426950408889634)});
  std::string e = b.f();
  b.emit(Opcode::kEx2, PtxType::kF32, {R(e)}, {R(scaled)});
  return e;
}

/// sigmoid(x) = 1 / (1 + exp(-x))
std::string emit_sigmoid(Kb& b, const std::string& x) {
  std::string nx = b.f();
  b.emit(Opcode::kNeg, PtxType::kF32, {R(nx)}, {R(x)});
  std::string e = emit_exp(b, nx);
  std::string denom = b.f();
  b.emit(Opcode::kAdd, PtxType::kF32, {R(denom)}, {R(e), F(1.0)});
  std::string out = b.f();
  b.emit(Opcode::kRcp, PtxType::kF32, {R(out)}, {R(denom)});
  return out;
}

PtxKernel k_copy() {
  return elementwise_kernel(
      "gp_copy", 1,
      [](Kb&, const std::string& v, const std::string&, const std::string&) {
        return v;
      });
}

PtxKernel k_relu() {
  return elementwise_kernel(
      "gp_relu", 1,
      [](Kb& b, const std::string& v, const std::string&,
         const std::string&) {
        std::string out = b.f();
        b.emit(Opcode::kMax, PtxType::kF32, {R(out)}, {R(v), F(0.0)});
        return out;
      });
}

PtxKernel k_relu6() {
  return elementwise_kernel(
      "gp_relu6", 1,
      [](Kb& b, const std::string& v, const std::string&,
         const std::string&) {
        std::string lo = b.f();
        b.emit(Opcode::kMax, PtxType::kF32, {R(lo)}, {R(v), F(0.0)});
        std::string out = b.f();
        b.emit(Opcode::kMin, PtxType::kF32, {R(out)}, {R(lo), F(6.0)});
        return out;
      });
}

PtxKernel k_sigmoid() {
  return elementwise_kernel(
      "gp_sigmoid", 1,
      [](Kb& b, const std::string& v, const std::string&,
         const std::string&) { return emit_sigmoid(b, v); });
}

PtxKernel k_swish() {
  return elementwise_kernel(
      "gp_swish", 1,
      [](Kb& b, const std::string& v, const std::string&,
         const std::string&) {
        std::string s = emit_sigmoid(b, v);
        std::string out = b.f();
        b.emit(Opcode::kMul, PtxType::kF32, {R(out)}, {R(v), R(s)});
        return out;
      });
}

PtxKernel k_tanh() {
  return elementwise_kernel(
      "gp_tanh", 1,
      [](Kb& b, const std::string& v, const std::string&,
         const std::string&) {
        // tanh(x) = 2 sigmoid(2x) - 1
        std::string x2 = b.f();
        b.emit(Opcode::kMul, PtxType::kF32, {R(x2)}, {R(v), F(2.0)});
        std::string s = emit_sigmoid(b, x2);
        std::string s2 = b.f();
        b.emit(Opcode::kMul, PtxType::kF32, {R(s2)}, {R(s), F(2.0)});
        std::string out = b.f();
        b.emit(Opcode::kSub, PtxType::kF32, {R(out)}, {R(s2), F(1.0)});
        return out;
      });
}

PtxKernel k_add() {
  return elementwise_kernel(
      "gp_add", 2,
      [](Kb& b, const std::string& va, const std::string& vb,
         const std::string&) {
        std::string out = b.f();
        b.emit(Opcode::kAdd, PtxType::kF32, {R(out)}, {R(va), R(vb)});
        return out;
      });
}

PtxKernel k_mul() {
  return elementwise_kernel(
      "gp_mul", 2,
      [](Kb& b, const std::string& va, const std::string& vb,
         const std::string&) {
        std::string out = b.f();
        b.emit(Opcode::kMul, PtxType::kF32, {R(out)}, {R(va), R(vb)});
        return out;
      });
}

/// Inference batch norm: y = x * scale[c] + shift[c], c = i mod C.
PtxKernel k_bn() {
  Kb b("gp_bn", kBlock);
  b.param("p_dst", PtxType::kU64);
  b.param("p_a", PtxType::kU64);
  b.param("p_scale", PtxType::kU64);
  b.param("p_shift", PtxType::kU64);
  b.param("p_n", PtxType::kU32);
  b.param("p_c", PtxType::kU32);

  std::string i = b.gid();
  std::string n = b.ld_param_u32("p_n");
  std::string c = b.ld_param_u32("p_c");
  std::string a = b.ld_param_ptr("p_a");
  std::string scale = b.ld_param_ptr("p_scale");
  std::string shift = b.ld_param_ptr("p_shift");
  std::string dst = b.ld_param_ptr("p_dst");
  std::string stride = b.grid_stride();

  std::string done = b.setp(CompareOp::kGe, PtxType::kS32, R(i), R(n));
  b.guarded_bra(done, false, "EXIT");
  b.label("LOOP");
  std::string ch = b.r();
  b.emit(Opcode::kRem, PtxType::kS32, {R(ch)}, {R(i), R(c)});
  std::string x = b.ld_global_f32(b.elem_addr(a, i));
  std::string sc = b.ld_global_f32(b.elem_addr(scale, ch));
  std::string sh = b.ld_global_f32(b.elem_addr(shift, ch));
  std::string y = b.f();
  b.emit(Opcode::kFma, PtxType::kF32, {R(y)}, {R(x), R(sc), R(sh)});
  b.st_global_f32(b.elem_addr(dst, i), y);
  b.emit(Opcode::kAdd, PtxType::kS32, {R(i)}, {R(i), R(stride)});
  std::string more = b.setp(CompareOp::kLt, PtxType::kS32, R(i), R(n));
  b.guarded_bra(more, false, "LOOP");
  b.label("EXIT");
  b.ret();
  return b.finish();
}

/// Channel-broadcast multiply (squeeze-excite): y = x * se[i mod C].
PtxKernel k_mul_bcast() {
  Kb b("gp_mul_bcast", kBlock);
  b.param("p_dst", PtxType::kU64);
  b.param("p_a", PtxType::kU64);
  b.param("p_se", PtxType::kU64);
  b.param("p_n", PtxType::kU32);
  b.param("p_c", PtxType::kU32);

  std::string i = b.gid();
  std::string n = b.ld_param_u32("p_n");
  std::string c = b.ld_param_u32("p_c");
  std::string a = b.ld_param_ptr("p_a");
  std::string se = b.ld_param_ptr("p_se");
  std::string dst = b.ld_param_ptr("p_dst");
  std::string stride = b.grid_stride();

  std::string done = b.setp(CompareOp::kGe, PtxType::kS32, R(i), R(n));
  b.guarded_bra(done, false, "EXIT");
  b.label("LOOP");
  std::string ch = b.r();
  b.emit(Opcode::kRem, PtxType::kS32, {R(ch)}, {R(i), R(c)});
  std::string x = b.ld_global_f32(b.elem_addr(a, i));
  std::string s = b.ld_global_f32(b.elem_addr(se, ch));
  std::string y = b.f();
  b.emit(Opcode::kMul, PtxType::kF32, {R(y)}, {R(x), R(s)});
  b.st_global_f32(b.elem_addr(dst, i), y);
  b.emit(Opcode::kAdd, PtxType::kS32, {R(i)}, {R(i), R(stride)});
  std::string more = b.setp(CompareOp::kLt, PtxType::kS32, R(i), R(n));
  b.guarded_bra(more, false, "LOOP");
  b.label("EXIT");
  b.ret();
  return b.finish();
}

/// im2col: one thread per output patch, loop over the window gathering
/// into the column matrix.
PtxKernel k_im2col() {
  Kb b("gp_im2col", kBlock);
  b.param("p_col", PtxType::kU64);
  b.param("p_src", PtxType::kU64);
  b.param("p_patches", PtxType::kU32);
  b.param("p_window", PtxType::kU32);

  std::string i = b.gid();
  std::string patches = b.ld_param_u32("p_patches");
  std::string window = b.ld_param_u32("p_window");
  std::string col = b.ld_param_ptr("p_col");
  std::string src = b.ld_param_ptr("p_src");

  std::string skip = b.setp(CompareOp::kGe, PtxType::kS32, R(i), R(patches));
  b.guarded_bra(skip, false, "EXIT");

  std::string w = b.mov_u32(I(0));
  // Column-matrix base index for this patch: i * window.
  std::string out_base = b.r();
  b.emit(Opcode::kMulLo, PtxType::kS32, {R(out_base)}, {R(i), R(window)});

  b.label("WLOOP");
  // Gather address: src_idx = w * patches + i (transposed layout walk).
  std::string src_idx = b.r();
  b.emit(Opcode::kMad, PtxType::kS32, {R(src_idx)}, {R(w), R(patches), R(i)});
  std::string v = b.ld_global_f32(b.elem_addr(src, src_idx));
  std::string out_idx = b.r();
  b.emit(Opcode::kAdd, PtxType::kS32, {R(out_idx)}, {R(out_base), R(w)});
  b.st_global_f32(b.elem_addr(col, out_idx), v);
  b.emit(Opcode::kAdd, PtxType::kS32, {R(w)}, {R(w), I(1)});
  std::string more = b.setp(CompareOp::kLt, PtxType::kS32, R(w), R(window));
  b.guarded_bra(more, false, "WLOOP");
  b.label("EXIT");
  b.ret();
  return b.finish();
}

/// Shared-memory tiled GEMM + bias epilogue.  One thread per output
/// element; K is pre-padded to a multiple of the tile so the tile loop
/// carries no boundary branches (all threads iterate for bar.sync).
PtxKernel k_gemm() {
  Kb b("gp_gemm", kBlock);
  b.param("p_c", PtxType::kU64);
  b.param("p_a", PtxType::kU64);
  b.param("p_b", PtxType::kU64);
  b.param("p_bias", PtxType::kU64);
  b.param("p_total", PtxType::kU32);  // M * N
  b.param("p_n", PtxType::kU32);      // N
  b.param("p_kt", PtxType::kU32);     // K / kTile
  b.shared(2 * kTile * kBlock / kTile * 4);  // two tiles of f32

  std::string gid = b.gid();
  std::string total = b.ld_param_u32("p_total");
  std::string n = b.ld_param_u32("p_n");
  std::string kt = b.ld_param_u32("p_kt");
  std::string a = b.ld_param_ptr("p_a");
  std::string bm = b.ld_param_ptr("p_b");
  std::string bias = b.ld_param_ptr("p_bias");
  std::string cm = b.ld_param_ptr("p_c");

  // Tile coordinates (feed only shared-memory addresses).
  std::string tid = b.mov_u32(SR(SpecialReg::kTidX));
  std::string tx = b.r();
  b.emit(Opcode::kRem, PtxType::kS32, {R(tx)}, {R(tid), I(kTile)});
  std::string ty = b.r();
  b.emit(Opcode::kDiv, PtxType::kS32, {R(ty)}, {R(tid), I(kTile)});

  std::string acc = b.f();
  b.emit(Opcode::kMov, PtxType::kF32, {R(acc)}, {F(0.0)});

  std::string t = b.mov_u32(I(0));
  std::string no_tiles =
      b.setp(CompareOp::kLe, PtxType::kS32, R(kt), I(0));
  b.guarded_bra(no_tiles, false, "AFTER");

  b.label("KLOOP");
  {
    // Stage one A element and one B element into shared memory.
    std::string a_idx = b.r();
    b.emit(Opcode::kMad, PtxType::kS32, {R(a_idx)}, {R(t), I(kTile), R(gid)});
    std::string va = b.ld_global_f32(b.elem_addr(a, a_idx));
    std::string sa = b.rd();
    b.emit(Opcode::kMulWide, PtxType::kS32, {R(sa)}, {R(tid), I(4)});
    b.emit(Opcode::kSt, PtxType::kF32, {}, {M(sa), R(va)},
           StateSpace::kShared);

    std::string b_idx = b.r();
    b.emit(Opcode::kMad, PtxType::kS32, {R(b_idx)}, {R(t), R(n), R(gid)});
    std::string vb = b.ld_global_f32(b.elem_addr(bm, b_idx));
    std::string sb32 = b.r();
    b.emit(Opcode::kMad, PtxType::kS32, {R(sb32)},
           {R(tid), I(4), I(kBlock * 4)});
    std::string sb = b.rd();
    b.emit(Opcode::kCvt, PtxType::kU64, {R(sb)}, {R(sb32)});
    b.emit(Opcode::kSt, PtxType::kF32, {}, {M(sb), R(vb)},
           StateSpace::kShared);
    b.bar();

    // Inner product over the staged tile.
    std::string j = b.mov_u32(I(0));
    b.label("JLOOP");
    std::string ja32 = b.r();
    b.emit(Opcode::kMad, PtxType::kS32, {R(ja32)},
           {R(j), I(4 * kTile), R(ty)});
    std::string ja = b.rd();
    b.emit(Opcode::kCvt, PtxType::kU64, {R(ja)}, {R(ja32)});
    std::string fa = b.f();
    b.emit(Opcode::kLd, PtxType::kF32, {R(fa)}, {M(ja)},
           StateSpace::kShared);
    std::string jb32 = b.r();
    b.emit(Opcode::kMad, PtxType::kS32, {R(jb32)},
           {R(j), I(4 * kTile), R(tx)});
    std::string jb = b.rd();
    b.emit(Opcode::kCvt, PtxType::kU64, {R(jb)}, {R(jb32)});
    std::string fb = b.f();
    b.emit(Opcode::kLd, PtxType::kF32, {R(fb)}, {M(jb)},
           StateSpace::kShared);
    b.emit(Opcode::kFma, PtxType::kF32, {R(acc)}, {R(fa), R(fb), R(acc)});
    b.emit(Opcode::kAdd, PtxType::kS32, {R(j)}, {R(j), I(1)});
    std::string jmore = b.setp(CompareOp::kLt, PtxType::kS32, R(j), I(kTile));
    b.guarded_bra(jmore, false, "JLOOP");
    b.bar();

    b.emit(Opcode::kAdd, PtxType::kS32, {R(t)}, {R(t), I(1)});
    std::string tmore = b.setp(CompareOp::kLt, PtxType::kS32, R(t), R(kt));
    b.guarded_bra(tmore, false, "KLOOP");
  }

  b.label("AFTER");
  std::string oob = b.setp(CompareOp::kGe, PtxType::kS32, R(gid), R(total));
  b.guarded_bra(oob, false, "EXIT");
  std::string colv = b.r();
  b.emit(Opcode::kRem, PtxType::kS32, {R(colv)}, {R(gid), R(n)});
  std::string bv = b.ld_global_f32(b.elem_addr(bias, colv));
  std::string out = b.f();
  b.emit(Opcode::kAdd, PtxType::kF32, {R(out)}, {R(acc), R(bv)});
  b.st_global_f32(b.elem_addr(cm, gid), out);
  b.label("EXIT");
  b.ret();
  return b.finish();
}

/// Direct depthwise convolution / correlation: one thread per output
/// element, loop over the window with a weight load per tap.
PtxKernel k_dwconv() {
  Kb b("gp_dwconv", kBlock);
  b.param("p_dst", PtxType::kU64);
  b.param("p_src", PtxType::kU64);
  b.param("p_w", PtxType::kU64);
  b.param("p_out", PtxType::kU32);
  b.param("p_window", PtxType::kU32);

  std::string i = b.gid();
  std::string out_n = b.ld_param_u32("p_out");
  std::string window = b.ld_param_u32("p_window");
  std::string src = b.ld_param_ptr("p_src");
  std::string wgt = b.ld_param_ptr("p_w");
  std::string dst = b.ld_param_ptr("p_dst");

  std::string skip = b.setp(CompareOp::kGe, PtxType::kS32, R(i), R(out_n));
  b.guarded_bra(skip, false, "EXIT");

  std::string acc = b.f();
  b.emit(Opcode::kMov, PtxType::kF32, {R(acc)}, {F(0.0)});
  std::string w = b.mov_u32(I(0));
  b.label("WLOOP");
  std::string s_idx = b.r();
  b.emit(Opcode::kMad, PtxType::kS32, {R(s_idx)}, {R(w), R(out_n), R(i)});
  std::string sv = b.ld_global_f32(b.elem_addr(src, s_idx));
  std::string wv = b.ld_global_f32(b.elem_addr(wgt, w));
  b.emit(Opcode::kFma, PtxType::kF32, {R(acc)}, {R(sv), R(wv), R(acc)});
  b.emit(Opcode::kAdd, PtxType::kS32, {R(w)}, {R(w), I(1)});
  std::string more = b.setp(CompareOp::kLt, PtxType::kS32, R(w), R(window));
  b.guarded_bra(more, false, "WLOOP");

  b.st_global_f32(b.elem_addr(dst, i), acc);
  b.label("EXIT");
  b.ret();
  return b.finish();
}

/// Window pooling; max selects, avg accumulates then scales by the
/// reciprocal window size.
PtxKernel k_pool(const std::string& name, bool is_max) {
  Kb b(name, kBlock);
  b.param("p_dst", PtxType::kU64);
  b.param("p_src", PtxType::kU64);
  b.param("p_out", PtxType::kU32);
  b.param("p_window", PtxType::kU32);

  std::string i = b.gid();
  std::string out_n = b.ld_param_u32("p_out");
  std::string window = b.ld_param_u32("p_window");
  std::string src = b.ld_param_ptr("p_src");
  std::string dst = b.ld_param_ptr("p_dst");

  std::string skip = b.setp(CompareOp::kGe, PtxType::kS32, R(i), R(out_n));
  b.guarded_bra(skip, false, "EXIT");

  std::string acc = b.f();
  b.emit(Opcode::kMov, PtxType::kF32, {R(acc)},
         {is_max ? F(-3.4e38) : F(0.0)});
  std::string w = b.mov_u32(I(0));
  b.label("WLOOP");
  std::string s_idx = b.r();
  b.emit(Opcode::kMad, PtxType::kS32, {R(s_idx)}, {R(w), R(out_n), R(i)});
  std::string sv = b.ld_global_f32(b.elem_addr(src, s_idx));
  b.emit(is_max ? Opcode::kMax : Opcode::kAdd, PtxType::kF32, {R(acc)},
         {R(acc), R(sv)});
  b.emit(Opcode::kAdd, PtxType::kS32, {R(w)}, {R(w), I(1)});
  std::string more = b.setp(CompareOp::kLt, PtxType::kS32, R(w), R(window));
  b.guarded_bra(more, false, "WLOOP");

  if (!is_max) {
    std::string wf = b.f();
    b.emit(Opcode::kCvt, PtxType::kF32, {R(wf)}, {R(window)});
    std::string inv = b.f();
    b.emit(Opcode::kRcp, PtxType::kF32, {R(inv)}, {R(wf)});
    std::string scaled = b.f();
    b.emit(Opcode::kMul, PtxType::kF32, {R(scaled)}, {R(acc), R(inv)});
    acc = scaled;
  }
  b.st_global_f32(b.elem_addr(dst, i), acc);
  b.label("EXIT");
  b.ret();
  return b.finish();
}

/// Global average pool: one thread per channel, strided accumulation
/// over the H*W plane.
PtxKernel k_gap() {
  Kb b("gp_gap", kBlock);
  b.param("p_dst", PtxType::kU64);
  b.param("p_src", PtxType::kU64);
  b.param("p_c", PtxType::kU32);
  b.param("p_hw", PtxType::kU32);

  std::string i = b.gid();
  std::string c = b.ld_param_u32("p_c");
  std::string hw = b.ld_param_u32("p_hw");
  std::string src = b.ld_param_ptr("p_src");
  std::string dst = b.ld_param_ptr("p_dst");

  std::string skip = b.setp(CompareOp::kGe, PtxType::kS32, R(i), R(c));
  b.guarded_bra(skip, false, "EXIT");

  std::string acc = b.f();
  b.emit(Opcode::kMov, PtxType::kF32, {R(acc)}, {F(0.0)});
  std::string j = b.mov_u32(I(0));
  b.label("HLOOP");
  std::string idx = b.r();
  b.emit(Opcode::kMad, PtxType::kS32, {R(idx)}, {R(j), R(c), R(i)});
  std::string v = b.ld_global_f32(b.elem_addr(src, idx));
  b.emit(Opcode::kAdd, PtxType::kF32, {R(acc)}, {R(acc), R(v)});
  b.emit(Opcode::kAdd, PtxType::kS32, {R(j)}, {R(j), I(1)});
  std::string more = b.setp(CompareOp::kLt, PtxType::kS32, R(j), R(hw));
  b.guarded_bra(more, false, "HLOOP");

  std::string hwf = b.f();
  b.emit(Opcode::kCvt, PtxType::kF32, {R(hwf)}, {R(hw)});
  std::string inv = b.f();
  b.emit(Opcode::kRcp, PtxType::kF32, {R(inv)}, {R(hwf)});
  std::string mean = b.f();
  b.emit(Opcode::kMul, PtxType::kF32, {R(mean)}, {R(acc), R(inv)});
  b.st_global_f32(b.elem_addr(dst, i), mean);
  b.label("EXIT");
  b.ret();
  return b.finish();
}

/// Single-block softmax: strided exp pass, shared-memory tree
/// reduction (a genuinely divergent loop), then normalization.
PtxKernel k_softmax() {
  Kb b("gp_softmax", kBlock);
  b.param("p_dst", PtxType::kU64);
  b.param("p_src", PtxType::kU64);
  b.param("p_n", PtxType::kU32);
  b.shared(kBlock * 4);

  std::string tid = b.mov_u32(SR(SpecialReg::kTidX));
  std::string n = b.ld_param_u32("p_n");
  std::string src = b.ld_param_ptr("p_src");
  std::string dst = b.ld_param_ptr("p_dst");

  // Phase 1: per-thread partial sum of exp(x), exp stored to dst.
  std::string acc = b.f();
  b.emit(Opcode::kMov, PtxType::kF32, {R(acc)}, {F(0.0)});
  std::string i = b.mov_u32(I(0));
  b.emit(Opcode::kAdd, PtxType::kS32, {R(i)}, {R(i), R(tid)});
  std::string p1_skip = b.setp(CompareOp::kGe, PtxType::kS32, R(i), R(n));
  b.guarded_bra(p1_skip, false, "P1END");
  b.label("P1LOOP");
  std::string x = b.ld_global_f32(b.elem_addr(src, i));
  std::string e = emit_exp(b, x);
  b.emit(Opcode::kAdd, PtxType::kF32, {R(acc)}, {R(acc), R(e)});
  b.st_global_f32(b.elem_addr(dst, i), e);
  b.emit(Opcode::kAdd, PtxType::kS32, {R(i)}, {R(i), I(kBlock)});
  std::string p1_more = b.setp(CompareOp::kLt, PtxType::kS32, R(i), R(n));
  b.guarded_bra(p1_more, false, "P1LOOP");
  b.label("P1END");

  std::string saddr = b.rd();
  b.emit(Opcode::kMulWide, PtxType::kS32, {R(saddr)}, {R(tid), I(4)});
  b.emit(Opcode::kSt, PtxType::kF32, {}, {M(saddr), R(acc)},
         StateSpace::kShared);
  b.bar();

  // Phase 2: tree reduction (threads with tid >= s sit out each round).
  std::string s = b.mov_u32(I(kBlock / 2));
  b.label("RLOOP");
  std::string idle = b.setp(CompareOp::kGe, PtxType::kS32, R(tid), R(s));
  b.guarded_bra(idle, false, "SKIP");
  std::string other = b.r();
  b.emit(Opcode::kAdd, PtxType::kS32, {R(other)}, {R(tid), R(s)});
  std::string oaddr = b.rd();
  b.emit(Opcode::kMulWide, PtxType::kS32, {R(oaddr)}, {R(other), I(4)});
  std::string mine = b.f();
  b.emit(Opcode::kLd, PtxType::kF32, {R(mine)}, {M(saddr)},
         StateSpace::kShared);
  std::string theirs = b.f();
  b.emit(Opcode::kLd, PtxType::kF32, {R(theirs)}, {M(oaddr)},
         StateSpace::kShared);
  std::string sum = b.f();
  b.emit(Opcode::kAdd, PtxType::kF32, {R(sum)}, {R(mine), R(theirs)});
  b.emit(Opcode::kSt, PtxType::kF32, {}, {M(saddr), R(sum)},
         StateSpace::kShared);
  b.label("SKIP");
  b.bar();
  b.emit(Opcode::kShr, PtxType::kB32, {R(s)}, {R(s), I(1)});
  std::string r_more = b.setp(CompareOp::kGt, PtxType::kS32, R(s), I(0));
  b.guarded_bra(r_more, false, "RLOOP");

  std::string zero_addr = b.rd();
  b.emit(Opcode::kMov, PtxType::kU64, {R(zero_addr)}, {I(0)});
  std::string total = b.f();
  b.emit(Opcode::kLd, PtxType::kF32, {R(total)}, {M(zero_addr)},
         StateSpace::kShared);
  std::string inv = b.f();
  b.emit(Opcode::kRcp, PtxType::kF32, {R(inv)}, {R(total)});

  // Phase 3: normalize.
  std::string i3 = b.mov_u32(I(0));
  b.emit(Opcode::kAdd, PtxType::kS32, {R(i3)}, {R(i3), R(tid)});
  std::string p3_skip = b.setp(CompareOp::kGe, PtxType::kS32, R(i3), R(n));
  b.guarded_bra(p3_skip, false, "EXIT");
  b.label("P3LOOP");
  std::string ev = b.ld_global_f32(b.elem_addr(dst, i3));
  std::string nv = b.f();
  b.emit(Opcode::kMul, PtxType::kF32, {R(nv)}, {R(ev), R(inv)});
  b.st_global_f32(b.elem_addr(dst, i3), nv);
  b.emit(Opcode::kAdd, PtxType::kS32, {R(i3)}, {R(i3), I(kBlock)});
  std::string p3_more = b.setp(CompareOp::kLt, PtxType::kS32, R(i3), R(n));
  b.guarded_bra(p3_more, false, "P3LOOP");
  b.label("EXIT");
  b.ret();
  return b.finish();
}

}  // namespace

PtxModule CodeGenerator::kernel_library() {
  PtxModule mod;
  mod.version = "7.0";
  mod.target = "sm_70";
  mod.kernels.push_back(k_copy());
  mod.kernels.push_back(k_relu());
  mod.kernels.push_back(k_relu6());
  mod.kernels.push_back(k_sigmoid());
  mod.kernels.push_back(k_swish());
  mod.kernels.push_back(k_tanh());
  mod.kernels.push_back(k_add());
  mod.kernels.push_back(k_mul());
  mod.kernels.push_back(k_bn());
  mod.kernels.push_back(k_mul_bcast());
  mod.kernels.push_back(k_im2col());
  mod.kernels.push_back(k_gemm());
  mod.kernels.push_back(k_dwconv());
  mod.kernels.push_back(k_pool("gp_pool_max", true));
  mod.kernels.push_back(k_pool("gp_pool_avg", false));
  mod.kernels.push_back(k_gap());
  mod.kernels.push_back(k_softmax());
  return mod;
}

const PtxModule& CodeGenerator::parsed_kernel_library() {
  static const PtxModule module = parse_ptx(kernel_library().to_ptx());
  return module;
}

namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

/// Lowering context: accumulates launches and fake device addresses.
class Lowering {
 public:
  explicit Lowering(CompiledModel& out) : out_(out) {}

  /// Layer name recorded for subsequently emitted launches.
  void set_source(const std::string& source) { source_ = source; }

  std::int64_t alloc(std::int64_t bytes) {
    const std::int64_t addr = next_addr_;
    next_addr_ += (bytes + 255) / 256 * 256;
    return addr;
  }

  /// Emit one launch of `grid` blocks.  `args` are the kernel's
  /// parameter values in the order its emitter above declares them.
  void emit(const char* kernel, std::int64_t grid,
            std::initializer_list<std::int64_t> args, LaunchStats stats) {
    KernelLaunch& l = out_.launches.emplace_back();
    l.kernel = kernel;
    l.grid_dim = grid;
    l.block_dim = CodeGenerator::kBlockDim;
    l.args.assign(args);
    out_.stats.push_back(stats);
    out_.sources.push_back(source_);
  }

  /// A launch covering `threads` threads (one per output element).
  void launch(const char* kernel, std::int64_t threads,
              std::initializer_list<std::int64_t> args, LaunchStats stats,
              bool grid_stride_capped = false) {
    std::int64_t blocks = ceil_div(std::max<std::int64_t>(threads, 1),
                                   CodeGenerator::kBlockDim);
    if (grid_stride_capped) blocks = std::min<std::int64_t>(blocks, 4096);
    emit(kernel, std::max<std::int64_t>(blocks, 1), args, stats);
  }

  /// Elementwise-style launch over n elements (grid-stride kernels):
  /// p_dst, p_a, p_n.
  void elementwise(const char* kernel, std::int64_t dst, std::int64_t a,
                   std::int64_t n, LaunchStats stats) {
    launch(kernel, n, {dst, a, n}, stats, /*grid_stride_capped=*/true);
  }

 private:
  CompiledModel& out_;
  std::string source_;
  std::int64_t next_addr_ = 0x10000000;
};

}  // namespace

CompiledModel CodeGenerator::compile(const cnn::Model& model,
                                     std::int64_t batch) const {
  using cnn::LayerKind;
  GP_CHECK_MSG(batch >= 1 && batch <= 1024, "implausible batch size");

  CompiledModel out;
  out.model_name = model.name();

  cnn::StaticAnalyzer analyzer;
  const std::vector<cnn::TensorShape> shapes = analyzer.infer_shapes(model);

  Lowering lower(out);
  // Per-node output buffer addresses.
  std::vector<std::int64_t> buf(model.node_count(), 0);

  auto act_kernel = [](cnn::ActivationKind act) -> const char* {
    switch (act) {
      case cnn::ActivationKind::kReLU: return "gp_relu";
      case cnn::ActivationKind::kReLU6: return "gp_relu6";
      case cnn::ActivationKind::kSigmoid: return "gp_sigmoid";
      case cnn::ActivationKind::kSwish: return "gp_swish";
      case cnn::ActivationKind::kTanh: return "gp_tanh";
      default: return nullptr;  // linear / softmax handled separately
    }
  };

  auto emit_activation = [&](cnn::ActivationKind act, std::int64_t addr,
                             std::int64_t n) {
    if (act == cnn::ActivationKind::kSoftmax) {
      // One block per batch row: p_dst, p_src, p_n.
      lower.emit("gp_softmax", batch, {addr, addr, n / batch},
                 LaunchStats{n * 8, n * 8, 4 * n});
      return;
    }
    if (const char* kname = act_kernel(act))
      lower.elementwise(kname, addr, addr, n,
                        LaunchStats{n * 4, n * 4, 2 * n});
  };

  // GEMM: im2col'd activations (M x K) times weights (K x N), plus bias.
  auto emit_gemm = [&](std::int64_t m, std::int64_t n_cols, std::int64_t k,
                       std::int64_t a_addr, std::int64_t c_addr) {
    const std::int64_t k_padded = ceil_div(k, kGemmTile) * kGemmTile;
    const std::int64_t w_addr = lower.alloc(k_padded * n_cols * 4);
    const std::int64_t bias_addr = lower.alloc(n_cols * 4);
    LaunchStats stats;
    stats.bytes_read = (m * k + k * n_cols + n_cols) * 4;
    stats.bytes_written = m * n_cols * 4;
    stats.flops = 2 * m * n_cols * k;
    // p_c, p_a, p_b, p_bias, p_total, p_n, p_kt
    lower.launch("gp_gemm", m * n_cols,
                 {c_addr, a_addr, w_addr, bias_addr, m * n_cols, n_cols,
                  k_padded / kGemmTile},
                 stats);
  };

  for (std::size_t ni = 0; ni < model.node_count(); ++ni) {
    const cnn::ModelNode& node = model.node(static_cast<cnn::NodeId>(ni));
    const cnn::Layer& layer = node.layer;
    lower.set_source(layer.name);
    const cnn::TensorShape& out_shape = shapes[ni];
    const std::int64_t out_elems = out_shape.elements() * batch;

    const std::int64_t in0 =
        node.inputs.empty() ? -1 : buf[static_cast<std::size_t>(
                                       node.inputs.front())];
    const std::int64_t in_elems =
        node.inputs.empty()
            ? 0
            : shapes[static_cast<std::size_t>(node.inputs.front())]
                      .elements() *
                  batch;

    switch (layer.kind) {
      case LayerKind::kInput:
        buf[ni] = lower.alloc(out_elems * 4);
        break;

      case LayerKind::kConv2D: {
        const cnn::TensorShape& in_shape =
            shapes[static_cast<std::size_t>(node.inputs.front())];
        const std::int64_t groups = layer.groups;
        const std::int64_t cin_g = in_shape.c / groups;
        const std::int64_t window =
            static_cast<std::int64_t>(layer.kernel_h) * layer.kernel_w *
            cin_g;
        const std::int64_t patches = out_shape.h * out_shape.w * batch;
        buf[ni] = lower.alloc(out_elems * 4);
        for (std::int64_t g = 0; g < groups; ++g) {
          const std::int64_t col_addr = lower.alloc(patches * window * 4);
          LaunchStats im_stats;
          im_stats.bytes_read = in_elems / groups * 4;
          im_stats.bytes_written = patches * window * 4;
          // p_col, p_src, p_patches, p_window
          lower.launch("gp_im2col", patches,
                       {col_addr, in0, patches, window}, im_stats);
          emit_gemm(patches, layer.filters / groups, window, col_addr,
                    buf[ni]);
        }
        emit_activation(layer.act, buf[ni], out_elems);
        break;
      }

      case LayerKind::kDepthwiseConv2D: {
        const std::int64_t window =
            static_cast<std::int64_t>(layer.kernel_h) * layer.kernel_w;
        buf[ni] = lower.alloc(out_elems * 4);
        const std::int64_t w_addr = lower.alloc(window * out_shape.c * 4);
        LaunchStats stats;
        stats.bytes_read = (in_elems + window * out_shape.c) * 4;
        stats.bytes_written = out_elems * 4;
        stats.flops = 2 * out_elems * window;
        // p_dst, p_src, p_w, p_out, p_window
        lower.launch("gp_dwconv", out_elems,
                     {buf[ni], in0, w_addr, out_elems, window}, stats);
        break;
      }

      case LayerKind::kDense: {
        buf[ni] = lower.alloc(out_elems * 4);
        emit_gemm(batch, layer.filters, in_elems / batch, in0, buf[ni]);
        emit_activation(layer.act, buf[ni], out_elems);
        break;
      }

      case LayerKind::kMaxPool:
      case LayerKind::kAvgPool: {
        const std::int64_t window =
            static_cast<std::int64_t>(layer.kernel_h) * layer.kernel_w;
        buf[ni] = lower.alloc(out_elems * 4);
        LaunchStats stats;
        stats.bytes_read = in_elems * 4;
        stats.bytes_written = out_elems * 4;
        stats.flops = out_elems * window;
        // p_dst, p_src, p_out, p_window
        lower.launch(layer.kind == LayerKind::kMaxPool ? "gp_pool_max"
                                                       : "gp_pool_avg",
                     out_elems, {buf[ni], in0, out_elems, window}, stats);
        break;
      }

      case LayerKind::kGlobalAvgPool: {
        const cnn::TensorShape& in_shape =
            shapes[static_cast<std::size_t>(node.inputs.front())];
        buf[ni] = lower.alloc(out_elems * 4);
        LaunchStats stats;
        stats.bytes_read = in_elems * 4;
        stats.bytes_written = out_elems * 4;
        stats.flops = in_elems;
        // p_dst, p_src, p_c, p_hw
        lower.launch("gp_gap", in_shape.c * batch,
                     {buf[ni], in0, in_shape.c * batch,
                      in_shape.h * in_shape.w},
                     stats);
        break;
      }

      case LayerKind::kActivation: {
        buf[ni] = lower.alloc(out_elems * 4);
        // Standalone activation writes a fresh buffer: dst != src.
        if (layer.act == cnn::ActivationKind::kSoftmax) {
          // One block per batch row: p_dst, p_src, p_n.
          lower.emit("gp_softmax", batch, {buf[ni], in0, out_elems / batch},
                     LaunchStats{out_elems * 8, out_elems * 8,
                                 4 * out_elems});
        } else if (const char* kname = act_kernel(layer.act)) {
          lower.elementwise(kname, buf[ni], in0, out_elems,
                            LaunchStats{out_elems * 4, out_elems * 4,
                                        2 * out_elems});
        } else {
          lower.elementwise("gp_copy", buf[ni], in0, out_elems,
                            LaunchStats{out_elems * 4, out_elems * 4, 0});
        }
        break;
      }

      case LayerKind::kBatchNorm: {
        buf[ni] = lower.alloc(out_elems * 4);
        const std::int64_t c =
            out_shape.rank == 3 ? out_shape.c : out_shape.h;
        const std::int64_t scale = lower.alloc(c * 4);
        const std::int64_t shift = lower.alloc(c * 4);
        LaunchStats stats;
        stats.bytes_read = (out_elems + 2 * c) * 4;
        stats.bytes_written = out_elems * 4;
        stats.flops = 2 * out_elems;
        // p_dst, p_a, p_scale, p_shift, p_n, p_c
        lower.launch("gp_bn", out_elems,
                     {buf[ni], in0, scale, shift, out_elems, c}, stats,
                     /*grid_stride_capped=*/true);
        break;
      }

      case LayerKind::kAdd:
      case LayerKind::kMultiply: {
        buf[ni] = lower.alloc(out_elems * 4);
        // Fold operands pairwise; broadcast multiply picks the special
        // kernel when one operand is a rank-1 channel vector.
        std::int64_t acc = in0;
        cnn::TensorShape acc_shape =
            shapes[static_cast<std::size_t>(node.inputs.front())];
        for (std::size_t k = 1; k < node.inputs.size(); ++k) {
          const std::size_t other_ni =
              static_cast<std::size_t>(node.inputs[k]);
          const std::int64_t other = buf[other_ni];
          const cnn::TensorShape& other_shape = shapes[other_ni];
          const bool bcast = layer.kind == LayerKind::kMultiply &&
                             other_shape.rank != acc_shape.rank;
          if (bcast) {
            const std::int64_t c =
                acc_shape.rank == 3 ? acc_shape.c : other_shape.c;
            const std::int64_t map =
                acc_shape.rank == 3 ? acc : other;
            const std::int64_t vec =
                acc_shape.rank == 3 ? other : acc;
            LaunchStats stats;
            stats.bytes_read = (out_elems + c) * 4;
            stats.bytes_written = out_elems * 4;
            stats.flops = out_elems;
            // p_dst, p_a, p_se, p_n, p_c
            lower.launch("gp_mul_bcast", out_elems,
                         {buf[ni], map, vec, out_elems, c}, stats,
                         /*grid_stride_capped=*/true);
          } else {
            LaunchStats stats;
            stats.bytes_read = 2 * out_elems * 4;
            stats.bytes_written = out_elems * 4;
            stats.flops = out_elems;
            // p_dst, p_a, p_b, p_n
            lower.launch(layer.kind == LayerKind::kAdd ? "gp_add" : "gp_mul",
                         out_elems, {buf[ni], acc, other, out_elems}, stats,
                         /*grid_stride_capped=*/true);
          }
          acc = buf[ni];
          acc_shape = out_shape;
        }
        break;
      }

      case LayerKind::kConcat: {
        buf[ni] = lower.alloc(out_elems * 4);
        std::int64_t offset = 0;
        for (cnn::NodeId in : node.inputs) {
          const std::size_t in_i = static_cast<std::size_t>(in);
          const std::int64_t n = shapes[in_i].elements();
          lower.elementwise("gp_copy", buf[ni] + offset, buf[in_i], n,
                            LaunchStats{n * 4, n * 4, 0});
          offset += n * 4;
        }
        break;
      }

      case LayerKind::kZeroPad: {
        buf[ni] = lower.alloc(out_elems * 4);
        lower.elementwise("gp_copy", buf[ni], in0, in_elems,
                          LaunchStats{in_elems * 4, in_elems * 4, 0});
        break;
      }

      case LayerKind::kFlatten:
      case LayerKind::kDropout:
        // Views at inference time: reuse the input buffer.
        buf[ni] = in0;
        break;
    }
  }
  return out;
}

}  // namespace gpuperf::ptx
