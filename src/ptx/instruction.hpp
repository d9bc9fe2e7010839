// Operand and Instruction representations plus their textual PTX
// rendering.  The generator emits these, the parser reconstructs them,
// and the round trip is covered by tests.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "ptx/isa.hpp"

namespace gpuperf::ptx {

/// Virtual register reference, e.g. "%r12", "%rd3", "%f7", "%p1".
/// `id` is the kernel-local interned index assigned by
/// PtxKernel::intern_registers(); -1 until interning runs.  Equality
/// ignores ids so parse/print round trips compare structurally.
struct RegOperand {
  std::string name;
  int id = -1;
  bool operator==(const RegOperand& o) const { return name == o.name; }
};

/// Integer or floating immediate.
struct ImmOperand {
  double value = 0.0;
  bool is_float = false;
  std::int64_t ivalue() const { return static_cast<std::int64_t>(value); }
  bool operator==(const ImmOperand&) const = default;
};

/// %tid.x and friends.
struct SpecialOperand {
  SpecialReg reg = SpecialReg::kTidX;
  bool operator==(const SpecialOperand&) const = default;
};

/// Memory operand [base+offset] for ld/st; base is a register name or,
/// for ld.param, a kernel parameter name.  `base_reg_id` is the
/// interned id when base is a register, -1 otherwise (parameter base
/// or not yet interned); `param_slot` is the index of the parameter in
/// the kernel's parameter list when base names one, -1 otherwise.
/// Equality ignores both.
struct MemOperand {
  std::string base;
  std::int64_t offset = 0;
  int base_reg_id = -1;
  int param_slot = -1;
  bool operator==(const MemOperand& o) const {
    return base == o.base && offset == o.offset;
  }
};

/// Branch target.
struct LabelOperand {
  std::string name;
  bool operator==(const LabelOperand&) const = default;
};

using Operand = std::variant<RegOperand, ImmOperand, SpecialOperand,
                             MemOperand, LabelOperand>;

std::string operand_to_string(const Operand& op);

/// One PTX instruction.  Guard predicates render as "@%p" / "@!%p".
struct Instruction {
  Opcode opcode = Opcode::kMov;
  PtxType type = PtxType::kU32;
  StateSpace space = StateSpace::kNone;
  std::optional<CompareOp> cmp;  // setp only

  std::vector<Operand> dsts;  // setp has 1 pred dst; st has none
  std::vector<Operand> srcs;

  std::string guard;          // predicate register name, empty = none
  bool guard_negated = false;
  int guard_id = -1;          // interned id of guard, -1 = none/uninterned

  /// Registers written / read (guard included in reads).  Special
  /// registers and parameters are not virtual registers and are
  /// excluded.
  std::vector<std::string> defs() const;
  std::vector<std::string> uses() const;

  /// Interned-id variants of defs()/uses(); valid only after
  /// PtxKernel::intern_registers() has stamped ids into operands.
  std::vector<int> def_ids() const;
  std::vector<int> use_ids() const;

  /// Allocation-free interned-id iteration for graph construction hot
  /// loops: visits exactly the ids def_ids()/use_ids() would return, in
  /// the same order, without materializing a vector.
  template <typename Fn>
  void for_each_def_id(Fn&& fn) const {
    for (const Operand& d : dsts)
      if (const auto* r = std::get_if<RegOperand>(&d)) fn(r->id);
  }
  template <typename Fn>
  void for_each_use_id(Fn&& fn) const {
    for (const Operand& s : srcs) {
      if (const auto* r = std::get_if<RegOperand>(&s)) {
        fn(r->id);
      } else if (const auto* m = std::get_if<MemOperand>(&s)) {
        if (m->base_reg_id >= 0) fn(m->base_reg_id);
      }
    }
    if (guard_id >= 0) fn(guard_id);
  }

  bool is_branch() const { return opcode == Opcode::kBra; }
  bool is_exit() const { return opcode == Opcode::kRet; }

  std::string to_string() const;
};

}  // namespace gpuperf::ptx
