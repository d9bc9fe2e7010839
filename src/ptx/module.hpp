// Parsed / generated PTX program structure: kernels with parameters,
// register declarations, labeled instruction streams; plus the launch
// descriptors that bind a kernel to a grid and concrete parameter
// values (what the host code would pass at cuLaunchKernel time).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ptx/instruction.hpp"

namespace gpuperf::ptx {

struct KernelParam {
  std::string name;
  PtxType type = PtxType::kU64;
  bool is_pointer = false;
};

struct RegDecl {
  PtxType type = PtxType::kU32;
  std::string prefix;  // "%r", "%rd", "%f", "%p"
  int count = 0;
};

class PtxKernel {
 public:
  std::string name;
  std::vector<KernelParam> params;
  std::vector<RegDecl> reg_decls;
  int reqntid = 0;  // .reqntid block size hint, 0 = unset
  std::int64_t shared_bytes = 0;

  std::vector<Instruction> instructions;
  /// label -> index of the first instruction at/after the label.
  std::map<std::string, std::size_t> labels;

  const KernelParam* find_param(const std::string& name) const;

  /// Index of parameter `name` in `params` (its slot in a launch's
  /// argument vector); GP_CHECK-fails on an undeclared name.
  std::size_t param_slot(std::string_view name) const;

  /// Index a branch target; GP_CHECK-fails on unknown labels.
  std::size_t label_target(const std::string& label) const;

  /// Render as PTX text (entry directive, params, reg decls, body).
  std::string to_ptx() const;

  /// Assign dense kernel-local ids to every virtual register (operands,
  /// memory bases, guards) in first-appearance order and stamp them
  /// into the instruction stream, and stamp every parameter-named
  /// memory base with its parameter slot.  Idempotent; both the parser
  /// and the code generator call this once the parameters are
  /// declared, so downstream analyses (depgraph, slicer, symexec,
  /// interpreter) can index vectors instead of hashing register or
  /// parameter names.
  void intern_registers();
  bool registers_interned() const { return interned_; }

  /// Number of distinct virtual registers; names are indexed by id.
  std::size_t register_count() const { return register_names.size(); }
  std::vector<std::string> register_names;

  /// Interned id of a register name, or -1 when unknown / not yet
  /// interned.  O(1) — the lookup map built by intern_registers() is
  /// kept, so diagnostics and tests no longer scan register_names.
  int register_id(const std::string& reg) const;

 private:
  bool interned_ = false;
  std::unordered_map<std::string, int> register_ids_;
};

class PtxModule {
 public:
  std::string version = "7.0";
  std::string target = "sm_70";
  int address_size = 64;
  std::vector<PtxKernel> kernels;

  const PtxKernel* find_kernel(const std::string& name) const;
  const PtxKernel& kernel(const std::string& name) const;

  std::string to_ptx() const;
};

/// One kernel launch: grid geometry plus concrete parameter values
/// (pointers get synthetic non-zero base addresses).
struct KernelLaunch {
  std::string kernel;
  std::int64_t grid_dim = 1;   // blocks (x only; index spaces linearized)
  std::int64_t block_dim = 1;  // threads per block
  /// One value per kernel parameter, in the kernel's parameter order:
  /// args[i] binds params[i].  The symbolic executor, the interpreter
  /// and the counter reject a launch whose size differs from the
  /// kernel's parameter count.
  std::vector<std::int64_t> args;

  std::int64_t total_threads() const { return grid_dim * block_dim; }
};

/// GP_CHECK-fails unless `launch` carries exactly one value per
/// parameter of `kernel` — the precondition of every slot read.
void check_arity(const PtxKernel& kernel, const KernelLaunch& launch);

/// A launch of `kernel` with every value bound by parameter name, for
/// code that does not know the parameter order (tests, benches).
/// GP_CHECK-fails on a name the kernel does not declare, on a name
/// bound twice and on a parameter left unbound.
KernelLaunch bind_launch(
    const PtxKernel& kernel, std::int64_t grid_dim, std::int64_t block_dim,
    std::initializer_list<std::pair<std::string_view, std::int64_t>> args);

}  // namespace gpuperf::ptx
