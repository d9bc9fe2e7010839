#include "ptx/module.hpp"

#include <sstream>
#include <unordered_map>
#include <variant>

#include "common/check.hpp"

namespace gpuperf::ptx {

const KernelParam* PtxKernel::find_param(const std::string& pname) const {
  for (const auto& p : params)
    if (p.name == pname) return &p;
  return nullptr;
}

std::size_t PtxKernel::param_slot(std::string_view pname) const {
  for (std::size_t i = 0; i < params.size(); ++i)
    if (params[i].name == pname) return i;
  GP_CHECK_MSG(false, "kernel " << name << " has no parameter '" << pname
                                << "'");
  return 0;
}

std::size_t PtxKernel::label_target(const std::string& label) const {
  const auto it = labels.find(label);
  GP_CHECK_MSG(it != labels.end(),
               "unknown label '" << label << "' in kernel " << name);
  return it->second;
}

std::string PtxKernel::to_ptx() const {
  std::ostringstream os;
  os << ".visible .entry " << name << "(\n";
  for (std::size_t i = 0; i < params.size(); ++i) {
    os << "  .param ." << type_suffix(params[i].type) << ' ' << params[i].name;
    if (i + 1 < params.size()) os << ',';
    os << '\n';
  }
  os << ")\n";
  if (reqntid > 0) os << ".reqntid " << reqntid << ", 1, 1\n";
  os << "{\n";
  if (shared_bytes > 0)
    os << "  .shared .align 4 .b8 smem[" << shared_bytes << "];\n";
  for (const auto& rd : reg_decls)
    os << "  .reg ." << type_suffix(rd.type) << " \t" << rd.prefix << '<'
       << rd.count << ">;\n";
  os << '\n';

  // Invert the label map for printing (stable order by index).
  std::multimap<std::size_t, std::string> by_index;
  for (const auto& [label, index] : labels) by_index.insert({index, label});

  for (std::size_t i = 0; i <= instructions.size(); ++i) {
    auto range = by_index.equal_range(i);
    for (auto it = range.first; it != range.second; ++it)
      os << it->second << ":\n";
    if (i < instructions.size())
      os << "  " << instructions[i].to_string() << '\n';
  }
  os << "}\n";
  return os.str();
}

void PtxKernel::intern_registers() {
  if (interned_) return;
  register_names.clear();
  register_ids_.clear();
  register_ids_.reserve(64);
  auto intern = [&](const std::string& reg) -> int {
    auto [it, inserted] =
        register_ids_.emplace(reg, static_cast<int>(register_ids_.size()));
    if (inserted) register_names.push_back(reg);
    return it->second;
  };
  auto intern_op = [&](Operand& op) {
    if (auto* r = std::get_if<RegOperand>(&op)) {
      r->id = intern(r->name);
    } else if (auto* m = std::get_if<MemOperand>(&op)) {
      // A register base starts with '%'; a parameter name does not.
      if (!m->base.empty() && m->base.front() == '%') {
        m->base_reg_id = intern(m->base);
      } else if (const KernelParam* p = find_param(m->base)) {
        m->param_slot = static_cast<int>(p - params.data());
      }
    }
  };
  for (auto& inst : instructions) {
    for (auto& op : inst.dsts) intern_op(op);
    for (auto& op : inst.srcs) intern_op(op);
    if (!inst.guard.empty()) inst.guard_id = intern(inst.guard);
  }
  interned_ = true;
}

int PtxKernel::register_id(const std::string& reg) const {
  const auto it = register_ids_.find(reg);
  return it == register_ids_.end() ? -1 : it->second;
}

void check_arity(const PtxKernel& kernel, const KernelLaunch& launch) {
  GP_CHECK_MSG(launch.args.size() == kernel.params.size(),
               "launch of " << kernel.name << " binds " << launch.args.size()
                            << " values for " << kernel.params.size()
                            << " parameters");
}

KernelLaunch bind_launch(
    const PtxKernel& kernel, std::int64_t grid_dim, std::int64_t block_dim,
    std::initializer_list<std::pair<std::string_view, std::int64_t>> args) {
  KernelLaunch launch;
  launch.kernel = kernel.name;
  launch.grid_dim = grid_dim;
  launch.block_dim = block_dim;
  launch.args.assign(kernel.params.size(), 0);
  std::vector<bool> bound(kernel.params.size(), false);
  for (const auto& [pname, value] : args) {
    const std::size_t slot = kernel.param_slot(pname);
    GP_CHECK_MSG(!bound[slot], "kernel " << kernel.name << " parameter '"
                                         << pname << "' bound twice");
    bound[slot] = true;
    launch.args[slot] = value;
  }
  for (std::size_t i = 0; i < bound.size(); ++i)
    GP_CHECK_MSG(bound[i], "kernel " << kernel.name << " parameter '"
                                     << kernel.params[i].name
                                     << "' left unbound");
  return launch;
}

const PtxKernel* PtxModule::find_kernel(const std::string& kname) const {
  for (const auto& k : kernels)
    if (k.name == kname) return &k;
  return nullptr;
}

const PtxKernel& PtxModule::kernel(const std::string& kname) const {
  const PtxKernel* k = find_kernel(kname);
  GP_CHECK_MSG(k != nullptr, "no kernel named '" << kname << "'");
  return *k;
}

std::string PtxModule::to_ptx() const {
  std::ostringstream os;
  os << "//\n// Generated by gpuperf NVPTX-style backend\n//\n";
  os << ".version " << version << '\n';
  os << ".target " << target << '\n';
  os << ".address_size " << address_size << "\n\n";
  for (const auto& k : kernels) os << k.to_ptx() << '\n';
  return os.str();
}

}  // namespace gpuperf::ptx
