// Shared resource-budget facility for every byte-ingesting layer
// (docs/ROBUSTNESS.md "Input limits"): the PTX lexer/parser, the serve
// line protocol, the ml/cnn model deserializers and the registry
// manifest / feature-store parsers all charge their work against the
// budgets defined here, so a malformed or adversarial input yields a
// typed error — never an OOM, a hang, or undefined behavior.
//
// Two exception types form the contract:
//
//   InputRejected  — the bytes are malformed (bad header, bad syntax,
//                    inconsistent counts).  Derives from CheckError so
//                    existing "malformed input fails loudly" handlers
//                    keep working.
//   LimitExceeded  — the bytes may even be well-formed but ask for more
//                    resources than the configured budget (too many
//                    bytes, tokens, records, nesting levels, or
//                    allocated memory).  Derives from InputRejected.
//
// Limits are plain data (InputLimits); parsers take them as a defaulted
// parameter so tests can tighten them and fuzz harnesses can exercise
// the enforcement paths deterministically.
#pragma once

#include <cstddef>
#include <string>

#include "common/check.hpp"

namespace gpuperf {

/// Malformed or unparsable input.  Retrying the same bytes can never
/// succeed; callers surface it as a typed "invalid input" failure.
class InputRejected : public CheckError {
 public:
  explicit InputRejected(const std::string& what) : CheckError(what) {}
};

/// A resource budget trip: the input wants more bytes / tokens /
/// records / memory / nesting than allowed.
class LimitExceeded : public InputRejected {
 public:
  explicit LimitExceeded(const std::string& what) : InputRejected(what) {}
};

/// Every ingestion budget in one struct.  The defaults are generous —
/// an order of magnitude past anything the pipeline legitimately
/// produces — so they only ever fire on corrupt or adversarial input.
struct InputLimits {
  // ---- raw input sizes -------------------------------------------------
  /// PTX text handed to lex()/parse_ptx().
  std::size_t max_ptx_bytes = 16u << 20;  // 16 MiB
  /// Serialized regressor text (ml::deserialize_regressor).
  std::size_t max_model_bytes = 256u << 20;  // 256 MiB (knn embeds rows)
  /// Serialized CNN topology (cnn::deserialize_model).
  std::size_t max_cnn_bytes = 8u << 20;
  /// Registry MANIFEST file.
  std::size_t max_manifest_bytes = 64u << 10;
  /// One feature-store journal record payload.
  std::size_t max_store_record_bytes = 64u << 10;
  /// One serve request line (server side; see TcpServer::Options).
  std::size_t max_request_line_bytes = 64u << 10;
  /// One serve response line (client side; see TcpClient::Options).
  std::size_t max_response_bytes = 8u << 20;

  // ---- structural counts ----------------------------------------------
  std::size_t max_tokens = 4u << 20;            ///< PTX tokens per input
  std::size_t max_identifier_bytes = 4096;      ///< one PTX identifier
  std::size_t max_kernels = 4096;               ///< kernels per module
  std::size_t max_instructions = 1u << 20;      ///< instructions per module
  std::size_t max_params = 256;                 ///< params per kernel
  std::size_t max_operands = 64;                ///< operands per instruction
  std::size_t max_cnn_nodes = 1u << 16;         ///< layers per CNN
  std::size_t max_trees = 4096;                 ///< trees per ensemble
  std::size_t max_tree_nodes = 4u << 20;        ///< nodes per tree
  std::size_t max_rows = 1u << 20;              ///< knn training rows
  std::size_t max_features = 4096;              ///< feature-vector width
  std::size_t max_manifest_fields = 256;        ///< manifest key/value lines

  // ---- DCA graph memory -----------------------------------------------
  /// Resident bytes a dependency graph's CSR arrays may occupy before
  /// they must spill to a mapped file (common/mapped_buffer.hpp); with
  /// no spill directory configured, crossing this budget throws
  /// LimitExceeded instead.  Overridable via $GPUPERF_DCA_SPILL_BUDGET /
  /// --dca-spill-budget.
  std::size_t max_depgraph_resident_bytes = 512u << 20;  // 512 MiB
  /// Absolute cap on one graph's CSR bytes, spilled or not — past this
  /// the module is rejected outright rather than ground through disk.
  std::size_t max_depgraph_bytes = std::size_t{8} << 30;  // 8 GiB

  // ---- recursion / allocation ----------------------------------------
  /// Nesting/recursion depth guard for any parser that recurses.
  std::size_t max_depth = 64;
  /// Total bytes a deserializer may allocate for parsed structures
  /// (accounting is approximate — element counts × element sizes — but
  /// bounds the worst case long before an OOM kill).
  std::size_t max_alloc_bytes = 1u << 30;  // 1 GiB

  /// The process-wide defaults used when no explicit limits are passed.
  static const InputLimits& defaults();
};

namespace detail {
[[noreturn]] void limit_exceeded(const char* what, std::size_t requested,
                                 std::size_t limit);
}  // namespace detail

/// Throws LimitExceeded when `requested > limit`; `what` names the
/// budget in the error message ("PTX tokens", "tree nodes", ...).
inline void enforce_limit(std::size_t requested, std::size_t limit,
                          const char* what) {
  if (requested > limit) detail::limit_exceeded(what, requested, limit);
}

/// Incremental budget accounting for a single parse: counters for
/// tokens / instructions / kernels / allocated bytes plus an RAII
/// recursion-depth guard.  Cheap enough to thread through hot parsing
/// loops (one add + one compare per charge).
class ResourceBudget {
 public:
  explicit ResourceBudget(
      const InputLimits& limits = InputLimits::defaults())
      : limits_(&limits) {}

  const InputLimits& limits() const { return *limits_; }

  void charge_tokens(std::size_t n = 1) {
    tokens_ += n;
    enforce_limit(tokens_, limits_->max_tokens, "input tokens");
  }
  void charge_instructions(std::size_t n = 1) {
    instructions_ += n;
    enforce_limit(instructions_, limits_->max_instructions,
                  "instructions");
  }
  void charge_kernels(std::size_t n = 1) {
    kernels_ += n;
    enforce_limit(kernels_, limits_->max_kernels, "kernels");
  }
  /// Approximate allocation accounting: charge element-count ×
  /// element-size before reserving/creating the container.
  void charge_alloc(std::size_t bytes) {
    alloc_bytes_ += bytes;
    enforce_limit(alloc_bytes_, limits_->max_alloc_bytes,
                  "allocated bytes");
  }

  std::size_t tokens() const { return tokens_; }
  std::size_t instructions() const { return instructions_; }
  std::size_t kernels() const { return kernels_; }
  std::size_t alloc_bytes() const { return alloc_bytes_; }
  std::size_t depth() const { return depth_; }

  /// RAII recursion guard: construction charges one nesting level (and
  /// throws LimitExceeded past max_depth), destruction releases it.
  class DepthScope {
   public:
    explicit DepthScope(ResourceBudget& budget) : budget_(budget) {
      // Enforce before incrementing: a throwing constructor never runs
      // its destructor, so a post-increment check would leak the level.
      enforce_limit(budget_.depth_ + 1, budget_.limits_->max_depth,
                    "nesting depth");
      ++budget_.depth_;
    }
    ~DepthScope() { --budget_.depth_; }
    DepthScope(const DepthScope&) = delete;
    DepthScope& operator=(const DepthScope&) = delete;

   private:
    ResourceBudget& budget_;
  };
  DepthScope enter_depth() { return DepthScope(*this); }

 private:
  const InputLimits* limits_;
  std::size_t tokens_ = 0;
  std::size_t instructions_ = 0;
  std::size_t kernels_ = 0;
  std::size_t alloc_bytes_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace gpuperf
