// A CNN architecture as a DAG of layers.  Node ids are assigned in
// insertion order and inputs must refer to earlier nodes, so the node
// vector is always a valid topological order.
//
// A node keeps its input ids inline (NodeInputs): every zoo node takes
// at most six, so building a model costs no heap block per node; a
// wider merge, as a deserialized model may hold, spills to the heap.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "cnn/layer.hpp"

namespace gpuperf::cnn {

using NodeId = std::int32_t;

/// A node's input ids, in order: inline up to kInline, on the heap
/// beyond.  Read-only once built; iterates like a container of NodeId.
class NodeInputs {
 public:
  using value_type = NodeId;
  using iterator = const NodeId*;
  using const_iterator = const NodeId*;
  /// NASNet's widest concat takes six inputs.
  static constexpr std::size_t kInline = 6;

  NodeInputs() = default;
  explicit NodeInputs(std::span<const NodeId> ids) : size_(ids.size()) {
    if (size_ <= kInline)
      std::copy(ids.begin(), ids.end(), inline_.begin());
    else
      spill_.assign(ids.begin(), ids.end());
  }

  const NodeId* begin() const {
    return size_ <= kInline ? inline_.data() : spill_.data();
  }
  const NodeId* end() const { return begin() + size_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  NodeId front() const { return *begin(); }
  NodeId operator[](std::size_t i) const { return begin()[i]; }

  bool operator==(const NodeInputs&) const = default;

 private:
  std::size_t size_ = 0;
  std::array<NodeId, kInline> inline_{};  // slots past size_ stay 0
  std::vector<NodeId> spill_;             // used past kInline only
};

struct ModelNode {
  Layer layer;
  NodeInputs inputs;
};

class Model {
 public:
  explicit Model(std::string name);

  const std::string& name() const { return name_; }

  /// Append a layer fed by `inputs`; returns its node id.  Arity and
  /// topological ordering are validated here, shapes at analysis time.
  NodeId add(Layer layer, std::span<const NodeId> inputs);

  /// Multi-input add from a braced list: `add(Layer::add(), {a, b})`.
  NodeId add(Layer layer, std::initializer_list<NodeId> inputs) {
    return add(std::move(layer),
               std::span<const NodeId>(inputs.begin(), inputs.size()));
  }

  /// Convenience: single-input add.
  NodeId add(Layer layer, NodeId input) {
    return add(std::move(layer), std::span<const NodeId>(&input, 1));
  }

  /// Add the input layer (must be the first node).
  NodeId add_input(std::int64_t h, std::int64_t w, std::int64_t c);

  /// Chain helper: conv + batch-norm + activation, the dominant idiom
  /// in every zoo architecture.  `bias` defaults to false because the
  /// batch norm's beta subsumes it (Keras convention).
  NodeId conv_bn_act(NodeId input, std::int64_t filters, int kernel,
                     int stride = 1, Padding padding = Padding::kSame,
                     ActivationKind act = ActivationKind::kReLU,
                     bool bias = false, int groups = 1);

  const std::vector<ModelNode>& nodes() const { return nodes_; }
  const ModelNode& node(NodeId id) const;
  std::size_t node_count() const { return nodes_.size(); }

  /// The designated output node (defaults to the last added).
  NodeId output() const;
  void set_output(NodeId id);

  /// Shape of the input layer.
  TensorShape input_shape() const;

  /// Structural checks beyond per-add validation: exactly one input
  /// node, every node reachable from the output is well-formed.
  void validate() const;

 private:
  std::string name_;
  std::vector<ModelNode> nodes_;
  NodeId output_ = -1;
};

}  // namespace gpuperf::cnn
