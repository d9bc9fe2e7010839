#include "cnn/model.hpp"

#include <charconv>
#include <string_view>

#include "common/check.hpp"

namespace gpuperf::cnn {

Model::Model(std::string name) : name_(std::move(name)) {
  GP_CHECK_MSG(!name_.empty(), "model needs a name");
}

NodeId Model::add(Layer layer, std::span<const NodeId> inputs) {
  GP_CHECK_MSG(valid_input_arity(layer.kind, inputs.size()),
               layer_kind_name(layer.kind) << " with " << inputs.size()
                                           << " inputs");
  const NodeId id = static_cast<NodeId>(nodes_.size());
  for (NodeId in : inputs)
    GP_CHECK_MSG(in >= 0 && in < id,
                 "input " << in << " not an earlier node of " << name_);
  if (layer.kind == LayerKind::kInput)
    GP_CHECK_MSG(nodes_.empty(), "input layer must be the first node");
  else
    GP_CHECK_MSG(!nodes_.empty(), "add an input layer first");
  if (layer.name.empty()) {
    // "<Kind>_<id>", sized once.
    const std::string_view kind = layer_kind_name(layer.kind);
    char digits[16];
    char* const digits_end =
        std::to_chars(digits, digits + sizeof digits, id).ptr;
    layer.name.reserve(kind.size() + 1 +
                       static_cast<std::size_t>(digits_end - digits));
    layer.name.append(kind).append(1, '_').append(digits, digits_end);
  }
  nodes_.push_back(ModelNode{std::move(layer), NodeInputs(inputs)});
  return id;
}

NodeId Model::add_input(std::int64_t h, std::int64_t w, std::int64_t c) {
  return add(Layer::input(h, w, c), std::span<const NodeId>());
}

NodeId Model::conv_bn_act(NodeId input, std::int64_t filters, int kernel,
                          int stride, Padding padding, ActivationKind act,
                          bool bias, int groups) {
  NodeId x = add(Layer::conv2d(filters, kernel, stride, padding, bias,
                               ActivationKind::kLinear, groups),
                 input);
  x = add(Layer::batch_norm(), x);
  if (act != ActivationKind::kLinear) x = add(Layer::activation(act), x);
  return x;
}

const ModelNode& Model::node(NodeId id) const {
  GP_CHECK(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
  return nodes_[static_cast<std::size_t>(id)];
}

NodeId Model::output() const {
  GP_CHECK_MSG(!nodes_.empty(), "empty model");
  return output_ >= 0 ? output_ : static_cast<NodeId>(nodes_.size() - 1);
}

void Model::set_output(NodeId id) {
  GP_CHECK(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
  output_ = id;
}

TensorShape Model::input_shape() const {
  GP_CHECK(!nodes_.empty());
  GP_CHECK(nodes_.front().layer.kind == LayerKind::kInput);
  return nodes_.front().layer.input_shape;
}

void Model::validate() const {
  GP_CHECK_MSG(!nodes_.empty(), "empty model " << name_);
  GP_CHECK_MSG(nodes_.front().layer.kind == LayerKind::kInput,
               "first node of " << name_ << " is not an input");
  for (std::size_t i = 1; i < nodes_.size(); ++i)
    GP_CHECK_MSG(nodes_[i].layer.kind != LayerKind::kInput,
                 "multiple input layers in " << name_);
  // add() already enforces arity and topological ordering; output() is
  // validated by its accessor.
  (void)output();
}

}  // namespace gpuperf::cnn
