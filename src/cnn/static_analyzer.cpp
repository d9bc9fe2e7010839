#include "cnn/static_analyzer.hpp"

#include <sstream>

#include "common/check.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace gpuperf::cnn {

namespace {

/// The shapes of `node`'s inputs into `out`, one buffer reused across
/// every node of a pass.
void gather_inputs(const ModelNode& node, std::span<const TensorShape> shapes,
                   std::vector<TensorShape>& out) {
  out.clear();
  for (NodeId in : node.inputs)
    out.push_back(shapes[static_cast<std::size_t>(in)]);
}

}  // namespace

std::vector<TensorShape> StaticAnalyzer::infer_shapes(
    const Model& model) const {
  model.validate();
  std::vector<TensorShape> shapes;
  shapes.reserve(model.node_count());
  std::vector<TensorShape> inputs;
  inputs.reserve(NodeInputs::kInline);
  for (const auto& node : model.nodes()) {
    gather_inputs(node, shapes, inputs);
    shapes.push_back(infer_output_shape(node.layer, inputs));
  }
  return shapes;
}

ModelReport StaticAnalyzer::analyze(
    const Model& model, std::span<const TensorShape> shapes) const {
  GP_CHECK_MSG(shapes.size() == model.node_count(),
               shapes.size() << " shapes for the " << model.node_count()
                             << " nodes of " << model.name());
  ModelReport report;
  report.model_name = model.name();
  report.input_shape = model.input_shape();
  report.node_count = static_cast<std::int64_t>(model.node_count());
  report.layers.reserve(model.node_count());

  std::vector<TensorShape> inputs;
  inputs.reserve(NodeInputs::kInline);
  for (std::size_t i = 0; i < model.node_count(); ++i) {
    const ModelNode& node = model.nodes()[i];
    gather_inputs(node, shapes, inputs);

    const ParamCount params = count_params(node.layer, inputs);
    LayerReport& lr = report.layers.emplace_back();
    lr.name = node.layer.name;
    lr.kind = node.layer.kind;
    lr.output_shape = shapes[i];
    lr.trainable_params = params.trainable;
    lr.non_trainable_params = params.non_trainable;
    lr.neurons = node.layer.kind == LayerKind::kInput ? 0
                                                      : shapes[i].elements();
    lr.macs = count_macs(node.layer, inputs, shapes[i]);

    report.trainable_params += lr.trainable_params;
    report.non_trainable_params += lr.non_trainable_params;
    report.neurons += lr.neurons;
    report.macs += lr.macs;
    if (is_weighted_layer(node.layer.kind)) ++report.weighted_layers;
  }
  report.total_params =
      report.trainable_params + report.non_trainable_params;
  report.flops = 2 * report.macs;
  return report;
}

std::string to_string(const ModelReport& report, bool per_layer) {
  std::ostringstream os;
  os << "Model: " << report.model_name << "  input "
     << report.input_shape.to_string() << "\n";
  if (per_layer) {
    TextTable t;
    t.set_header({"layer", "kind", "output", "params", "MACs"});
    for (const auto& l : report.layers) {
      t.add_row({l.name, layer_kind_name(l.kind), l.output_shape.to_string(),
                 with_commas(l.trainable_params + l.non_trainable_params),
                 with_commas(l.macs)});
    }
    os << t.render();
  }
  os << "weighted layers: " << report.weighted_layers
     << "  neurons: " << with_commas(report.neurons)
     << "  trainable params: " << with_commas(report.trainable_params)
     << "  total params: " << with_commas(report.total_params)
     << "  MACs: " << with_commas(report.macs) << "\n";
  return os.str();
}

}  // namespace gpuperf::cnn
