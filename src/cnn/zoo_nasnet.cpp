// NASNet-A Mobile / Large (Zoph et al.): the architecture-search cells
// with their two-input (current, previous) wiring.  Each cell adjusts
// the previous feature map to the current one's geometry, squeezes the
// current map to the cell width, and combines five block pairs of
// stacked separable convolutions and pools.
#include "cnn/zoo.hpp"

#include <vector>

#include "common/check.hpp"
#include "cnn/layer.hpp"

namespace gpuperf::cnn::zoo {

namespace {

struct CellIo {
  NodeId out = -1;
  NodeId prev = -1;  // becomes the next cell's "previous" input
};

class NasnetBuilder {
 public:
  explicit NasnetBuilder(Model& m) : m_(m) {}

  /// Shape of a node.  Each node's shape is inferred once, when the
  /// first call after its add() needs it: every cold feature
  /// computation builds the model again, and inferring the whole
  /// partial model twice per adjust() made a build quadratic.
  TensorShape shape(NodeId id) {
    for (std::size_t i = shapes_.size(); i < m_.node_count(); ++i) {
      const ModelNode& node = m_.node(static_cast<NodeId>(i));
      inputs_.clear();
      for (const NodeId in : node.inputs)
        inputs_.push_back(shapes_[static_cast<std::size_t>(in)]);
      shapes_.push_back(infer_output_shape(node.layer, inputs_));
    }
    return shapes_[static_cast<std::size_t>(id)];
  }

  NodeId relu(NodeId x) {
    return m_.add(Layer::activation(ActivationKind::kReLU), x);
  }

  /// relu + 1x1 conv + bn: brings a map to `filters` channels.
  NodeId squeeze(NodeId x, std::int64_t filters) {
    NodeId y = relu(x);
    y = m_.add(Layer::conv2d(filters, 1, 1, Padding::kSame, false), y);
    return m_.add(Layer::batch_norm(), y);
  }

  /// Twice-stacked separable conv (the NASNet separable_conv_block):
  /// relu, depthwise+pointwise (strided), bn, relu, depthwise+pointwise,
  /// bn.
  NodeId sep_block(NodeId x, std::int64_t filters, int kernel,
                   int stride = 1) {
    NodeId y = relu(x);
    y = m_.add(Layer::depthwise_conv2d(
                   kernel, stride,
                   stride > 1 ? Padding::kSame : Padding::kSame, false),
               y);
    y = m_.add(Layer::conv2d(filters, 1, 1, Padding::kSame, false), y);
    y = m_.add(Layer::batch_norm(), y);
    y = relu(y);
    y = m_.add(Layer::depthwise_conv2d(kernel, 1, Padding::kSame, false), y);
    y = m_.add(Layer::conv2d(filters, 1, 1, Padding::kSame, false), y);
    return m_.add(Layer::batch_norm(), y);
  }

  /// Make `p` match `target`'s spatial extent and `filters` channels.
  NodeId adjust(NodeId p, NodeId target, std::int64_t filters) {
    const TensorShape ps = shape(p);
    const TensorShape ts = shape(target);
    if (ps.h != ts.h || ps.w != ts.w) {
      // Factorized reduction: two strided 1x1 average-pool paths, each
      // projected to filters/2, concatenated.
      NodeId y = relu(p);
      NodeId p1 = m_.add(Layer::avg_pool(1, 2, Padding::kValid), y);
      p1 = m_.add(Layer::conv2d(filters / 2, 1, 1, Padding::kSame, false),
                  p1);
      NodeId p2 = m_.add(Layer::avg_pool(1, 2, Padding::kValid), y);
      p2 = m_.add(
          Layer::conv2d(filters - filters / 2, 1, 1, Padding::kSame, false),
          p2);
      NodeId cat = m_.add(Layer::concat(), {p1, p2});
      return m_.add(Layer::batch_norm(), cat);
    }
    if (ps.c != filters) return squeeze(p, filters);
    return p;
  }

  CellIo normal_cell(NodeId h, NodeId p, std::int64_t filters) {
    p = adjust(p, h, filters);
    NodeId h1 = squeeze(h, filters);

    NodeId b1 = m_.add(Layer::add(), {sep_block(h1, filters, 5),
                                      sep_block(p, filters, 3)});
    NodeId b2 = m_.add(Layer::add(), {sep_block(p, filters, 5),
                                      sep_block(p, filters, 3)});
    NodeId b3 = m_.add(
        Layer::add(), {m_.add(Layer::avg_pool(3, 1, Padding::kSame), h1), p});
    NodeId b4 = m_.add(Layer::add(),
                       {m_.add(Layer::avg_pool(3, 1, Padding::kSame), p),
                        m_.add(Layer::avg_pool(3, 1, Padding::kSame), p)});
    NodeId b5 = m_.add(Layer::add(), {sep_block(h1, filters, 3), h1});

    NodeId out = m_.add(Layer::concat(), {p, b1, b2, b3, b4, b5});
    return {out, h};
  }

  CellIo reduction_cell(NodeId h, NodeId p, std::int64_t filters) {
    p = adjust(p, h, filters);
    NodeId h1 = squeeze(h, filters);

    NodeId b1 = m_.add(Layer::add(), {sep_block(h1, filters, 5, 2),
                                      sep_block(p, filters, 7, 2)});
    NodeId b2 = m_.add(Layer::add(),
                       {m_.add(Layer::max_pool(3, 2, Padding::kSame), h1),
                        sep_block(p, filters, 7, 2)});
    NodeId b3 = m_.add(Layer::add(),
                       {m_.add(Layer::avg_pool(3, 2, Padding::kSame), h1),
                        sep_block(p, filters, 5, 2)});
    NodeId b4 = m_.add(Layer::add(),
                       {m_.add(Layer::max_pool(3, 2, Padding::kSame), h1),
                        sep_block(b1, filters, 3, 1)});
    NodeId b5 = m_.add(Layer::add(),
                       {m_.add(Layer::avg_pool(3, 1, Padding::kSame), b1),
                        b2});

    NodeId out = m_.add(Layer::concat(), {b2, b3, b4, b5});
    (void)b5;  // b5 feeds the concat in some NASNet variants; A-cell uses 4
    return {out, h};
  }

 private:
  Model& m_;
  std::vector<TensorShape> shapes_;  // of nodes [0, shapes_.size())
  std::vector<TensorShape> inputs_;  // one node's input shapes, reused
};

Model build_nasnet(const std::string& name, std::int64_t input_size,
                   std::int64_t stem_filters,
                   std::int64_t penultimate_filters, int n_blocks) {
  GP_CHECK(penultimate_filters % 24 == 0);
  const std::int64_t filters = penultimate_filters / 24;

  Model m(name);
  NodeId x = m.add_input(input_size, input_size, 3);
  x = m.add(Layer::conv2d(stem_filters, 3, 2, Padding::kValid, false), x);
  x = m.add(Layer::batch_norm(), x);

  NasnetBuilder b(m);

  // Two stem reduction cells at filters/4 and filters/2.
  CellIo io = b.reduction_cell(x, x, filters / 4);
  io = b.reduction_cell(io.out, io.prev, filters / 2);

  // Three stages of N normal cells, separated by reduction cells that
  // double the cell width.
  std::int64_t f = filters;
  for (int stage = 0; stage < 3; ++stage) {
    for (int i = 0; i < n_blocks; ++i)
      io = b.normal_cell(io.out, io.prev, f);
    if (stage < 2) {
      io = b.reduction_cell(io.out, io.prev, 2 * f);
      f *= 2;
    }
  }

  NodeId y = m.add(Layer::activation(ActivationKind::kReLU), io.out);
  y = m.add(Layer::global_avg_pool(), y);
  m.add(Layer::dense(1000, true, ActivationKind::kSoftmax), y);
  return m;
}

}  // namespace

Model nasnet_mobile() {
  return build_nasnet("nasnetmobile", 224, 32, 1056, 4);
}

Model nasnet_large() {
  return build_nasnet("nasnetlarge", 331, 96, 4032, 6);
}

}  // namespace gpuperf::cnn::zoo
