// Model zoo: builders for the 31 CNN architectures of the paper's
// Table I (the table lists 31 rows although the text says 32; we follow
// the table).  Every builder returns a full Model DAG whose static
// analysis lands on the published layer/parameter ballpark.
//
// Note: the paper lists efficientnetb5 with a 156x156 input — a typo
// for EfficientNet-B5's standard 456x456, which we use.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "cnn/model.hpp"

namespace gpuperf::cnn::zoo {

// --- classic stacks ---
Model vgg16();
Model vgg19();
Model alexnet();

// --- residual networks (v1 / v2 / Big Transfer) ---
Model resnet101();
Model resnet152();
Model resnet50_v2();
Model resnet101_v2();
Model resnet152_v2();
Model bit_r50x1();
Model bit_r50x3();
Model bit_r101x1();
Model bit_r101x3();
Model bit_r152x4();  // the paper's "m-r154x4"

// --- densely connected ---
Model densenet121();
Model densenet169();
Model densenet201();

// --- depthwise-separable families ---
Model mobilenet();
Model mobilenet_v2();
Model xception();

// --- inception family ---
Model inception_v3();
Model inception_resnet_v2();

// --- architecture-search families ---
Model nasnet_mobile();
Model nasnet_large();
Model efficientnet_b0();
Model efficientnet_b1();
Model efficientnet_b2();
Model efficientnet_b3();
Model efficientnet_b4();
Model efficientnet_b5();
Model efficientnet_b6();
Model efficientnet_b7();

/// Registry entry: Table I name, its builder, and the architecture's
/// canonical published depth (the paper's "Layers" column, e.g. 50 for
/// ResNet-50 — a naming convention that counts only the main weighted
/// stages, unlike StaticAnalyzer's exhaustive weighted-layer count).
struct ZooEntry {
  std::string name;
  std::function<Model()> build;
  int canonical_layers = 0;
};

/// All models in the paper's Table I order.
const std::vector<ZooEntry>& all_models();

// --- extended zoo (paper future work: more standard CNNs) ---
Model resnext50_32x4d();
Model wide_resnet50_2();
Model squeezenet();

/// Additional standard architectures beyond Table I, usable for
/// enlarged training sets (ablation_training_set).
const std::vector<ZooEntry>& extended_models();

/// The entry named `name` (Table I or extended), or nullptr: one hashed
/// lookup that both validates and resolves a name.  Entries are static,
/// so the pointer and its name outlive every caller.
const ZooEntry* find(std::string_view name);

/// Build by name (Table I or extended); GP_CHECK-fails on unknown
/// names.
Model build(const std::string& name);

bool has_model(const std::string& name);

/// The six standard CNNs held out of training for the Fig. 4
/// prediction-vs-actual comparison.
const std::vector<std::string>& fig4_holdouts();

/// The seven CNNs of the Table IV DSE timing experiment.
const std::vector<std::string>& table4_models();

}  // namespace gpuperf::cnn::zoo
