#include "cnn/zoo.hpp"

#include <unordered_map>

#include "common/check.hpp"

namespace gpuperf::cnn::zoo {

const std::vector<ZooEntry>& all_models() {
  // Table I order.
  static const std::vector<ZooEntry> entries = {
      {"m-r50x1", bit_r50x1, 50},
      {"m-r50x3", bit_r50x3, 50},
      {"m-r101x3", bit_r101x3, 101},
      {"m-r101x1", bit_r101x1, 101},
      {"m-r154x4", bit_r152x4, 154},
      {"resnet101", resnet101, 101},
      {"resnet152", resnet152, 152},
      {"resnet50v2", resnet50_v2, 50},
      {"resnet101v2", resnet101_v2, 101},
      {"resnet152v2", resnet152_v2, 152},
      {"nasnetmobile", nasnet_mobile, 771},
      {"nasnetlarge", nasnet_large, 1041},
      {"densenet121", densenet121, 121},
      {"densenet169", densenet169, 169},
      {"densenet201", densenet201, 201},
      {"mobilenet", mobilenet, 28},
      {"inceptionv3", inception_v3, 48},
      {"vgg16", vgg16, 16},
      {"vgg19", vgg19, 19},
      {"efficientnetb0", efficientnet_b0, 240},
      {"efficientnetb1", efficientnet_b1, 342},
      {"efficientnetb2", efficientnet_b2, 342},
      {"efficientnetb3", efficientnet_b3, 387},
      {"efficientnetb4", efficientnet_b4, 477},
      {"efficientnetb5", efficientnet_b5, 579},
      {"efficientnetb6", efficientnet_b6, 669},
      {"efficientnetb7", efficientnet_b7, 816},
      {"Xception", xception, 71},
      {"MobileNetV2", mobilenet_v2, 53},
      {"InceptionResNetV2", inception_resnet_v2, 164},
      {"alexnet", alexnet, 8},
  };
  return entries;
}

const ZooEntry* find(std::string_view name) {
  static const std::unordered_map<std::string_view, const ZooEntry*> index =
      [] {
        std::unordered_map<std::string_view, const ZooEntry*> out;
        // Table I first: on a name clash its entry wins.
        for (const auto* table : {&all_models(), &extended_models()})
          for (const ZooEntry& e : *table) out.emplace(e.name, &e);
        return out;
      }();
  const auto it = index.find(name);
  return it == index.end() ? nullptr : it->second;
}

Model build(const std::string& name) {
  const ZooEntry* entry = find(name);
  GP_CHECK_MSG(entry != nullptr, "no zoo model named '" << name << "'");
  return entry->build();
}

bool has_model(const std::string& name) { return find(name) != nullptr; }

const std::vector<std::string>& fig4_holdouts() {
  // Six standard CNNs "entirely independent of the training phase"
  // (paper cites [20] AlexNet, [24] EfficientNet, [25] Xception).
  static const std::vector<std::string> names = {
      "alexnet",        "efficientnetb0", "efficientnetb4",
      "efficientnetb7", "Xception",       "MobileNetV2"};
  return names;
}

const std::vector<std::string>& table4_models() {
  static const std::vector<std::string> names = {
      "efficientnetb3", "efficientnetb4", "efficientnetb5",
      "efficientnetb6", "efficientnetb7", "Xception",
      "MobileNetV2"};
  return names;
}

}  // namespace gpuperf::cnn::zoo
