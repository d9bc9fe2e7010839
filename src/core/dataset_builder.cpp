#include "core/dataset_builder.hpp"

#include "cnn/zoo.hpp"
#include "common/check.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "gpu/device_db.hpp"
#include "gpu/profiler.hpp"

namespace gpuperf::core {

DatasetBuilder::DatasetBuilder(DatasetOptions options)
    : options_(std::move(options)) {
  if (options_.models.empty())
    for (const auto& e : cnn::zoo::all_models())
      options_.models.push_back(e.name);
  if (options_.custom_devices.empty()) {
    if (options_.devices.empty()) options_.devices = gpu::training_devices();
    for (const auto& d : options_.devices)
      GP_CHECK_MSG(gpu::has_device(d), "unknown device '" << d << "'");
    for (const auto& d : options_.devices)
      options_.custom_devices.push_back(gpu::device(d));
  }
}

ml::Dataset DatasetBuilder::build() {
  const bool extended = options_.extended_cnn_features;
  ml::Dataset dataset(extended
                          ? FeatureExtractor::extended_feature_names()
                          : FeatureExtractor::feature_names(),
                      "ipc");
  const gpu::Profiler profiler(options_.noise_stddev, options_.seed);

  struct Row {
    std::vector<double> x;
    double y = 0.0;
    std::string tag;
  };
  std::vector<std::vector<Row>> rows_per_model(options_.models.size());

  // One feature-extraction pass per model, shared across devices (the
  // paper's cross-platform design); parallel across models, committed
  // in model order for determinism.  extract() is const, so the workers
  // share the extractor.
  ThreadPool::shared().parallel_for(
      options_.models.size(), [&](std::size_t mi) {
        const std::string& model_name = options_.models[mi];
        const FeatureExtraction extraction =
            extractor_.extract(cnn::zoo::build(model_name));

        for (const gpu::DeviceSpec& device : options_.custom_devices) {
          const gpu::ProfileResult result = profiler.profile_compiled(
              extraction.compiled, extraction.profile, device);
          Row row;
          row.x = extended ? FeatureExtractor::extended_feature_vector(
                                 extraction.features, device)
                           : FeatureExtractor::feature_vector(
                                 extraction.features, device);
          row.y = result.ipc;
          row.tag = model_name + "@" + device.name;
          rows_per_model[mi].push_back(std::move(row));
        }
        GP_LOG(kInfo) << "profiled " << model_name << " on "
                      << options_.custom_devices.size() << " device(s)";
      });

  for (const auto& rows : rows_per_model)
    for (const Row& row : rows) dataset.add_row(row.x, row.y, row.tag);
  return dataset;
}

}  // namespace gpuperf::core
