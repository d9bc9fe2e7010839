// Microbenchmarks of the regression stack: training and single-row
// prediction latency for each of the five algorithms (the t_pm of the
// paper's DSE timing model).
#include <benchmark/benchmark.h>

#include <string>
#include <utility>

#include "common/rng.hpp"
#include "ml/decision_tree.hpp"
#include "ml/regressor.hpp"

namespace {

using namespace gpuperf;
using namespace gpuperf::ml;

Dataset synthetic(std::size_t rows, std::size_t features,
                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (std::size_t j = 0; j < features; ++j) {
    std::string name = "f";
    name += std::to_string(j);
    names.push_back(std::move(name));
  }
  Dataset d(names, "y");
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<double> x(features);
    double y = 0.0;
    for (std::size_t j = 0; j < features; ++j) {
      x[j] = rng.uniform(0, 1);
      y += (j % 2 ? 1.0 : -0.5) * x[j] * x[j];
    }
    d.add_row(std::move(x), y + rng.normal(0, 0.05));
  }
  return d;
}

void BM_Train(benchmark::State& state, const char* id) {
  const Dataset data = synthetic(64, 10, 1);
  for (auto _ : state) {
    auto model = make_regressor(id, 42);
    model->fit(data);
    benchmark::DoNotOptimize(model->is_fitted());
  }
}
BENCHMARK_CAPTURE(BM_Train, linear, "linear");
BENCHMARK_CAPTURE(BM_Train, knn, "knn");
BENCHMARK_CAPTURE(BM_Train, dt, "dt");
BENCHMARK_CAPTURE(BM_Train, rf, "rf");
BENCHMARK_CAPTURE(BM_Train, xgb, "xgb");

void BM_Predict(benchmark::State& state, const char* id) {
  const Dataset data = synthetic(64, 10, 2);
  auto model = make_regressor(id, 42);
  model->fit(data);
  Rng rng(3);
  std::vector<double> x(10);
  for (auto& v : x) v = rng.uniform(0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->predict(x));
  }
}
BENCHMARK_CAPTURE(BM_Predict, linear, "linear");
BENCHMARK_CAPTURE(BM_Predict, knn, "knn");
BENCHMARK_CAPTURE(BM_Predict, dt, "dt");
BENCHMARK_CAPTURE(BM_Predict, rf, "rf");
BENCHMARK_CAPTURE(BM_Predict, xgb, "xgb");

void BM_TreeTrainScaling(benchmark::State& state) {
  const Dataset data =
      synthetic(static_cast<std::size_t>(state.range(0)), 10, 4);
  for (auto _ : state) {
    DecisionTree tree;
    tree.fit(data);
    benchmark::DoNotOptimize(tree.leaf_count());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TreeTrainScaling)->Range(64, 4096)->Complexity();

}  // namespace

BENCHMARK_MAIN();
