#include "ml/model_io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/check.hpp"
#include "common/limits.hpp"
#include "common/strings.hpp"

namespace gpuperf::ml {

namespace {

/// Run a deserializer body, normalizing every failure mode to the typed
/// contract: malformed input is InputRejected (LimitExceeded passes
/// through unchanged), and no raw std::out_of_range / std::length_error
/// from string or container access may escape on truncated input.
template <typename Fn>
auto rejecting(const char* what, Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const InputRejected&) {
    throw;
  } catch (const CheckError& e) {
    throw InputRejected(std::string(what) + ": " + e.what());
  } catch (const std::out_of_range& e) {
    throw InputRejected(std::string(what) + ": truncated input (" +
                        e.what() + ")");
  } catch (const std::length_error& e) {
    throw InputRejected(std::string(what) + ": oversized input (" +
                        e.what() + ")");
  }
}

void write_doubles(std::ostream& os, const char* label,
                   const std::vector<double>& values) {
  os << label;
  for (double v : values) os << ' ' << full_precision(v);
  os << "\n";
}

std::vector<double> read_doubles(std::istream& is, const char* label,
                                 std::size_t expected) {
  std::string line;
  GP_CHECK_MSG(std::getline(is, line), "missing '" << label << "' line");
  const auto parts = split_ws(line);
  GP_CHECK_MSG(parts.size() == expected + 1 && parts[0] == label,
               "bad '" << label << "' line: '" << line << "'");
  std::vector<double> out;
  out.reserve(expected);
  for (std::size_t i = 1; i < parts.size(); ++i)
    out.push_back(parse_double(parts[i]));
  return out;
}

// Tree sections are self-delimiting (the node count precedes the node
// lines), so ensembles can embed them back to back in one stream.
void write_tree(std::ostream& os, const DecisionTree& tree) {
  GP_CHECK_MSG(tree.is_fitted(), "serialize before fit");
  const auto importances = tree.feature_importances();
  os << "gpuperf-tree v1\n";
  os << "features " << importances.size() << "\n";
  write_doubles(os, "importances", importances);
  os << "nodes " << tree.nodes().size() << "\n";
  for (const auto& n : tree.nodes()) {
    os << n.feature << ' ' << full_precision(n.threshold) << ' ' << n.left
       << ' ' << n.right << ' ' << full_precision(n.value) << ' '
       << n.n_samples << "\n";
  }
}

DecisionTree read_tree(std::istream& is, ResourceBudget& budget) {
  std::string line;

  GP_CHECK(std::getline(is, line));
  GP_CHECK_MSG(trim(line) == "gpuperf-tree v1",
               "bad tree header: '" << line << "'");

  GP_CHECK(std::getline(is, line));
  auto parts = split_ws(line);
  GP_CHECK(parts.size() == 2 && parts[0] == "features");
  const std::size_t n_features =
      static_cast<std::size_t>(parse_int(parts[1]));
  GP_CHECK(n_features >= 1);
  enforce_limit(n_features, budget.limits().max_features, "tree features");
  budget.charge_alloc(n_features * sizeof(double));

  std::vector<double> importances =
      read_doubles(is, "importances", n_features);

  GP_CHECK(std::getline(is, line));
  parts = split_ws(line);
  GP_CHECK(parts.size() == 2 && parts[0] == "nodes");
  const std::size_t n_nodes = static_cast<std::size_t>(parse_int(parts[1]));
  GP_CHECK(n_nodes >= 1);
  // Charge before reserve: a node count forged into the header must trip
  // the budget, not the allocator.
  enforce_limit(n_nodes, budget.limits().max_tree_nodes, "tree nodes");
  budget.charge_alloc(n_nodes * sizeof(DecisionTree::Node));

  std::vector<DecisionTree::Node> nodes;
  nodes.reserve(n_nodes);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    GP_CHECK_MSG(std::getline(is, line), "truncated tree file");
    parts = split_ws(line);
    GP_CHECK_MSG(parts.size() == 6, "bad node line: '" << line << "'");
    DecisionTree::Node n;
    n.feature = static_cast<std::int32_t>(parse_int(parts[0]));
    n.threshold = parse_double(parts[1]);
    n.left = static_cast<std::int32_t>(parse_int(parts[2]));
    n.right = static_cast<std::int32_t>(parse_int(parts[3]));
    n.value = parse_double(parts[4]);
    n.n_samples = static_cast<std::uint32_t>(parse_int(parts[5]));
    GP_CHECK(n.feature >= DecisionTree::Node::kLeaf &&
             n.feature < static_cast<std::int32_t>(n_features));
    if (n.feature != DecisionTree::Node::kLeaf) {
      GP_CHECK(n.left >= 0 && n.left < static_cast<std::int32_t>(n_nodes));
      GP_CHECK(n.right >= 0 && n.right < static_cast<std::int32_t>(n_nodes));
    }
    nodes.push_back(n);
  }

  DecisionTree tree;
  tree.restore(std::move(nodes), std::move(importances), n_features);
  return tree;
}

/// `header` is e.g. "gpuperf-forest v1"; the count line is
/// "<count_label> N features M".
std::pair<std::size_t, std::size_t> read_ensemble_header(
    std::istream& is, const char* header, const char* count_label,
    ResourceBudget& budget) {
  std::string line;
  GP_CHECK(std::getline(is, line));
  GP_CHECK_MSG(trim(line) == header, "bad header: '" << line << "'");
  GP_CHECK(std::getline(is, line));
  const auto parts = split_ws(line);
  GP_CHECK_MSG(parts.size() == 4 && parts[0] == count_label &&
                   parts[2] == "features",
               "bad ensemble size line: '" << line << "'");
  const std::size_t count = static_cast<std::size_t>(parse_int(parts[1]));
  const std::size_t n_features =
      static_cast<std::size_t>(parse_int(parts[3]));
  GP_CHECK(count >= 1 && n_features >= 1);
  enforce_limit(count, budget.limits().max_trees, "ensemble trees");
  enforce_limit(n_features, budget.limits().max_features,
                "ensemble features");
  return {count, n_features};
}

std::vector<std::unique_ptr<DecisionTree>> read_trees(
    std::istream& is, std::size_t count, std::size_t n_features,
    ResourceBudget& budget) {
  budget.charge_alloc(count * sizeof(std::unique_ptr<DecisionTree>));
  std::vector<std::unique_ptr<DecisionTree>> trees;
  trees.reserve(count);
  for (std::size_t t = 0; t < count; ++t) {
    auto tree = std::make_unique<DecisionTree>(read_tree(is, budget));
    GP_CHECK_MSG(tree->n_features() == n_features,
                 "tree " << t << " feature width mismatch");
    trees.push_back(std::move(tree));
  }
  return trees;
}

}  // namespace

std::string serialize_tree(const DecisionTree& tree) {
  std::ostringstream os;
  write_tree(os, tree);
  return os.str();
}

DecisionTree deserialize_tree(const std::string& text,
                              const InputLimits& limits) {
  return rejecting("tree deserialization", [&] {
    enforce_limit(text.size(), limits.max_model_bytes, "model bytes");
    ResourceBudget budget(limits);
    std::istringstream is(text);
    return read_tree(is, budget);
  });
}

std::string serialize_linear(const LinearRegression& model) {
  GP_CHECK_MSG(model.is_fitted(), "serialize before fit");
  std::ostringstream os;
  os << "gpuperf-linear v1\n";
  os << "intercept " << full_precision(model.intercept()) << "\n";
  write_doubles(os, "coefficients", model.coefficients());
  return os.str();
}

LinearRegression deserialize_linear(const std::string& text,
                                    const InputLimits& limits) {
  return rejecting("linear deserialization", [&] {
    enforce_limit(text.size(), limits.max_model_bytes, "model bytes");
    std::istringstream is(text);
    std::string line;

    GP_CHECK(std::getline(is, line));
    GP_CHECK_MSG(trim(line) == "gpuperf-linear v1",
                 "bad linear-model header: '" << line << "'");

    GP_CHECK(std::getline(is, line));
    auto parts = split_ws(line);
    GP_CHECK(parts.size() == 2 && parts[0] == "intercept");
    const double intercept = parse_double(parts[1]);

    GP_CHECK(std::getline(is, line));
    parts = split_ws(line);
    GP_CHECK(parts.size() >= 2 && parts[0] == "coefficients");
    enforce_limit(parts.size() - 1, limits.max_features,
                  "linear coefficients");
    std::vector<double> coef;
    for (std::size_t i = 1; i < parts.size(); ++i)
      coef.push_back(parse_double(parts[i]));

    LinearRegression model;
    model.restore(std::move(coef), intercept);
    return model;
  });
}

std::string serialize_forest(const RandomForest& forest) {
  GP_CHECK_MSG(forest.is_fitted(), "serialize before fit");
  std::ostringstream os;
  os << "gpuperf-forest v1\n";
  os << "trees " << forest.tree_count() << " features "
     << forest.n_features() << "\n";
  for (std::size_t t = 0; t < forest.tree_count(); ++t)
    write_tree(os, forest.tree(t));
  return os.str();
}

RandomForest deserialize_forest(const std::string& text,
                                const InputLimits& limits) {
  return rejecting("forest deserialization", [&] {
    enforce_limit(text.size(), limits.max_model_bytes, "model bytes");
    ResourceBudget budget(limits);
    std::istringstream is(text);
    const auto [count, n_features] =
        read_ensemble_header(is, "gpuperf-forest v1", "trees", budget);
    RandomForest forest;
    forest.restore(read_trees(is, count, n_features, budget), n_features);
    return forest;
  });
}

std::string serialize_boosting(const GradientBoosting& model) {
  GP_CHECK_MSG(model.is_fitted(), "serialize before fit");
  std::ostringstream os;
  os << "gpuperf-boosting v1\n";
  os << "rounds " << model.round_count() << " features "
     << model.n_features() << "\n";
  os << "base_score " << full_precision(model.base_score()) << "\n";
  os << "learning_rate " << full_precision(model.learning_rate()) << "\n";
  for (std::size_t t = 0; t < model.round_count(); ++t)
    write_tree(os, model.tree(t));
  return os.str();
}

GradientBoosting deserialize_boosting(const std::string& text,
                                      const InputLimits& limits) {
  return rejecting("boosting deserialization", [&] {
    enforce_limit(text.size(), limits.max_model_bytes, "model bytes");
    ResourceBudget budget(limits);
    std::istringstream is(text);
    const auto [count, n_features] =
        read_ensemble_header(is, "gpuperf-boosting v1", "rounds", budget);
    const double base_score = read_doubles(is, "base_score", 1).front();
    const double learning_rate =
        read_doubles(is, "learning_rate", 1).front();
    GradientBoosting model;
    model.restore(read_trees(is, count, n_features, budget), base_score,
                  learning_rate, n_features);
    return model;
  });
}

std::string serialize_knn(const KnnRegressor& model) {
  GP_CHECK_MSG(model.is_fitted(), "serialize before fit");
  std::ostringstream os;
  os << "gpuperf-knn v1\n";
  os << "k " << model.k() << " weighting "
     << (model.weighting() == KnnRegressor::Weighting::kUniform
             ? "uniform"
             : "inverse")
     << "\n";
  os << "rows " << model.points().size() << " features "
     << model.n_features() << "\n";
  write_doubles(os, "mean", model.standardization().mean);
  write_doubles(os, "stddev", model.standardization().stddev);
  for (std::size_t i = 0; i < model.points().size(); ++i) {
    os << "row";
    for (double v : model.points()[i]) os << ' ' << full_precision(v);
    os << ' ' << full_precision(model.targets()[i]) << "\n";
  }
  return os.str();
}

KnnRegressor deserialize_knn(const std::string& text,
                             const InputLimits& limits) {
  return rejecting("knn deserialization", [&] {
    enforce_limit(text.size(), limits.max_model_bytes, "model bytes");
    ResourceBudget budget(limits);
    std::istringstream is(text);
    std::string line;

    GP_CHECK(std::getline(is, line));
    GP_CHECK_MSG(trim(line) == "gpuperf-knn v1",
                 "bad knn header: '" << line << "'");

    GP_CHECK(std::getline(is, line));
    auto parts = split_ws(line);
    GP_CHECK_MSG(parts.size() == 4 && parts[0] == "k" &&
                     parts[2] == "weighting",
                 "bad knn k line: '" << line << "'");
    const std::size_t k = static_cast<std::size_t>(parse_int(parts[1]));
    GP_CHECK_MSG(k >= 1, "knn k must be >= 1");
    GP_CHECK_MSG(parts[3] == "uniform" || parts[3] == "inverse",
                 "bad knn weighting '" << parts[3] << "'");
    const auto weighting = parts[3] == "uniform"
                               ? KnnRegressor::Weighting::kUniform
                               : KnnRegressor::Weighting::kInverseDistance;

    GP_CHECK(std::getline(is, line));
    parts = split_ws(line);
    GP_CHECK_MSG(parts.size() == 4 && parts[0] == "rows" &&
                     parts[2] == "features",
                 "bad knn rows line: '" << line << "'");
    const std::size_t n_rows =
        static_cast<std::size_t>(parse_int(parts[1]));
    const std::size_t n_features =
        static_cast<std::size_t>(parse_int(parts[3]));
    GP_CHECK(n_rows >= 1 && n_features >= 1);
    enforce_limit(n_rows, limits.max_rows, "knn rows");
    enforce_limit(n_features, limits.max_features, "knn features");
    budget.charge_alloc(n_rows * (n_features + 1) * sizeof(double));

    Dataset::Standardization st;
    st.mean = read_doubles(is, "mean", n_features);
    st.stddev = read_doubles(is, "stddev", n_features);

    std::vector<std::vector<double>> points;
    std::vector<double> targets;
    points.reserve(n_rows);
    targets.reserve(n_rows);
    for (std::size_t i = 0; i < n_rows; ++i) {
      std::vector<double> row = read_doubles(is, "row", n_features + 1);
      targets.push_back(row.back());
      row.pop_back();
      points.push_back(std::move(row));
    }

    KnnRegressor model;
    model.restore(std::move(st), std::move(points), std::move(targets), k,
                  weighting);
    return model;
  });
}

std::string serialize_regressor(const Regressor& model) {
  if (const auto* tree = dynamic_cast<const DecisionTree*>(&model))
    return serialize_tree(*tree);
  if (const auto* linear = dynamic_cast<const LinearRegression*>(&model))
    return serialize_linear(*linear);
  if (const auto* forest = dynamic_cast<const RandomForest*>(&model))
    return serialize_forest(*forest);
  if (const auto* boost = dynamic_cast<const GradientBoosting*>(&model))
    return serialize_boosting(*boost);
  if (const auto* knn = dynamic_cast<const KnnRegressor*>(&model))
    return serialize_knn(*knn);
  GP_CHECK_MSG(false, "unknown regressor type '" << model.name() << "'");
  return {};
}

LoadedRegressor deserialize_regressor(const std::string& text,
                                      const InputLimits& limits) {
  return rejecting("model deserialization", [&]() -> LoadedRegressor {
    enforce_limit(text.size(), limits.max_model_bytes, "model bytes");
    std::istringstream is(text);
    std::string header;
    GP_CHECK_MSG(std::getline(is, header), "empty model text");
    header = std::string(trim(header));
    if (header == "gpuperf-tree v1")
      return {"dt",
              std::make_unique<DecisionTree>(deserialize_tree(text, limits))};
    if (header == "gpuperf-linear v1")
      return {"linear", std::make_unique<LinearRegression>(
                            deserialize_linear(text, limits))};
    if (header == "gpuperf-forest v1")
      return {"rf", std::make_unique<RandomForest>(
                        deserialize_forest(text, limits))};
    if (header == "gpuperf-boosting v1")
      return {"xgb", std::make_unique<GradientBoosting>(
                         deserialize_boosting(text, limits))};
    if (header == "gpuperf-knn v1")
      return {"knn",
              std::make_unique<KnnRegressor>(deserialize_knn(text, limits))};
    GP_CHECK_MSG(false, "unknown model header: '" << header << "'");
    return {};
  });
}

namespace {

void write_text_file(const std::string& text, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  GP_CHECK_MSG(out.good(), "cannot open '" << path << "' for writing");
  out << text;
  GP_CHECK_MSG(out.good(), "write to '" << path << "' failed");
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  GP_CHECK_MSG(in.good(), "cannot open '" << path << "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

void save_tree(const DecisionTree& tree, const std::string& path) {
  write_text_file(serialize_tree(tree), path);
}

DecisionTree load_tree(const std::string& path) {
  return deserialize_tree(read_text_file(path));
}

void save_regressor(const Regressor& model, const std::string& path) {
  write_text_file(serialize_regressor(model), path);
}

LoadedRegressor load_regressor(const std::string& path) {
  return deserialize_regressor(read_text_file(path));
}

}  // namespace gpuperf::ml
