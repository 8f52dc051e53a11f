// Gradient-boosted regression trees: the paper's alternative lightweight
// fine-tuning model ("MLPs or tree-based models (e.g., XGBoost)", §II-F).
// Squared-error boosting over depth-limited CART trees with histogram-free
// exact splits — adequate at our feature/sample scale.
#pragma once

#include <memory>
#include <vector>

#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace nettag {

/// Boosted-trees regressor on dense feature rows.
class GbdtRegressor {
 public:
  GbdtRegressor();
  ~GbdtRegressor();

  /// Fits on rows of `x` against targets `y`.
  void fit(const Mat& x, const std::vector<double>& y, Rng& rng);

  std::vector<double> predict(const Mat& x) const;
  double predict_row(const Mat& x, int row) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace nettag
