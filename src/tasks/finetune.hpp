// Lightweight fine-tuning on frozen NetTAG embeddings (paper §II-F: "we
// fine-tune these embeddings with lightweight task models like MLPs or
// tree-based models"). The MLP head here is for classification (Tasks 1-2),
// trained with minibatch Adam; regression (Tasks 3-4) uses the
// gradient-boosted trees in gbdt.hpp.
#pragma once

#include <memory>
#include <vector>

#include "nn/layers.hpp"

namespace nettag {

struct FinetuneOptions {
  int steps = 1200;
  bool class_weighted = false;  ///< inverse-frequency weights (imbalanced tasks)
};

/// Trained classification head over fixed feature rows.
class ClassifierHead {
 public:
  ClassifierHead(int in_dim, int num_classes, const FinetuneOptions& options,
                 Rng& rng);

  /// Trains on rows of X (N x in_dim) with integer labels.
  void fit(const Mat& x, const std::vector<int>& y, Rng& rng);

  /// Argmax predictions for rows of X.
  std::vector<int> predict(const Mat& x) const;

  /// Per-class scores (logits) for rows of X.
  Mat scores(const Mat& x) const;

 private:
  FinetuneOptions options_;
  int num_classes_;
  std::unique_ptr<Mlp> mlp_;
  std::vector<float> col_mean_, col_std_;  ///< input normalization (from fit)
};

/// Column-wise z-score statistics and application (used by ClassifierHead:
/// embeddings and raw scalar features arrive on very different scales).
void fit_column_stats(const Mat& x, std::vector<float>* mean,
                      std::vector<float>* std);
Mat apply_column_stats(const Mat& x, const std::vector<float>& mean,
                       const std::vector<float>& std);

/// Utility: stack feature rows (each 1 x D) into one matrix.
Mat vstack(const std::vector<Mat>& rows);

/// Utility: select rows of `x` by index.
Mat take_rows(const Mat& x, const std::vector<int>& idx);

}  // namespace nettag
