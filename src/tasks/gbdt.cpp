#include "tasks/gbdt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace nettag {

namespace {

constexpr int kNumTrees = 60;
constexpr int kMaxDepth = 3;
constexpr int kMinSamplesLeaf = 4;
constexpr double kLearningRate = 0.15;
constexpr double kSubsample = 0.8;       ///< row subsampling per tree
constexpr int kMaxSplitCandidates = 24;  ///< thresholds tried per feature

/// One node of a regression tree stored in a flat vector.
struct TreeNode {
  int feature = -1;        ///< -1 for leaves
  float threshold = 0.f;
  int left = -1, right = -1;
  double value = 0.0;      ///< leaf prediction
};

struct Tree {
  std::vector<TreeNode> nodes;

  double predict(const Mat& x, int row) const {
    int at = 0;
    while (nodes[static_cast<std::size_t>(at)].feature >= 0) {
      const TreeNode& n = nodes[static_cast<std::size_t>(at)];
      at = x.at(row, n.feature) <= n.threshold ? n.left : n.right;
    }
    return nodes[static_cast<std::size_t>(at)].value;
  }
};

/// Recursive CART builder on residuals (squared-error criterion).
class TreeBuilder {
 public:
  TreeBuilder(const Mat& x, const std::vector<double>& residual, Rng& rng)
      : x_(x), residual_(residual), rng_(rng) {}

  Tree build(const std::vector<int>& rows) {
    Tree tree;
    grow(rows, 0, tree);
    return tree;
  }

 private:
  int grow(const std::vector<int>& rows, int depth, Tree& tree) {
    const int index = static_cast<int>(tree.nodes.size());
    tree.nodes.emplace_back();
    double mean = 0;
    for (int r : rows) mean += residual_[static_cast<std::size_t>(r)];
    mean /= std::max<std::size_t>(rows.size(), 1);
    tree.nodes[static_cast<std::size_t>(index)].value = mean;

    if (depth >= kMaxDepth ||
        static_cast<int>(rows.size()) < 2 * kMinSamplesLeaf) {
      return index;
    }
    // Best split across features and sampled thresholds.
    double best_gain = 1e-12;
    int best_feature = -1;
    float best_threshold = 0.f;
    const double total_sum = mean * static_cast<double>(rows.size());
    for (int f = 0; f < x_.cols; ++f) {
      // Candidate thresholds: values of random rows.
      for (int c = 0; c < kMaxSplitCandidates; ++c) {
        const float thr = x_.at(rows[rng_.index(rows.size())], f);
        double left_sum = 0;
        int left_n = 0;
        for (int r : rows) {
          if (x_.at(r, f) <= thr) {
            left_sum += residual_[static_cast<std::size_t>(r)];
            ++left_n;
          }
        }
        const int right_n = static_cast<int>(rows.size()) - left_n;
        if (left_n < kMinSamplesLeaf || right_n < kMinSamplesLeaf) {
          continue;
        }
        const double right_sum = total_sum - left_sum;
        // Variance-reduction gain (up to constants).
        const double gain = left_sum * left_sum / left_n +
                            right_sum * right_sum / right_n -
                            total_sum * total_sum / static_cast<double>(rows.size());
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = f;
          best_threshold = thr;
        }
      }
    }
    if (best_feature < 0) return index;

    std::vector<int> left_rows, right_rows;
    for (int r : rows) {
      (x_.at(r, best_feature) <= best_threshold ? left_rows : right_rows)
          .push_back(r);
    }
    tree.nodes[static_cast<std::size_t>(index)].feature = best_feature;
    tree.nodes[static_cast<std::size_t>(index)].threshold = best_threshold;
    const int left = grow(left_rows, depth + 1, tree);
    const int right = grow(right_rows, depth + 1, tree);
    tree.nodes[static_cast<std::size_t>(index)].left = left;
    tree.nodes[static_cast<std::size_t>(index)].right = right;
    return index;
  }

  const Mat& x_;
  const std::vector<double>& residual_;
  Rng& rng_;
};

}  // namespace

struct GbdtRegressor::Impl {
  double base = 0.0;
  std::vector<Tree> trees;
};

GbdtRegressor::GbdtRegressor() : impl_(std::make_unique<Impl>()) {}
GbdtRegressor::~GbdtRegressor() = default;

void GbdtRegressor::fit(const Mat& x, const std::vector<double>& y, Rng& rng) {
  impl_->trees.clear();
  impl_->base = 0.0;
  if (x.rows == 0) return;
  for (double v : y) impl_->base += v;
  impl_->base /= static_cast<double>(y.size());

  std::vector<double> pred(y.size(), impl_->base);
  std::vector<double> residual(y.size());
  for (int t = 0; t < kNumTrees; ++t) {
    for (std::size_t i = 0; i < y.size(); ++i) residual[i] = y[i] - pred[i];
    // Row subsample.
    std::vector<int> rows;
    for (int r = 0; r < x.rows; ++r) {
      if (rng.chance(kSubsample)) rows.push_back(r);
    }
    if (static_cast<int>(rows.size()) < 2 * kMinSamplesLeaf) continue;
    TreeBuilder builder(x, residual, rng);
    Tree tree = builder.build(rows);
    for (std::size_t i = 0; i < y.size(); ++i) {
      pred[i] += kLearningRate * tree.predict(x, static_cast<int>(i));
    }
    impl_->trees.push_back(std::move(tree));
  }
}

double GbdtRegressor::predict_row(const Mat& x, int row) const {
  double out = impl_->base;
  for (const Tree& t : impl_->trees) {
    out += kLearningRate * t.predict(x, row);
  }
  return out;
}

std::vector<double> GbdtRegressor::predict(const Mat& x) const {
  std::vector<double> out(static_cast<std::size_t>(x.rows));
  for (int r = 0; r < x.rows; ++r) out[static_cast<std::size_t>(r)] = predict_row(x, r);
  return out;
}

}  // namespace nettag
