#include "tasks/finetune.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "analysis/check.hpp"

namespace nettag {

namespace {

// The MLP head's shape and minibatch Adam schedule.
constexpr int kHidden = 96;
constexpr int kBatch = 64;
constexpr float kLearningRate = 3e-3f;

}  // namespace

Mat vstack(const std::vector<Mat>& rows) {
  NETTAG_CHECK(!rows.empty(), "vstack: no rows to stack");
  const int d = rows[0].cols;
  int total = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    NETTAG_CHECK(rows[i].cols == d,
                 "vstack: row " + std::to_string(i) + " has " +
                     std::to_string(rows[i].cols) + " cols, row 0 has " +
                     std::to_string(d));
    total += rows[i].rows;
  }
  Mat out(total, d);
  int at = 0;
  for (const Mat& r : rows) {
    std::copy(r.v.begin(), r.v.end(),
              out.v.begin() + static_cast<std::ptrdiff_t>(at) * d);
    at += r.rows;
  }
  return out;
}

Mat take_rows(const Mat& x, const std::vector<int>& idx) {
  Mat out(static_cast<int>(idx.size()), x.cols);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    for (int j = 0; j < x.cols; ++j) {
      out.at(static_cast<int>(i), j) = x.at(idx[i], j);
    }
  }
  return out;
}

void fit_column_stats(const Mat& x, std::vector<float>* mean,
                      std::vector<float>* std) {
  mean->assign(static_cast<std::size_t>(x.cols), 0.f);
  std->assign(static_cast<std::size_t>(x.cols), 1.f);
  if (x.rows == 0) return;
  for (int j = 0; j < x.cols; ++j) {
    double s = 0, sq = 0;
    for (int i = 0; i < x.rows; ++i) {
      s += x.at(i, j);
      sq += static_cast<double>(x.at(i, j)) * x.at(i, j);
    }
    const double m = s / x.rows;
    const double v = std::max(sq / x.rows - m * m, 1e-8);
    (*mean)[static_cast<std::size_t>(j)] = static_cast<float>(m);
    (*std)[static_cast<std::size_t>(j)] = static_cast<float>(std::sqrt(v));
  }
  // Floor each column std at a fraction of the average std: columns with
  // near-zero variance would otherwise amplify noise after division.
  double avg = 0;
  for (float s : *std) avg += s;
  avg /= static_cast<double>(std->size());
  const float floor_std = static_cast<float>(0.25 * avg);
  for (float& s : *std) s = std::max(s, floor_std);
}

Mat apply_column_stats(const Mat& x, const std::vector<float>& mean,
                       const std::vector<float>& std) {
  if (mean.empty()) return x;
  Mat out = x;
  for (int i = 0; i < out.rows; ++i) {
    for (int j = 0; j < out.cols; ++j) {
      out.at(i, j) = (out.at(i, j) - mean[static_cast<std::size_t>(j)]) /
                     std[static_cast<std::size_t>(j)];
    }
  }
  return out;
}

ClassifierHead::ClassifierHead(int in_dim, int num_classes,
                               const FinetuneOptions& options, Rng& rng)
    : options_(options), num_classes_(num_classes) {
  mlp_ = std::make_unique<Mlp>(in_dim, kHidden, num_classes, rng);
}

void ClassifierHead::fit(const Mat& x_raw, const std::vector<int>& y,
                         Rng& rng) {
  NETTAG_CHECK(x_raw.rows == static_cast<int>(y.size()),
               "ClassifierHead::fit: " + std::to_string(x_raw.rows) +
                   " feature rows but " + std::to_string(y.size()) +
                   " labels");
  for (std::size_t i = 0; i < y.size(); ++i) {
    NETTAG_CHECK(y[i] >= 0 && y[i] < num_classes_,
                 "ClassifierHead::fit: label " + std::to_string(y[i]) +
                     " of row " + std::to_string(i) + " outside [0, " +
                     std::to_string(num_classes_) + ")");
  }
  if (x_raw.rows == 0) return;
  fit_column_stats(x_raw, &col_mean_, &col_std_);
  const Mat x = apply_column_stats(x_raw, col_mean_, col_std_);
  Adam opt(mlp_->params(), kLearningRate);

  // Optional inverse-frequency resampling for imbalanced tasks: oversample
  // minority classes in the minibatch draw.
  std::vector<std::vector<int>> by_class(static_cast<std::size_t>(num_classes_));
  for (int i = 0; i < x.rows; ++i) {
    by_class[static_cast<std::size_t>(y[static_cast<std::size_t>(i)])].push_back(i);
  }
  std::vector<int> nonempty;
  for (int c = 0; c < num_classes_; ++c) {
    if (!by_class[static_cast<std::size_t>(c)].empty()) nonempty.push_back(c);
  }

  for (int step = 0; step < options_.steps; ++step) {
    std::vector<int> idx;
    std::vector<int> labels;
    for (int b = 0; b < kBatch; ++b) {
      int i;
      if (options_.class_weighted) {
        const int c = nonempty[rng.index(nonempty.size())];
        const auto& pool = by_class[static_cast<std::size_t>(c)];
        i = pool[rng.index(pool.size())];
      } else {
        i = static_cast<int>(rng.index(static_cast<std::size_t>(x.rows)));
      }
      idx.push_back(i);
      labels.push_back(y[static_cast<std::size_t>(i)]);
    }
    Tensor logits = mlp_->forward(make_tensor(take_rows(x, idx), false));
    Tensor loss = cross_entropy(logits, labels);
    backward(loss);
    opt.step();
  }
}

Mat ClassifierHead::scores(const Mat& x) const {
  return mlp_->forward(make_tensor(apply_column_stats(x, col_mean_, col_std_),
                                   false))
      ->value;
}

std::vector<int> ClassifierHead::predict(const Mat& x) const {
  const Mat s = scores(x);
  std::vector<int> out(static_cast<std::size_t>(s.rows));
  for (int i = 0; i < s.rows; ++i) {
    int best = 0;
    for (int j = 1; j < s.cols; ++j) {
      if (s.at(i, j) > s.at(i, best)) best = j;
    }
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

}  // namespace nettag
