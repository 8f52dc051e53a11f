#include "tasks/finetune.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "analysis/check.hpp"

namespace nettag {

namespace {

// Checkpoint/stop plumbing for the head-fit loop. A head persists only a
// TrainState record (phase "head"): the MLP parameters ride in extra_params
// and everything else about a fit — normalization statistics, the class-pool
// partition — is a deterministic function of the data, so a resume
// recomputes it and restores just the trained state.

void validate_head_resume(const TrainState& st, int rows) {
  if (st.phase != "head") {
    throw std::runtime_error("resume_fit: checkpoint phase '" + st.phase +
                             "' is not a head checkpoint");
  }
  if (st.dataset_size != static_cast<std::uint64_t>(rows)) {
    throw std::runtime_error(
        "resume_fit: dataset has " + std::to_string(rows) +
        " rows but the checkpoint saw " + std::to_string(st.dataset_size) +
        " (data changed — resume cannot be bit-identical)");
  }
}

void save_head_state(const TrainCheckpoint& ck, int next_step, Rng& rng,
                     const Adam& opt, const Mlp& mlp,
                     const std::vector<float>& losses, int rows) {
  TrainState st;
  st.phase = "head";
  st.next_step = static_cast<std::uint64_t>(next_step);
  st.rng_state = rng.state();
  st.adam_t = opt.step_count();
  st.adam_m = opt.moment1();
  st.adam_v = opt.moment2();
  st.extra_params = flatten_param_values(mlp.params());
  st.loss_history = losses;
  st.dataset_size = static_cast<std::uint64_t>(rows);
  save_train_state(train_state_path(ck.prefix), st);
}

bool head_stop_requested(const TrainCheckpoint& ck, long executed) {
  if (ck.stop && ck.stop->load(std::memory_order_relaxed)) return true;
  return ck.halt_after_steps >= 0 && executed >= ck.halt_after_steps;
}

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
  mlp_ = std::make_unique<Mlp>(in_dim, options.hidden, num_classes, rng);
}

bool ClassifierHead::fit(const Mat& x, const std::vector<int>& y, Rng& rng) {
  return fit_impl(x, y, rng, nullptr);
}

bool ClassifierHead::resume_fit(const Mat& x, const std::vector<int>& y,
                                Rng& rng) {
  if (!options_.checkpoint.enabled()) {
    throw std::runtime_error("resume_fit: options.checkpoint.prefix is empty");
  }
  const TrainState st =
      load_train_state(train_state_path(options_.checkpoint.prefix));
  return fit_impl(x, y, rng, &st);
}

bool ClassifierHead::fit_impl(const Mat& x_raw, const std::vector<int>& y,
                              Rng& rng, const TrainState* resume) {
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
  if (x_raw.rows == 0) return true;
  fit_column_stats(x_raw, &col_mean_, &col_std_);
  const Mat x = apply_column_stats(x_raw, col_mean_, col_std_);
  Adam opt(mlp_->params(), options_.lr);

  const TrainCheckpoint& ck = options_.checkpoint;
  std::vector<float> losses;
  int start_step = 0;
  if (resume) {
    validate_head_resume(*resume, x_raw.rows);
    restore_param_values(mlp_->params(), resume->extra_params);
    opt.restore(resume->adam_t, resume->adam_m, resume->adam_v);
    rng.set_state(resume->rng_state);
    losses = resume->loss_history;
    start_step = static_cast<int>(resume->next_step);
  }

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

  long executed = 0;
  for (int step = start_step; step < options_.steps; ++step) {
    std::vector<int> idx;
    std::vector<int> labels;
    for (int b = 0; b < options_.batch; ++b) {
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
    losses.push_back(loss->value.v[0]);
    ++executed;
    const bool stop_now = head_stop_requested(ck, executed);
    if (ck.enabled() &&
        (stop_now || (ck.every > 0 && (step + 1) % ck.every == 0))) {
      save_head_state(ck, step + 1, rng, opt, *mlp_, losses, x_raw.rows);
    }
    if (stop_now) return false;
  }
  return true;
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
