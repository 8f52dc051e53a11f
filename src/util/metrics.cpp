#include "util/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "analysis/check.hpp"

namespace nettag {

ClassificationReport classification_report(const std::vector<int>& y_true,
                                           const std::vector<int>& y_pred) {
  NETTAG_CHECK(y_true.size() == y_pred.size(),
               "classification_report: " + std::to_string(y_true.size()) +
                   " true values but " + std::to_string(y_pred.size()) +
                   " predictions");
  ClassificationReport rep;
  rep.num_samples = y_true.size();
  if (y_true.empty()) return rep;

  std::size_t correct = 0;
  // Per-class confusion counts keyed by label. `classes` is the union of
  // true and predicted labels: a class that appears only in predictions
  // still enters the macro average (as a pure-false-positive 0-precision
  // term) instead of escaping the penalty entirely.
  std::map<int, std::size_t> tp, fp, fn;
  std::map<int, bool> classes;
  for (std::size_t i = 0; i < y_true.size(); ++i) {
    classes[y_true[i]] = true;
    classes[y_pred[i]] = true;
    if (y_true[i] == y_pred[i]) {
      ++correct;
      tp[y_true[i]]++;
    } else {
      fn[y_true[i]]++;
      fp[y_pred[i]]++;
    }
  }
  rep.accuracy = static_cast<double>(correct) / static_cast<double>(y_true.size());
  rep.num_classes = classes.size();

  double prec_sum = 0.0, rec_sum = 0.0, f1_sum = 0.0;
  for (const auto& [cls, present] : classes) {
    (void)present;
    const double tpc = static_cast<double>(tp[cls]);
    const double fpc = static_cast<double>(fp[cls]);
    const double fnc = static_cast<double>(fn[cls]);
    const double prec = (tpc + fpc) > 0 ? tpc / (tpc + fpc) : 0.0;
    const double rec = (tpc + fnc) > 0 ? tpc / (tpc + fnc) : 0.0;
    const double f1 = (prec + rec) > 0 ? 2 * prec * rec / (prec + rec) : 0.0;
    prec_sum += prec;
    rec_sum += rec;
    f1_sum += f1;
  }
  const double k = static_cast<double>(classes.size());
  rep.precision = prec_sum / k;
  rep.recall = rec_sum / k;
  rep.f1 = f1_sum / k;
  return rep;
}

BinaryReport binary_report(const std::vector<int>& y_true,
                           const std::vector<int>& y_pred) {
  NETTAG_CHECK(y_true.size() == y_pred.size(),
               "binary_report: " + std::to_string(y_true.size()) +
                   " true values but " + std::to_string(y_pred.size()) +
                   " predictions");
  BinaryReport rep;
  std::size_t tp = 0, tn = 0, fp = 0, fn = 0;
  for (std::size_t i = 0; i < y_true.size(); ++i) {
    const bool t = y_true[i] != 0;
    const bool p = y_pred[i] != 0;
    if (t && p) ++tp;
    else if (!t && !p) ++tn;
    else if (!t && p) ++fp;
    else ++fn;
  }
  rep.positives = tp + fn;
  rep.negatives = tn + fp;
  rep.sensitivity = rep.positives ? static_cast<double>(tp) / rep.positives : 0.0;
  rep.specificity = rep.negatives ? static_cast<double>(tn) / rep.negatives : 0.0;
  rep.balanced_accuracy = (rep.sensitivity + rep.specificity) / 2.0;
  return rep;
}

double pearson(const std::vector<double>& a, const std::vector<double>& b) {
  NETTAG_CHECK(a.size() == b.size(), "pearson: " + std::to_string(a.size()) +
                                         " values against " +
                                         std::to_string(b.size()));
  const std::size_t n = a.size();
  if (n < 2) return 0.0;
  double ma = 0, mb = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= static_cast<double>(n);
  mb /= static_cast<double>(n);
  double cov = 0, va = 0, vb = 0;
  for (std::size_t i = 0; i < n; ++i) {
    cov += (a[i] - ma) * (b[i] - mb);
    va += (a[i] - ma) * (a[i] - ma);
    vb += (b[i] - mb) * (b[i] - mb);
  }
  if (va <= 0 || vb <= 0) return 0.0;
  return cov / std::sqrt(va * vb);
}

RegressionReport regression_report(const std::vector<double>& y_true,
                                   const std::vector<double>& y_pred,
                                   double mape_floor) {
  NETTAG_CHECK(y_true.size() == y_pred.size(),
               "regression_report: " + std::to_string(y_true.size()) +
                   " true values but " + std::to_string(y_pred.size()) +
                   " predictions");
  RegressionReport rep;
  rep.num_samples = y_true.size();
  if (y_true.empty()) return rep;

  double abs_sum = 0, sq_sum = 0, pct_sum = 0;
  std::size_t pct_n = 0;
  for (std::size_t i = 0; i < y_true.size(); ++i) {
    const double err = y_pred[i] - y_true[i];
    abs_sum += std::abs(err);
    sq_sum += err * err;
    if (std::abs(y_true[i]) > mape_floor) {
      pct_sum += std::abs(err) / std::abs(y_true[i]);
      ++pct_n;
    }
  }
  const double n = static_cast<double>(y_true.size());
  rep.mae = abs_sum / n;
  rep.rmse = std::sqrt(sq_sum / n);
  rep.mape = pct_n ? 100.0 * pct_sum / static_cast<double>(pct_n) : 0.0;
  rep.pearson_r = pearson(y_true, y_pred);
  return rep;
}

}  // namespace nettag
