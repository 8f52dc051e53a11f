#include "nn/forward.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "analysis/check.hpp"
#include "nn/gemm.hpp"

namespace nettag::fwd {

namespace {

/// "RxC" shape string for check messages.
std::string sh(const Mat& m) {
  return std::to_string(m.rows) + "x" + std::to_string(m.cols);
}

void check_out(const Mat& out, int rows, int cols, const char* op) {
  NETTAG_CHECK(out.rows == rows && out.cols == cols,
               std::string(op) + ": output " + sh(out) + ", want " +
                   std::to_string(rows) + "x" + std::to_string(cols));
}

}  // namespace

void scan_output(const Mat& m, const char* op) {
  if (!deep_checks_enabled()) return;
  for (std::size_t i = 0; i < m.v.size(); ++i) {
    NETTAG_CHECK(std::isfinite(m.v[i]),
                 std::string(op) + ": non-finite forward output at element " +
                     std::to_string(i) + " of " + sh(m));
  }
}

void matmul(const Mat& a, const Mat& b, Mat& out) {
  NETTAG_CHECK(a.cols == b.rows, "matmul: inner dimensions differ: " + sh(a) +
                                     " x " + sh(b));
  check_out(out, a.rows, b.cols, "matmul");
  gemm_nn(a.rows, a.cols, b.cols, a.v.data(), b.v.data(), out.v.data());
}

void add(Mat& out, const Mat& b) {
  NETTAG_CHECK(out.rows == b.rows && out.cols == b.cols,
               "add: shape mismatch: " + sh(out) + " vs " + sh(b));
  if (simd_backend() == SimdBackend::kAvx2) {
    detail::add_avx2(out.v.data(), b.v.data(), out.v.size());
    return;
  }
  for (std::size_t i = 0; i < out.v.size(); ++i) out.v[i] += b.v[i];
}

void add_rowvec(Mat& out, const Mat& b) {
  NETTAG_CHECK(b.rows == 1 && out.cols == b.cols,
               "add_rowvec: want NxD + 1xD, got " + sh(out) + " + " + sh(b));
  if (simd_backend() == SimdBackend::kAvx2) {
    detail::add_rowvec_avx2(out.rows, out.cols, out.v.data(), b.v.data());
    return;
  }
  for (int i = 0; i < out.rows; ++i) {
    for (int j = 0; j < out.cols; ++j) out.at(i, j) += b.at(0, j);
  }
}

void relu(Mat& x) {
  if (simd_backend() == SimdBackend::kAvx2) {
    detail::relu_avx2(x.v.data(), x.v.size());
    return;
  }
  for (float& v : x.v) v = std::max(v, 0.f);
}

void gelu(Mat& x) {
  // tanh approximation: 0.5 x (1 + tanh(c (x + 0.044715 x^3)))
  if (simd_backend() == SimdBackend::kAvx2) {
    detail::gelu_avx2(x.v.data(), x.v.size());
    return;
  }
  for (float& v : x.v) {
    const float t = std::tanh(kGeluC * (v + kGeluB * v * v * v));
    v = 0.5f * v * (1.f + t);
  }
}

void mean_rows(const Mat& a, Mat& out) {
  const int n = a.rows, d = a.cols;
  check_out(out, 1, d, "mean_rows");
  if (simd_backend() == SimdBackend::kAvx2) {
    detail::mean_rows_avx2(n, d, a.v.data(), out.v.data());
    return;
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) out.at(0, j) += a.at(i, j);
  }
  for (int j = 0; j < d; ++j) out.at(0, j) /= static_cast<float>(n);
}

void softmax_row(const float* x, float* y, int d, float scale) {
  if (simd_backend() == SimdBackend::kAvx2) {
    detail::softmax_row_avx2(x, y, d, scale);
    return;
  }
  y[0] = x[0] * scale;
  float mx = y[0];
  for (int j = 1; j < d; ++j) {
    y[j] = x[j] * scale;
    mx = std::max(mx, y[j]);
  }
  float sum = 0.f;
  for (int j = 0; j < d; ++j) {
    const float e = std::exp(y[j] - mx);
    y[j] = e;
    sum += e;
  }
  for (int j = 0; j < d; ++j) y[j] /= sum;
}

void layernorm_rows(const Mat& a, const Mat& gamma, const Mat& beta, float eps,
                    Mat& out, Mat* xhat, float* inv_sigma) {
  const int n = a.rows, d = a.cols;
  NETTAG_CHECK(gamma.cols == d && beta.cols == d,
               "layernorm_rows: gamma " + sh(gamma) + " / beta " + sh(beta) +
                   " do not match input " + sh(a));
  check_out(out, n, d, "layernorm_rows");
  if (xhat != nullptr) check_out(*xhat, n, d, "layernorm_rows");
  if (simd_backend() == SimdBackend::kAvx2) {
    detail::layernorm_rows_avx2(
        n, d, a.v.data(), gamma.v.data(), beta.v.data(), eps, out.v.data(),
        xhat != nullptr ? xhat->v.data() : nullptr, inv_sigma);
    return;
  }
  for (int i = 0; i < n; ++i) {
    float mean = 0.f;
    for (int j = 0; j < d; ++j) mean += a.at(i, j);
    mean /= static_cast<float>(d);
    float var = 0.f;
    for (int j = 0; j < d; ++j) {
      const float c = a.at(i, j) - mean;
      var += c * c;
    }
    var /= static_cast<float>(d);
    const float is = 1.f / std::sqrt(var + eps);
    if (inv_sigma != nullptr) inv_sigma[i] = is;
    for (int j = 0; j < d; ++j) {
      const float xh = (a.at(i, j) - mean) * is;
      if (xhat != nullptr) xhat->at(i, j) = xh;
      out.at(i, j) = gamma.at(0, j) * xh + beta.at(0, j);
    }
  }
}

void copy_head(const Mat& m, int h, int dh, float* out) {
  const std::size_t col0 = static_cast<std::size_t>(h) * dh;
  for (int i = 0; i < m.rows; ++i) {
    const float* src = m.v.data() + static_cast<std::size_t>(i) * m.cols + col0;
    std::copy(src, src + dh, out + static_cast<std::size_t>(i) * dh);
  }
}

void attention_heads(const Mat& q, const Mat& k, const Mat& v, int num_heads,
                     Mat& out, float* probs) {
  NETTAG_CHECK(k.rows == q.rows && k.cols == q.cols && v.rows == q.rows &&
                   v.cols == q.cols,
               "attention_heads: q " + sh(q) + ", k " + sh(k) + " and v " +
                   sh(v) + " must share one shape");
  NETTAG_CHECK(num_heads > 0 && q.cols % num_heads == 0,
               "attention_heads: " + std::to_string(num_heads) +
                   " heads do not divide width " + std::to_string(q.cols));
  check_out(out, q.rows, q.cols, "attention_heads");
  const int n = q.rows, d = q.cols, dh = d / num_heads;
  const float s = 1.f / std::sqrt(static_cast<float>(dh));
  const std::size_t nn = static_cast<std::size_t>(n) * n;
  // The one scratch buffer: k transposed (D x N), where head h's k^T is the
  // contiguous rows [h*dh, (h+1)*dh), then one head's N x N scores. The q
  // and v heads are read, and each head's output written, in place.
  std::vector<float> buf(static_cast<std::size_t>(d) * n + nn);
  float* k_t = buf.data();
  float* scores = k_t + static_cast<std::size_t>(d) * n;
  transpose_mat(n, d, k.v.data(), k_t);
  std::fill(out.v.begin(), out.v.end(), 0.f);
  for (int h = 0; h < num_heads; ++h) {
    const std::size_t col0 = static_cast<std::size_t>(h) * dh;
    std::fill(scores, scores + nn, 0.f);
    gemm_nn(n, dh, n, q.v.data() + col0, d, k_t + col0 * n, n, scores, n);
    // Without a probs buffer the softmax overwrites the scores in place.
    float* ph = probs != nullptr ? probs + h * nn : scores;
    for (int i = 0; i < n; ++i) {
      const std::size_t r = static_cast<std::size_t>(i) * n;
      softmax_row(scores + r, ph + r, n, s);
    }
    gemm_nn(n, n, dh, ph, n, v.v.data() + col0, d, out.v.data() + col0, d);
  }
}

void embedding(const Mat& table, const std::vector<int>& ids, Mat& out) {
  const int d = table.cols;
  check_out(out, static_cast<int>(ids.size()), d, "embedding");
  for (std::size_t i = 0; i < ids.size(); ++i) {
    NETTAG_CHECK(ids[i] >= 0 && ids[i] < table.rows,
                 "embedding: id " + std::to_string(ids[i]) + " outside table " +
                     sh(table));
    for (int j = 0; j < d; ++j) {
      out.at(static_cast<int>(i), j) = table.at(ids[i], j);
    }
  }
}

}  // namespace nettag::fwd
