// SIMD backend contract tests (nn/gemm.hpp):
//   * the scalar backend is the reference — forcing it must reproduce the
//     pre-SIMD loops bit-exactly (the kernels ARE those loops, so this is
//     self-agreement across the dispatch seam);
//   * the AVX2 backend may differ from scalar only by FMA contraction and
//     dot-product reassociation — a tight relative epsilon over shapes that
//     exercise every tail path (K=1, widths straddling 8/16 multiples).
// The same two rules hold for the row kernels of nn/forward.hpp
// (SimdRowKernels.*), with the per-kernel drift budget of
// docs/PERFORMANCE.md §2 in place of the GEMM epsilon.
#include "nn/gemm.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

#include "analysis/check.hpp"
#include "gtest/gtest.h"
#include "nn/forward.hpp"
#include "nn/tensor.hpp"
#include "util/rng.hpp"
#include "width_guard.hpp"

namespace nettag {
namespace {

Mat random_mat(int rows, int cols, Rng& rng, float zero_fraction = 0.f) {
  Mat m(rows, cols);
  for (float& x : m.v) {
    if (zero_fraction > 0.f && rng.uniform() < zero_fraction) {
      x = 0.f;
    } else {
      x = static_cast<float>(rng.normal(0.0, 1.0));
    }
  }
  return m;
}

/// Forces `backend` for the duration of one scope; restores on exit.
class BackendGuard {
 public:
  explicit BackendGuard(SimdBackend backend) : prev_(simd_backend()) {
    forced_ = set_simd_backend(backend);
  }
  ~BackendGuard() { set_simd_backend(prev_); }
  bool forced() const { return forced_; }

 private:
  SimdBackend prev_;
  bool forced_;
};

/// Shapes chosen to hit every kernel path: 4-row/16-col main tiles, 1-3 row
/// tails, 1-15 column tails, K=1 and K straddling the 8/32 boundaries.
struct Shape {
  int n, k, m;
};
const Shape kShapes[] = {
    {1, 1, 1},   {1, 1, 17},  {3, 1, 8},    {4, 7, 16},  {5, 8, 15},
    {8, 16, 32}, {7, 33, 19}, {13, 64, 48}, {2, 5, 100}, {100, 3, 2},
};

/// A rows x cols matrix inside a buffer of row stride `ld` >= cols: the
/// elements past each row's end hold `pad`, which no kernel may read into
/// an output or overwrite.
struct Strided {
  int rows, cols, ld;
  std::vector<float> v;
  Strided(const Mat& m, int ld_, float pad)
      : rows(m.rows), cols(m.cols), ld(ld_),
        v(static_cast<std::size_t>(m.rows) * ld_, pad) {
    for (int i = 0; i < rows; ++i) {
      std::copy(m.v.begin() + static_cast<std::ptrdiff_t>(i) * cols,
                m.v.begin() + static_cast<std::ptrdiff_t>(i + 1) * cols,
                v.begin() + static_cast<std::ptrdiff_t>(i) * ld);
    }
  }
  float at(int i, int j) const {
    return v[static_cast<std::size_t>(i) * ld + j];
  }
};

TEST(Gemm, ScalarBackendMatchesReferenceLoopsExactly) {
  BackendGuard guard(SimdBackend::kScalar);
  Rng rng(7);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const Shape& s : kShapes) {
    const Mat a = random_mat(s.n, s.k, rng, /*zero_fraction=*/0.3f);
    const Mat b = random_mat(s.k, s.m, rng);
    Mat got(s.n, s.m);
    gemm_nn(s.n, s.k, s.m, a.v.data(), b.v.data(), got.v.data());
    // Reference: the original serial triple loop with the zero-skip.
    Mat want(s.n, s.m);
    for (int i = 0; i < s.n; ++i) {
      for (int p = 0; p < s.k; ++p) {
        const float aip = a.at(i, p);
        if (aip == 0.f) continue;
        for (int j = 0; j < s.m; ++j) want.at(i, j) += aip * b.at(p, j);
      }
    }
    for (std::size_t t = 0; t < want.v.size(); ++t) {
      ASSERT_EQ(want.v[t], got.v[t])
          << "shape " << s.n << "x" << s.k << "x" << s.m << " elem " << t;
    }
    // The strided overload: the same bytes, pads neither read nor written.
    const Strided sa(a, s.k + 3, nan);
    const Strided sb(b, s.m + 5, nan);
    Strided sc(Mat(s.n, s.m), s.m + 2, nan);
    gemm_nn(s.n, s.k, s.m, sa.v.data(), sa.ld, sb.v.data(), sb.ld,
            sc.v.data(), sc.ld);
    for (int i = 0; i < s.n; ++i) {
      for (int j = 0; j < sc.ld; ++j) {
        if (j < s.m) {
          ASSERT_EQ(want.at(i, j), sc.at(i, j))
              << "strided shape " << s.n << "x" << s.k << "x" << s.m
              << " at " << i << "," << j;
        } else {
          ASSERT_TRUE(std::isnan(sc.at(i, j)))
              << "pad written at " << i << "," << j;
        }
      }
    }
  }
}

/// |got - want| <= tol * (|want| + 1): relative with an absolute floor.
void expect_close(const Mat& want, const Mat& got, float tol,
                  const char* what) {
  ASSERT_EQ(want.v.size(), got.v.size());
  for (std::size_t t = 0; t < want.v.size(); ++t) {
    ASSERT_LE(std::fabs(want.v[t] - got.v[t]),
              tol * (std::fabs(want.v[t]) + 1.f))
        << what << " elem " << t << ": " << want.v[t] << " vs " << got.v[t];
  }
}

TEST(Gemm, Avx2AgreesWithScalarWithinEpsilon) {
  if (!simd_avx2_supported()) GTEST_SKIP() << "CPU lacks AVX2+FMA";
  Rng rng(11);
  for (const Shape& s : kShapes) {
    const Mat a = random_mat(s.n, s.k, rng, /*zero_fraction=*/0.3f);
    const Mat b = random_mat(s.k, s.m, rng);
    const Mat g = random_mat(s.n, s.m, rng);
    Mat nn_s(s.n, s.m), nn_v(s.n, s.m);
    Mat nt_s(s.n, s.k), nt_v(s.n, s.k);
    Mat tn_s(s.k, s.m), tn_v(s.k, s.m);
    {
      BackendGuard guard(SimdBackend::kScalar);
      gemm_nn(s.n, s.k, s.m, a.v.data(), b.v.data(), nn_s.v.data());
      gemm_nt(s.n, s.k, s.m, g.v.data(), b.v.data(), nt_s.v.data());
      gemm_tn(s.n, s.k, s.m, a.v.data(), g.v.data(), tn_s.v.data());
    }
    {
      BackendGuard guard(SimdBackend::kAvx2);
      ASSERT_TRUE(guard.forced());
      gemm_nn(s.n, s.k, s.m, a.v.data(), b.v.data(), nn_v.v.data());
      gemm_nt(s.n, s.k, s.m, g.v.data(), b.v.data(), nt_v.v.data());
      gemm_tn(s.n, s.k, s.m, a.v.data(), g.v.data(), tn_v.v.data());
    }
    // FMA + 8-way reassociation: error grows with k; 1e-5 * sqrt(k) is
    // comfortably above observed drift yet far below any training signal.
    const float tol = 1e-5f * std::sqrt(static_cast<float>(s.k));
    expect_close(nn_s, nn_v, tol, "gemm_nn");
    expect_close(nt_s, nt_v, tol, "gemm_nt");
    expect_close(tn_s, tn_v, tol, "gemm_tn");
  }
}

// --- the AVX2 gemm_nn register tiles ----------------------------------------
//
// Every output of the AVX2 gemm_nn is fma(a[i,p], b[p,j], c) chained over
// ascending p from C's value, in each of its tiles (1-4 rows by 16, 8 or a
// masked 1-7 columns) and whatever the leading dimensions. The oracle below
// is that chain, element by element.

/// want[i,j] = the std::fma chain over ascending p, from c0[i,j].
Mat fma_chain(const Mat& a, const Mat& b, const Mat& c0) {
  Mat want = c0;
  for (int i = 0; i < a.rows; ++i) {
    for (int j = 0; j < b.cols; ++j) {
      float acc = c0.at(i, j);
      for (int p = 0; p < a.cols; ++p) {
        acc = std::fma(a.at(i, p), b.at(p, j), acc);
      }
      want.at(i, j) = acc;
    }
  }
  return want;
}

bool same_float_bytes(float x, float y) {
  return std::memcmp(&x, &y, sizeof(float)) == 0;
}

TEST(Gemm, Avx2NnTilesMatchFmaChainOnEveryShape) {
  BackendGuard guard(SimdBackend::kAvx2);
  if (!guard.forced()) GTEST_SKIP() << "CPU lacks AVX2+FMA";
  std::vector<int> ns{1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 33};
  std::vector<int> ms;
  for (int m = 1; m <= 40; ++m) ms.push_back(m);
  for (const int m : {48, 64, 96}) ms.push_back(m);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(17);
  for (const int k : {1, 7, 12, 33, 64}) {
    for (const int n : ns) {
      for (const int m : ms) {
        const Mat a = random_mat(n, k, rng, /*zero_fraction=*/0.3f);
        const Mat b = random_mat(k, m, rng);
        const Mat c0 = random_mat(n, m, rng);
        const Mat want = fma_chain(a, b, c0);
        const std::string shape = std::to_string(n) + "x" + std::to_string(k) +
                                  "x" + std::to_string(m);
        Mat got = c0;
        gemm_nn(n, k, m, a.v.data(), b.v.data(), got.v.data());
        for (std::size_t t = 0; t < want.v.size(); ++t) {
          ASSERT_TRUE(same_float_bytes(want.v[t], got.v[t]))
              << "contiguous " << shape << " elem " << t << ": " << want.v[t]
              << " vs " << got.v[t];
        }
        // Leading dimensions wider than the rows, NaN in every pad: a pad
        // read into an output or a pad written shows up here.
        const Strided sa(a, k + 1 + (m % 5), nan);
        const Strided sb(b, m + 1 + (n % 7), nan);
        Strided sc(c0, m + 3, nan);
        gemm_nn(n, k, m, sa.v.data(), sa.ld, sb.v.data(), sb.ld, sc.v.data(),
                sc.ld);
        for (int i = 0; i < n; ++i) {
          for (int j = 0; j < sc.ld; ++j) {
            if (j < m) {
              ASSERT_TRUE(same_float_bytes(want.at(i, j), sc.at(i, j)))
                  << "strided " << shape << " at " << i << "," << j;
            } else {
              ASSERT_TRUE(std::isnan(sc.at(i, j)))
                  << "strided " << shape << ": pad written at " << i << ","
                  << j;
            }
          }
        }
      }
    }
  }
}

/// `count` floats whose last one ends where an inaccessible (PROT_NONE)
/// page begins, so any access past the end faults.
class GuardedFloats {
 public:
  explicit GuardedFloats(std::size_t count) {
    const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    const std::size_t data = (count * sizeof(float) + page - 1) / page * page;
    bytes_ = data + page;
    base_ = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base_ == MAP_FAILED) {
      base_ = nullptr;
      return;
    }
    char* guard = static_cast<char*>(base_) + data;
    if (mprotect(guard, page, PROT_NONE) != 0) return;
    data_ = reinterpret_cast<float*>(guard) - count;
  }
  ~GuardedFloats() {
    if (base_ != nullptr) munmap(base_, bytes_);
  }
  GuardedFloats(const GuardedFloats&) = delete;
  GuardedFloats& operator=(const GuardedFloats&) = delete;
  float* data() const { return data_; }

 private:
  void* base_ = nullptr;
  std::size_t bytes_ = 0;
  float* data_ = nullptr;
};

TEST(Gemm, Avx2NnTailsStayInsideOperandsEndingAtAGuardPage) {
  BackendGuard guard(SimdBackend::kAvx2);
  if (!guard.forced()) GTEST_SKIP() << "CPU lacks AVX2+FMA";
  Rng rng(19);
  for (const int n : {1, 2, 3, 4, 5}) {
    for (int m = 1; m <= 25; ++m) {
      for (const int k : {1, 3}) {
        // ld == the width: the last row of each operand is the end of its
        // buffer, so a masked tail that touched a lane past column m-1 of
        // that row would fault.
        const Mat a = random_mat(n, k, rng, /*zero_fraction=*/0.3f);
        const Mat b = random_mat(k, m, rng);
        const Mat c0 = random_mat(n, m, rng);
        GuardedFloats ga(a.v.size()), gb(b.v.size()), gc(c0.v.size());
        ASSERT_NE(ga.data(), nullptr);
        ASSERT_NE(gb.data(), nullptr);
        ASSERT_NE(gc.data(), nullptr);
        std::copy(a.v.begin(), a.v.end(), ga.data());
        std::copy(b.v.begin(), b.v.end(), gb.data());
        std::copy(c0.v.begin(), c0.v.end(), gc.data());
        gemm_nn(n, k, m, ga.data(), gb.data(), gc.data());
        const Mat want = fma_chain(a, b, c0);
        for (std::size_t t = 0; t < want.v.size(); ++t) {
          ASSERT_TRUE(same_float_bytes(want.v[t], gc.data()[t]))
              << n << "x" << k << "x" << m << " elem " << t;
        }
      }
    }
  }
}

TEST(Gemm, Avx2NnMultipliesZeroAEntriesInEveryTile) {
  // No tile skips a zero in A, so 0 * Inf = NaN reaches the output wherever
  // the column falls: a 16-column tile, an 8-column one or a masked edge.
  BackendGuard guard(SimdBackend::kAvx2);
  if (!guard.forced()) GTEST_SKIP() << "CPU lacks AVX2+FMA";
  const int n = 5, k = 3, m = 29;  // tiles: 16, then a 13-wide masked edge
  for (int col = 0; col < m; ++col) {
    Mat a(n, k), b(k, m), c(n, m);
    std::fill(b.v.begin(), b.v.end(), 1.f);
    b.at(1, col) = std::numeric_limits<float>::infinity();
    gemm_nn(n, k, m, a.v.data(), b.v.data(), c.v.data());
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < m; ++j) {
        ASSERT_EQ(std::isnan(c.at(i, j)), j == col)
            << "row " << i << " col " << j << " (Inf at " << col << ")";
      }
    }
  }
}

TEST(Gemm, TransposeIsExactInverseAndBackendIndependent) {
  Rng rng(13);
  for (const Shape& s : kShapes) {
    const Mat a = random_mat(s.n, s.m, rng);
    Mat t(s.m, s.n);
    transpose_mat(s.n, s.m, a.v.data(), t.v.data());
    for (int i = 0; i < s.n; ++i) {
      for (int j = 0; j < s.m; ++j) ASSERT_EQ(a.at(i, j), t.at(j, i));
    }
    Mat back(s.n, s.m);
    transpose_mat(s.m, s.n, t.v.data(), back.v.data());
    EXPECT_EQ(a.v, back.v);
  }
}

TEST(Gemm, ParseSimdBackendHonorsSpellingsAndWarnsOnUnknown) {
  std::string warning;
  EXPECT_EQ(parse_simd_backend("0", SimdBackend::kAvx2, &warning),
            SimdBackend::kScalar);
  EXPECT_EQ(parse_simd_backend("scalar", SimdBackend::kAvx2, &warning),
            SimdBackend::kScalar);
  EXPECT_EQ(parse_simd_backend("off", SimdBackend::kAvx2, &warning),
            SimdBackend::kScalar);
  EXPECT_TRUE(warning.empty());
  EXPECT_EQ(parse_simd_backend(nullptr, SimdBackend::kScalar, &warning),
            SimdBackend::kScalar);
  if (simd_avx2_supported()) {
    EXPECT_EQ(parse_simd_backend("avx2", SimdBackend::kScalar, &warning),
              SimdBackend::kAvx2);
    EXPECT_TRUE(warning.empty());
  }
  EXPECT_EQ(parse_simd_backend("pentium", SimdBackend::kScalar, &warning),
            SimdBackend::kScalar);
  EXPECT_FALSE(warning.empty());
}

// --- row kernels (nn/forward.hpp) --------------------------------------------
//
// The ref_* functions are the scalar loops of softmax_row, gelu (forward and
// the gelu op's backward) and layernorm_rows as they were before the AVX2
// forms existed, copied verbatim: the byte oracle of the scalar backend.

void ref_softmax_row(const float* x, float* y, int d) {
  float mx = x[0];
  for (int j = 1; j < d; ++j) mx = std::max(mx, x[j]);
  float sum = 0.f;
  for (int j = 0; j < d; ++j) {
    const float e = std::exp(x[j] - mx);
    y[j] = e;
    sum += e;
  }
  for (int j = 0; j < d; ++j) y[j] /= sum;
}

float ref_gelu(float v) {
  const float t = std::tanh(fwd::kGeluC * (v + fwd::kGeluB * v * v * v));
  return 0.5f * v * (1.f + t);
}

/// The gelu op's backward for one element into a zeroed gradient.
float ref_gelu_grad(float x, float g) {
  const float u = fwd::kGeluC * (x + fwd::kGeluB * x * x * x);
  const float t = std::tanh(u);
  const float du = fwd::kGeluC * (1.f + 3.f * fwd::kGeluB * x * x);
  const float dy = 0.5f * (1.f + t) + 0.5f * x * (1.f - t * t) * du;
  float grad = 0.f;
  grad += g * dy;
  return grad;
}

struct LayerNormOut {
  Mat out, xhat;
  std::vector<float> inv_sigma;
};

LayerNormOut ref_layernorm_rows(const Mat& a, const Mat& gamma,
                                const Mat& beta, float eps) {
  const int n = a.rows, d = a.cols;
  LayerNormOut r{Mat(n, d), Mat(n, d), std::vector<float>(n)};
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
    r.inv_sigma[i] = is;
    for (int j = 0; j < d; ++j) {
      const float xh = (a.at(i, j) - mean) * is;
      r.xhat.at(i, j) = xh;
      r.out.at(i, j) = gamma.at(0, j) * xh + beta.at(0, j);
    }
  }
  return r;
}

/// The kernels as the backends run them.
LayerNormOut run_layernorm(const Mat& a, const Mat& gamma, const Mat& beta,
                           float eps) {
  LayerNormOut r{Mat(a.rows, a.cols), Mat(a.rows, a.cols),
                 std::vector<float>(a.rows)};
  fwd::layernorm_rows(a, gamma, beta, eps, r.out, &r.xhat, r.inv_sigma.data());
  return r;
}

std::vector<float> run_softmax(const float* x, int d) {
  std::vector<float> y(d);
  fwd::softmax_row(x, y.data(), d);
  return y;
}

/// The gelu op's forward value and its input's gradient for upstream `g`.
struct GeluOut {
  Mat y, dx;
};

GeluOut run_gelu_op(const Mat& x, const Mat& g) {
  Tensor xt = make_tensor(x, /*requires_grad=*/true);
  Tensor yt = gelu(xt);
  yt->ensure_grad();
  yt->grad = g;
  backward_seeded(yt);
  return {yt->value, xt->grad};
}

constexpr float kKernelEps = 1e-5f;  // LayerNorm::kEps

/// `rows` x `d` values offset + scale * N(0, 1).
Mat row_input(Rng& rng, int rows, int d, float scale, float offset = 0.f) {
  Mat m(rows, d);
  for (float& x : m.v) x = offset + scale * static_cast<float>(rng.normal(0.0, 1.0));
  return m;
}

/// gamma ~ 1 + 0.2 N(0,1), beta ~ 0.2 N(0,1): trained-looking affine rows.
void affine_rows(Rng& rng, int d, Mat& gamma, Mat& beta) {
  gamma = row_input(rng, 1, d, 0.2f, 1.f);
  beta = row_input(rng, 1, d, 0.2f);
}

/// GELU inputs at `scale`, with every fourth element pushed past tanh
/// saturation (|x| in [10, 60]).
Mat gelu_input(Rng& rng, int rows, int d, float scale) {
  Mat m = row_input(rng, rows, d, scale);
  for (std::size_t i = 0; i < m.v.size(); i += 4) {
    const float mag = 10.f + 50.f * static_cast<float>(rng.uniform());
    m.v[i] = rng.uniform() < 0.5 ? -mag : mag;
  }
  return m;
}

bool same_bytes(const float* a, const float* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
}

const float kScales[] = {1.f, 8.f, 30.f};
constexpr int kMaxRowLen = 130;  // every 8-lane tail, several times over

TEST(SimdRowKernels, ScalarBackendMatchesReferenceLoopsExactly) {
  BackendGuard guard(SimdBackend::kScalar);
  Rng rng(51);
  for (const float scale : kScales) {
    for (int d = 1; d <= kMaxRowLen; ++d) {
      const std::string where =
          "scale " + std::to_string(scale) + " d " + std::to_string(d);
      const Mat x = row_input(rng, 1, d, scale);
      std::vector<float> want(d);
      ref_softmax_row(x.v.data(), want.data(), d);
      EXPECT_TRUE(same_bytes(want.data(), run_softmax(x.v.data(), d).data(), d))
          << "softmax_row " << where;

      const Mat gx = gelu_input(rng, 2, d, scale);
      const Mat g = row_input(rng, 2, d, 1.f);
      const GeluOut got = run_gelu_op(gx, g);
      Mat y(2, d), dx(2, d);
      for (std::size_t i = 0; i < gx.v.size(); ++i) {
        y.v[i] = ref_gelu(gx.v[i]);
        dx.v[i] = ref_gelu_grad(gx.v[i], g.v[i]);
      }
      Mat in_place = gx;
      fwd::gelu(in_place);
      EXPECT_TRUE(same_bytes(y.v.data(), in_place.v.data(), y.v.size()))
          << "fwd::gelu " << where;
      EXPECT_TRUE(same_bytes(y.v.data(), got.y.v.data(), y.v.size()))
          << "gelu op " << where;
      EXPECT_TRUE(same_bytes(dx.v.data(), got.dx.v.data(), dx.v.size()))
          << "gelu backward " << where;

      const Mat a = row_input(rng, 3, d, scale, 2.f * scale);
      Mat gamma, beta;
      affine_rows(rng, d, gamma, beta);
      const LayerNormOut ln_want = ref_layernorm_rows(a, gamma, beta, kKernelEps);
      const LayerNormOut ln_got = run_layernorm(a, gamma, beta, kKernelEps);
      EXPECT_TRUE(same_bytes(ln_want.out.v.data(), ln_got.out.v.data(),
                             ln_want.out.v.size()))
          << "layernorm out " << where;
      EXPECT_TRUE(same_bytes(ln_want.xhat.v.data(), ln_got.xhat.v.data(),
                             ln_want.xhat.v.size()))
          << "layernorm xhat " << where;
      EXPECT_TRUE(same_bytes(ln_want.inv_sigma.data(), ln_got.inv_sigma.data(),
                             ln_want.inv_sigma.size()))
          << "layernorm inv_sigma " << where;
    }
  }
}

/// Largest |got - want| / (tol * max(floor, |want|)) over the elements; the
/// drift is within budget when this is <= 1. Raises `*max_abs` to the
/// largest |got - want|, which each test records as its max_abs_drift.
double budget_use(const float* want, const float* got, std::size_t n,
                  double tol, double floor, double* max_abs) {
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double w = want[i];
    const double err = std::fabs(static_cast<double>(got[i]) - w);
    worst = std::max(worst, err / (tol * std::max(floor, std::fabs(w))));
    *max_abs = std::max(*max_abs, err);
  }
  return worst;
}

void record_drift(const char* key, double max_abs) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", max_abs);
  ::testing::Test::RecordProperty(key, buf);
}

// Budgets of docs/PERFORMANCE.md §2.
constexpr double kSoftmaxAbs = 2e-6;   // absolute: outputs lie in [0, 1]
constexpr double kGeluRel = 1e-6;      // of max(1, |y|)
constexpr double kLayerNormRel = 2e-5; // of max(1, |y|)

TEST(SimdRowKernels, Avx2SoftmaxWithinBudget) {
  if (!simd_avx2_supported()) GTEST_SKIP() << "CPU lacks AVX2+FMA";
  Rng rng(52);
  double drift = 0.0;
  for (const float scale : kScales) {
    for (int d = 1; d <= kMaxRowLen; ++d) {
      const Mat x = row_input(rng, 1, d, scale);
      // A constant row of the same length: every output is exactly 1/d on
      // the scalar path.
      const std::vector<float> constant(d, scale);
      for (const float* row : {x.v.data(), constant.data()}) {
        std::vector<float> want, got;
        {
          BackendGuard guard(SimdBackend::kScalar);
          want = run_softmax(row, d);
        }
        {
          BackendGuard guard(SimdBackend::kAvx2);
          got = run_softmax(row, d);
        }
        EXPECT_LE(budget_use(want.data(), got.data(), d, kSoftmaxAbs, 1.0,
                             &drift),
                  1.0)
            << "scale " << scale << " d " << d;
      }
    }
  }
  record_drift("max_abs_drift", drift);
}

TEST(SimdRowKernels, Avx2GeluWithinBudget) {
  if (!simd_avx2_supported()) GTEST_SKIP() << "CPU lacks AVX2+FMA";
  Rng rng(53);
  double drift = 0.0, backward_drift = 0.0;
  for (const float scale : kScales) {
    for (int d = 1; d <= kMaxRowLen; ++d) {
      const Mat x = gelu_input(rng, 2, d, scale);
      const Mat g = row_input(rng, 2, d, 1.f);
      GeluOut want, got;
      {
        BackendGuard guard(SimdBackend::kScalar);
        want = run_gelu_op(x, g);
      }
      {
        BackendGuard guard(SimdBackend::kAvx2);
        got = run_gelu_op(x, g);
        Mat in_place = x;
        fwd::gelu(in_place);
        EXPECT_TRUE(same_bytes(got.y.v.data(), in_place.v.data(),
                               in_place.v.size()))
            << "fwd::gelu and the gelu op differ, d " << d;
      }
      const std::size_t n = x.v.size();
      EXPECT_LE(budget_use(want.y.v.data(), got.y.v.data(), n, kGeluRel, 1.0,
                           &drift),
                1.0)
          << "forward, scale " << scale << " d " << d;
      // The backward shares the forward's tanh; its budget is the forward's.
      EXPECT_LE(budget_use(want.dx.v.data(), got.dx.v.data(), n, kGeluRel, 1.0,
                           &backward_drift),
                1.0)
          << "backward, scale " << scale << " d " << d;
    }
  }
  record_drift("max_abs_drift", drift);
  record_drift("backward_max_abs_drift", backward_drift);
}

TEST(SimdRowKernels, Avx2LayerNormWithinBudget) {
  if (!simd_avx2_supported()) GTEST_SKIP() << "CPU lacks AVX2+FMA";
  Rng rng(54);
  double drift = 0.0, sigma_drift = 0.0;
  for (const float scale : kScales) {
    for (int d = 1; d <= kMaxRowLen; ++d) {
      // Rows offset from zero by twice their spread, so the mean matters.
      const Mat a = row_input(rng, 3, d, scale, 2.f * scale);
      Mat gamma, beta;
      affine_rows(rng, d, gamma, beta);
      LayerNormOut want, got;
      {
        BackendGuard guard(SimdBackend::kScalar);
        want = run_layernorm(a, gamma, beta, kKernelEps);
      }
      {
        BackendGuard guard(SimdBackend::kAvx2);
        got = run_layernorm(a, gamma, beta, kKernelEps);
      }
      const std::string where =
          "scale " + std::to_string(scale) + " d " + std::to_string(d);
      EXPECT_LE(budget_use(want.out.v.data(), got.out.v.data(),
                           want.out.v.size(), kLayerNormRel, 1.0, &drift),
                1.0)
          << "out, " << where;
      EXPECT_LE(budget_use(want.xhat.v.data(), got.xhat.v.data(),
                           want.xhat.v.size(), kLayerNormRel, 1.0, &drift),
                1.0)
          << "xhat, " << where;
      // 1/sigma scales with 1/scale; hold it to the budget relatively.
      EXPECT_LE(budget_use(want.inv_sigma.data(), got.inv_sigma.data(),
                           want.inv_sigma.size(), kLayerNormRel, 0.0,
                           &sigma_drift),
                1.0)
          << "inv_sigma, " << where;
    }
  }
  record_drift("max_abs_drift", drift);
}

/// Element-by-element finiteness of two equally long outputs.
void expect_same_finiteness(const float* want, const float* got, std::size_t n,
                            const std::string& what) {
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(std::isfinite(want[i]), std::isfinite(got[i]))
        << what << " elem " << i << ": scalar " << want[i] << ", avx2 "
        << got[i];
  }
}

/// Turns deep checks off for one scope: with NETTAG_CHECK=1 the gelu op
/// would throw at the non-finite outputs this test means to compare.
class NoDeepChecks {
 public:
  NoDeepChecks() : prev_(deep_checks_enabled()) { set_deep_checks(false); }
  ~NoDeepChecks() { set_deep_checks(prev_); }
  NoDeepChecks(const NoDeepChecks&) = delete;
  NoDeepChecks& operator=(const NoDeepChecks&) = delete;

 private:
  bool prev_;
};

TEST(SimdRowKernels, NonFiniteInputsGiveNonFiniteOutputsLikeScalar) {
  if (!simd_avx2_supported()) GTEST_SKIP() << "CPU lacks AVX2+FMA";
  const NoDeepChecks no_deep_checks;
  const float kPlants[] = {std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity()};
  const SimdBackend kBackends[] = {SimdBackend::kScalar, SimdBackend::kAvx2};
  Rng rng(55);
  for (const int d : {1, 3, 7, 8, 9, 16, 17, 33, 48}) {
    for (const float plant : kPlants) {
      for (const int pos : {0, d / 2, d - 1}) {
        const std::string where = "d " + std::to_string(d) + " plant " +
                                  std::to_string(plant) + " at " +
                                  std::to_string(pos);
        Mat x = row_input(rng, 2, d, 4.f);
        x.at(1, pos) = plant;
        const Mat g = row_input(rng, 2, d, 1.f);
        Mat gamma, beta;
        affine_rows(rng, d, gamma, beta);
        std::vector<float> sm[2];
        GeluOut ge[2];
        LayerNormOut ln[2];
        for (int b = 0; b < 2; ++b) {
          BackendGuard guard(kBackends[b]);
          sm[b] = run_softmax(x.v.data() + d, d);
          ge[b] = run_gelu_op(x, g);
          ln[b] = run_layernorm(x, gamma, beta, kKernelEps);
        }
        expect_same_finiteness(sm[0].data(), sm[1].data(), d,
                               "softmax_row " + where);
        expect_same_finiteness(ge[0].y.v.data(), ge[1].y.v.data(),
                               x.v.size(), "gelu " + where);
        expect_same_finiteness(ge[0].dx.v.data(), ge[1].dx.v.data(),
                               x.v.size(), "gelu backward " + where);
        expect_same_finiteness(ln[0].out.v.data(), ln[1].out.v.data(),
                               x.v.size(), "layernorm out " + where);
        expect_same_finiteness(ln[0].xhat.v.data(), ln[1].xhat.v.data(),
                               x.v.size(), "layernorm xhat " + where);
        expect_same_finiteness(ln[0].inv_sigma.data(),
                               ln[1].inv_sigma.data(), 2,
                               "layernorm inv_sigma " + where);
      }
    }
    // A softmax row of -inf only has no finite maximum: NaN everywhere.
    const std::vector<float> all_neg_inf(
        d, -std::numeric_limits<float>::infinity());
    std::vector<float> sm[2];
    for (int b = 0; b < 2; ++b) {
      BackendGuard guard(kBackends[b]);
      sm[b] = run_softmax(all_neg_inf.data(), d);
    }
    expect_same_finiteness(sm[0].data(), sm[1].data(), d,
                           "all -inf softmax, d " + std::to_string(d));
  }
}

TEST(SimdRowKernels, ScaledSoftmaxMatchesScaleThenSoftmax) {
  // softmax_row's scale rounds scale * x once, as the multiply pass that
  // attention_heads used to make before the softmax did, under both
  // backends and in place or not.
  Rng rng(57);
  for (const SimdBackend backend : {SimdBackend::kScalar, SimdBackend::kAvx2}) {
    BackendGuard guard(backend);
    if (!guard.forced()) continue;
    for (const float scale : {1.f / std::sqrt(12.f), 1.f / std::sqrt(32.f),
                              0.5f, 1.f}) {
      for (int d = 1; d <= kMaxRowLen; ++d) {
        const Mat x = row_input(rng, 1, d, 4.f);
        Mat scaled = x;
        for (float& v : scaled.v) v *= scale;
        const std::vector<float> want = run_softmax(scaled.v.data(), d);
        std::vector<float> got(d);
        fwd::softmax_row(x.v.data(), got.data(), d, scale);
        Mat in_place = x;
        fwd::softmax_row(in_place.v.data(), in_place.v.data(), d, scale);
        const std::string where = std::string(simd_backend_name(backend)) +
                                  " scale " + std::to_string(scale) + " d " +
                                  std::to_string(d);
        EXPECT_TRUE(same_bytes(want.data(), got.data(), d)) << where;
        EXPECT_TRUE(same_bytes(want.data(), in_place.v.data(), d))
            << "in place, " << where;
      }
    }
  }
}

TEST(SimdRowKernels, GeluBytesIndependentOfPoolWidth) {
  // The GELU kernels run serially on their caller, so no pool width may
  // change their bytes. 8 * 4096 + 13 elements end off the 8-lane grid.
  const int kRows = 3, kCols = (8 * 4096 + 13) / 3 + 1;
  Rng rng(56);
  const Mat x = gelu_input(rng, kRows, kCols, 4.f);
  const Mat g = row_input(rng, kRows, kCols, 1.f);
  for (const SimdBackend backend : {SimdBackend::kScalar, SimdBackend::kAvx2}) {
    BackendGuard guard(backend);
    if (!guard.forced()) continue;
    GeluOut serial;
    {
      WidthGuard width(1);
      serial = run_gelu_op(x, g);
    }
    for (const int w : {2, 3, 4, 8}) {
      WidthGuard width(w);
      const GeluOut got = run_gelu_op(x, g);
      EXPECT_TRUE(same_bytes(serial.y.v.data(), got.y.v.data(), x.v.size()))
          << simd_backend_name(backend) << " forward, width " << w;
      EXPECT_TRUE(same_bytes(serial.dx.v.data(), got.dx.v.data(), x.v.size()))
          << simd_backend_name(backend) << " backward, width " << w;
    }
  }
}

// --- element-wise kernels (nn/forward.hpp) ----------------------------------

/// rows x cols values, about a third of them NaN, +-0, +-Inf or subnormal
/// and the rest 4 * N(0, 1).
Mat special_input(Rng& rng, int rows, int cols) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kTiny = std::numeric_limits<float>::denorm_min();
  const float kSpecial[] = {std::numeric_limits<float>::quiet_NaN(),
                            0.f,
                            -0.f,
                            kInf,
                            -kInf,
                            kTiny,
                            -kTiny,
                            1e-39f,
                            -3e-40f};
  constexpr int kCount = static_cast<int>(sizeof kSpecial / sizeof(float));
  Mat m = row_input(rng, rows, cols, 4.f);
  for (float& x : m.v) {
    if (rng.uniform() < 0.35) x = kSpecial[rng.uniform_int(0, kCount - 1)];
  }
  return m;
}

/// a[i] and b[i] are NaNs together or have the same bytes, for every i. An
/// add of two NaNs returns one of them, and IEEE 754 leaves open which;
/// compilers may order a scalar add's operands either way.
bool same_values(const Mat& a, const Mat& b) {
  if (a.v.size() != b.v.size()) return false;
  for (std::size_t i = 0; i < a.v.size(); ++i) {
    if (std::isnan(a.v[i]) != std::isnan(b.v[i])) return false;
    if (!std::isnan(a.v[i]) && !same_bytes(&a.v[i], &b.v[i], 1)) return false;
  }
  return true;
}

/// add, add_rowvec, relu and mean_rows on `a` (with `b` of a's shape and
/// the 1 x a.cols `row`), under the active backend. mean_rows accumulates
/// into a copy of `row`.
std::vector<Mat> run_elementwise(const Mat& a, const Mat& b, const Mat& row) {
  std::vector<Mat> out(4, a);
  fwd::add(out[0], b);
  fwd::add_rowvec(out[1], row);
  fwd::relu(out[2]);
  out[3] = row;
  fwd::mean_rows(a, out[3]);
  return out;
}

TEST(SimdElementwise, Avx2MatchesScalarOnEveryTailAndSpecialValue) {
  if (!simd_avx2_supported()) GTEST_SKIP() << "CPU lacks AVX2+FMA";
  // Every 8-lane tail at lengths 1..67, as one row and as three, then the
  // encoders' shapes: text encoder rows of d_model 48 and d_ff 96 over up
  // to 96 tokens, TAGFormer rows of 64 over a cone's nodes.
  std::vector<std::pair<int, int>> shapes;
  for (int d = 1; d <= 67; ++d) {
    shapes.emplace_back(1, d);
    shapes.emplace_back(3, d);
  }
  for (const auto& shape : {std::pair{12, 48}, std::pair{12, 96},
                            std::pair{96, 48}, std::pair{20, 64},
                            std::pair{33, 64}, std::pair{1, 48}}) {
    shapes.push_back(shape);
  }
  static const char* const kNames[] = {"add", "add_rowvec", "relu",
                                       "mean_rows"};
  Rng rng(57);
  for (const auto& [rows, cols] : shapes) {
    const Mat a = special_input(rng, rows, cols);
    const Mat b = special_input(rng, rows, cols);
    const Mat row = special_input(rng, 1, cols);
    std::vector<Mat> want, got;
    {
      BackendGuard guard(SimdBackend::kScalar);
      want = run_elementwise(a, b, row);
    }
    {
      BackendGuard guard(SimdBackend::kAvx2);
      got = run_elementwise(a, b, row);
    }
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_TRUE(same_values(want[k], got[k]))
          << kNames[k] << " " << rows << "x" << cols;
    }
  }
}

}  // namespace
}  // namespace nettag
