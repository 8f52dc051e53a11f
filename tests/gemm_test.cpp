// SIMD backend contract tests (nn/gemm.hpp):
//   * the scalar backend is the reference — forcing it must reproduce the
//     pre-SIMD loops bit-exactly (the kernels ARE those loops, so this is
//     self-agreement across the dispatch seam);
//   * the AVX2 backend may differ from scalar only by FMA contraction and
//     dot-product reassociation — a tight relative epsilon over shapes that
//     exercise every tail path (K=1, widths straddling 8/16 multiples).
#include "nn/gemm.hpp"

#include <cmath>
#include <vector>

#include "gtest/gtest.h"
#include "nn/tensor.hpp"
#include "util/rng.hpp"

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

TEST(Gemm, ScalarBackendMatchesReferenceLoopsExactly) {
  BackendGuard guard(SimdBackend::kScalar);
  Rng rng(7);
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

}  // namespace
}  // namespace nettag
