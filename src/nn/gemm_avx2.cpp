// AVX2+FMA kernel bodies for nn/gemm.hpp. This translation unit is the only
// one compiled with -mavx2 -mfma (see src/CMakeLists.txt); everything here
// is reached strictly behind the simd_avx2_supported() cpuid check, so the
// rest of the library keeps the project-wide baseline ISA.
//
// Kernel shape (docs/PERFORMANCE.md §3):
//   * gemm_nn — 4x16 register tile: 8 ymm accumulators hold a 4-row by
//     16-column block of C across the whole k loop; each k step is 4
//     broadcast loads of A, 2 vector loads of B, 8 FMAs. Row/column tails
//     fall back to a 1x8 FMA loop and a scalar edge.
//   * gemm_nt — per-(row, row) dot products with 2 independent 8-lane
//     accumulators (hides FMA latency), horizontal-summed once per output.
//   * gemm_tn — rank-1 row accumulation: broadcast A[i,p], FMA G row i into
//     C row p, vectorized over the m columns. Keeps the scalar kernel's
//     zero-skip: A holds post-ReLU activations, where zeros are common.
//
// Numerics: FMA contracts mul+add into one rounding and the dot-product
// kernels reassociate the j sum into 8 lanes; both deviate from the scalar
// kernels by O(k * eps) relative error. tests/gemm_test.cpp pins the bound.
#include "nn/gemm.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

namespace nettag::detail {

namespace {

/// Sum of the 8 lanes of `v`.
inline float hsum8(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

/// One C row: crow[0..count) += sum_p arow[p] * b[p*stride + 0..count),
/// vectorized over j. `stride` is B's row stride (the full m); `count` may
/// be a column tail narrower than the stride.
inline void nn_row(int k, int stride, int count, const float* arow,
                   const float* b, float* crow) {
  for (int p = 0; p < k; ++p) {
    const float aip = arow[p];
    if (aip == 0.f) continue;
    const __m256 av = _mm256_set1_ps(aip);
    const float* brow = b + static_cast<std::size_t>(p) * stride;
    int j = 0;
    for (; j + 8 <= count; j += 8) {
      const __m256 cv = _mm256_loadu_ps(crow + j);
      _mm256_storeu_ps(crow + j,
                       _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + j), cv));
    }
    for (; j < count; ++j) crow[j] += aip * brow[j];
  }
}

}  // namespace

void gemm_nn_avx2(int i0, int i1, int k, int m, const float* a, const float* b,
                  float* c) {
  int i = i0;
  // 4x16 register-tiled main loop: B's k x 16 panel is streamed once per
  // 4 output rows instead of once per row.
  for (; i + 4 <= i1; i += 4) {
    const float* a0 = a + static_cast<std::size_t>(i) * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    float* c0 = c + static_cast<std::size_t>(i) * m;
    float* c1 = c0 + m;
    float* c2 = c1 + m;
    float* c3 = c2 + m;
    int j = 0;
    for (; j + 16 <= m; j += 16) {
      __m256 acc00 = _mm256_loadu_ps(c0 + j);
      __m256 acc01 = _mm256_loadu_ps(c0 + j + 8);
      __m256 acc10 = _mm256_loadu_ps(c1 + j);
      __m256 acc11 = _mm256_loadu_ps(c1 + j + 8);
      __m256 acc20 = _mm256_loadu_ps(c2 + j);
      __m256 acc21 = _mm256_loadu_ps(c2 + j + 8);
      __m256 acc30 = _mm256_loadu_ps(c3 + j);
      __m256 acc31 = _mm256_loadu_ps(c3 + j + 8);
      for (int p = 0; p < k; ++p) {
        const float* brow = b + static_cast<std::size_t>(p) * m + j;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        __m256 av = _mm256_set1_ps(a0[p]);
        acc00 = _mm256_fmadd_ps(av, b0, acc00);
        acc01 = _mm256_fmadd_ps(av, b1, acc01);
        av = _mm256_set1_ps(a1[p]);
        acc10 = _mm256_fmadd_ps(av, b0, acc10);
        acc11 = _mm256_fmadd_ps(av, b1, acc11);
        av = _mm256_set1_ps(a2[p]);
        acc20 = _mm256_fmadd_ps(av, b0, acc20);
        acc21 = _mm256_fmadd_ps(av, b1, acc21);
        av = _mm256_set1_ps(a3[p]);
        acc30 = _mm256_fmadd_ps(av, b0, acc30);
        acc31 = _mm256_fmadd_ps(av, b1, acc31);
      }
      _mm256_storeu_ps(c0 + j, acc00);
      _mm256_storeu_ps(c0 + j + 8, acc01);
      _mm256_storeu_ps(c1 + j, acc10);
      _mm256_storeu_ps(c1 + j + 8, acc11);
      _mm256_storeu_ps(c2 + j, acc20);
      _mm256_storeu_ps(c2 + j + 8, acc21);
      _mm256_storeu_ps(c3 + j, acc30);
      _mm256_storeu_ps(c3 + j + 8, acc31);
    }
    if (j < m) {
      // Column tail of the 4-row block: per-row vector loop over [j, m).
      const int tail = m - j;
      nn_row(k, m, tail, a0, b + j, c0 + j);
      nn_row(k, m, tail, a1, b + j, c1 + j);
      nn_row(k, m, tail, a2, b + j, c2 + j);
      nn_row(k, m, tail, a3, b + j, c3 + j);
    }
  }
  // Row tail.
  for (; i < i1; ++i) {
    nn_row(k, m, m, a + static_cast<std::size_t>(i) * k, b,
           c + static_cast<std::size_t>(i) * m);
  }
}

void gemm_nt_avx2(int i0, int i1, int k, int m, const float* g, const float* b,
                  float* c) {
  for (int i = i0; i < i1; ++i) {
    const float* grow = g + static_cast<std::size_t>(i) * m;
    float* crow = c + static_cast<std::size_t>(i) * k;
    for (int p = 0; p < k; ++p) {
      const float* brow = b + static_cast<std::size_t>(p) * m;
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      int j = 0;
      for (; j + 16 <= m; j += 16) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(grow + j),
                               _mm256_loadu_ps(brow + j), acc0);
        acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(grow + j + 8),
                               _mm256_loadu_ps(brow + j + 8), acc1);
      }
      for (; j + 8 <= m; j += 8) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(grow + j),
                               _mm256_loadu_ps(brow + j), acc0);
      }
      float acc = hsum8(_mm256_add_ps(acc0, acc1));
      for (; j < m; ++j) acc += grow[j] * brow[j];
      crow[p] += acc;
    }
  }
}

void gemm_tn_avx2(int p0, int p1, int n, int k, int m, const float* a,
                  const float* g, float* c) {
  for (int p = p0; p < p1; ++p) {
    float* crow = c + static_cast<std::size_t>(p) * m;
    for (int i = 0; i < n; ++i) {
      const float aip = a[static_cast<std::size_t>(i) * k + p];
      if (aip == 0.f) continue;
      const __m256 av = _mm256_set1_ps(aip);
      const float* grow = g + static_cast<std::size_t>(i) * m;
      int j = 0;
      for (; j + 8 <= m; j += 8) {
        const __m256 cv = _mm256_loadu_ps(crow + j);
        _mm256_storeu_ps(crow + j,
                         _mm256_fmadd_ps(av, _mm256_loadu_ps(grow + j), cv));
      }
      for (; j < m; ++j) crow[j] += aip * grow[j];
    }
  }
}

}  // namespace nettag::detail

#endif  // x86-64
