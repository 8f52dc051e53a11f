// AVX2+FMA kernel bodies for nn/gemm.hpp. This translation unit is the only
// one compiled with -mavx2 -mfma (see src/CMakeLists.txt); everything here
// is reached strictly behind the simd_avx2_supported() cpuid check, so the
// rest of the library keeps the project-wide baseline ISA.
//
// Kernel shape (docs/PERFORMANCE.md §3):
//   * gemm_nn — one register-tile body for every shape. A tile is 1-4 rows
//     of C by 16 columns (2 ymm per row) or 8 columns (1 ymm), held in
//     accumulators across the whole k loop; each k step is one broadcast
//     of A per row, one vector load of B per 8 columns and one FMA per
//     accumulator. Rows go in blocks of 4, the last 1-3 rows as a shorter
//     tile; columns go in 16s, and the last 1-15 columns as one 16- or
//     8-column tile whose last 8 lanes are masked (maskload/maskstore) to
//     the columns that exist, so no lane past the matrix is read or
//     written. Leading dimensions are parameters, so attention_heads runs
//     it on a head's column block in place. Every output is
//     fma(a[i,p], b[p,j], c) chained over ascending p from C's value, in
//     every tile: a zero in A multiplies its B entry like any other value,
//     so 0 * Inf or 0 * NaN in B gives NaN wherever the column falls (the
//     scalar kernel skips zero A entries, and its bytes stay the
//     reference).
//   * gemm_nt — per-(row, row) dot products with 2 independent 8-lane
//     accumulators (hides FMA latency), horizontal-summed once per output.
//   * gemm_tn — rank-1 row accumulation: broadcast A[i,p], FMA G row i into
//     C row p, vectorized over the m columns. Keeps the scalar kernel's
//     zero-skip: A holds post-ReLU activations, where zeros are common.
//
// Numerics: FMA contracts mul+add into one rounding and the dot-product
// kernels reassociate the j sum into 8 lanes; both deviate from the scalar
// kernels by O(k * eps) relative error. tests/gemm_test.cpp pins the bound.
//
// Row kernels (nn/forward.hpp; docs/PERFORMANCE.md §3):
//   * exp8 — e^x as 2^n * e^r with n = round(x / ln 2), r reduced by a
//     two-part ln 2, and e^r from a degree-6 polynomial; 2^n is built in
//     the exponent bits.
//   * tanh8 — 1 - 2/(1 + e^{2|u|}) written as 1 - 2e/(1 + e) with
//     e = e^{-2|u|} <= 1, so it never overflows, then the sign of u.
//   * softmax_row — scale * x stored into y with the 8-lane max, then exp
//     and sum, then the division.
//   * gelu and its backward — elementwise over 8 lanes through tanh8.
//   * layernorm_rows — 8-lane mean and variance sums, then the normalize
//     pass.
//   * add, add_rowvec, relu, mean_rows — one 8-lane operation per 8
//     outputs. Each output is the scalar loop's one IEEE operation on the
//     same operands (relu is max(0, x), which returns x for NaN and -0 as
//     std::max(x, 0.f) does; mean_rows adds rows in ascending order, then
//     divides), so their bytes equal the scalar loops', but for which NaN
//     an add of two NaNs returns (nn/gemm.hpp).
// Tails go through masked lanes (maskload/maskstore), never a scalar loop,
// so each element runs the same arithmetic wherever a row ends. Non-finite
// inputs stay non-finite: the clamps in exp8 pass a
// NaN through, and a NaN or infinity reaches every sum the scalar loop
// would carry it into. tests/gemm_test.cpp (SimdRowKernels.*) pins the
// drift budget of docs/PERFORMANCE.md §2.
#include "nn/gemm.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "nn/forward.hpp"

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

/// All-ones lanes [0, count), zero lanes [count, 8): the maskload/maskstore
/// mask of a row tail of `count` (0..8) elements.
inline __m256i tail_mask(int count) {
  static const int kBits[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                0,  0,  0,  0,  0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kBits + 8 - count));
}

/// 8 lanes at p: all of them, or only those of `mask` (the rest read 0).
template <bool kMasked>
inline __m256 load8(const float* p, __m256i mask) {
  if constexpr (kMasked) return _mm256_maskload_ps(p, mask);
  return _mm256_loadu_ps(p);
}

template <bool kMasked>
inline void store8(float* p, __m256i mask, __m256 v) {
  if constexpr (kMasked) {
    _mm256_maskstore_ps(p, mask, v);
  } else {
    _mm256_storeu_ps(p, v);
  }
}

/// The gemm_nn register tile: an R-row by 8V-column block of C
/// (1 <= R <= 4, V = 1 or 2) held in R*V accumulators across the whole k
/// loop. With kMasked the last 8-lane group covers only the lanes of
/// `mask`: B and C are read and C is written there alone. Every output is
/// fma(a[i,p], b[p,j], c) chained over ascending p from C's value, whatever
/// the tile, so the bytes do not depend on where a block falls. Forced
/// inline: as a call per tile, the short-k products ran slower (18x18x64 by
/// about 13%).
template <int R, int V, bool kMasked>
[[gnu::always_inline]] inline void nn_tile(int k, const float* a,
                                           std::size_t lda, const float* b,
                                           std::size_t ldb, float* c,
                                           std::size_t ldc, __m256i mask) {
  __m256 acc[R][V];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      acc[r][v] = v == V - 1 ? load8<kMasked>(c + r * ldc + 8 * v, mask)
                             : _mm256_loadu_ps(c + r * ldc + 8 * v);
    }
  }
  for (int p = 0; p < k; ++p) {
    const float* brow = b + static_cast<std::size_t>(p) * ldb;
    __m256 bv[V];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      bv[v] = v == V - 1 ? load8<kMasked>(brow + 8 * v, mask)
                         : _mm256_loadu_ps(brow + 8 * v);
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_set1_ps(a[r * lda + p]);
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      if (v == V - 1) {
        store8<kMasked>(c + r * ldc + 8 * v, mask, acc[r][v]);
      } else {
        _mm256_storeu_ps(c + r * ldc + 8 * v, acc[r][v]);
      }
    }
  }
}

/// R rows of C, left to right: 16-column tiles, then the last 1-15 columns
/// as one 16- or 8-column tile, masked unless they fill it.
template <int R>
void nn_rows(int k, int m, const float* a, std::size_t lda, const float* b,
             std::size_t ldb, float* c, std::size_t ldc) {
  int j = 0;
  for (; j + 16 <= m; j += 16) {
    nn_tile<R, 2, false>(k, a, lda, b + j, ldb, c + j, ldc, __m256i{});
  }
  const int rest = m - j;
  if (rest > 8) {
    nn_tile<R, 2, true>(k, a, lda, b + j, ldb, c + j, ldc,
                        tail_mask(rest - 8));
  } else if (rest == 8) {
    nn_tile<R, 1, false>(k, a, lda, b + j, ldb, c + j, ldc, __m256i{});
  } else if (rest > 0) {
    nn_tile<R, 1, true>(k, a, lda, b + j, ldb, c + j, ldc, tail_mask(rest));
  }
}

}  // namespace

void gemm_nn_avx2(int n, int k, int m, const float* a, int lda,
                  const float* b, int ldb, float* c, int ldc) {
  const std::size_t sa = static_cast<std::size_t>(lda);
  const std::size_t sb = static_cast<std::size_t>(ldb);
  const std::size_t sc = static_cast<std::size_t>(ldc);
  // Blocks of 4 rows stream B's k x 16 panels once per 4 output rows; the
  // last 1-3 rows take a shorter tile of the same shape.
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    nn_rows<4>(k, m, a + i * sa, sa, b, sb, c + i * sc, sc);
  }
  const float* ai = a + i * sa;
  float* ci = c + i * sc;
  switch (n - i) {
    case 3: nn_rows<3>(k, m, ai, sa, b, sb, ci, sc); break;
    case 2: nn_rows<2>(k, m, ai, sa, b, sb, ci, sc); break;
    case 1: nn_rows<1>(k, m, ai, sa, b, sb, ci, sc); break;
    default: break;
  }
}

void gemm_nt_avx2(int n, int k, int m, const float* g, const float* b,
                  float* c) {
  for (int i = 0; i < n; ++i) {
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

void gemm_tn_avx2(int n, int k, int m, const float* a, const float* g,
                  float* c) {
  for (int p = 0; p < k; ++p) {
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

// --- row kernels -------------------------------------------------------------

namespace {

/// Largest of the 8 lanes of `v`.
inline float hmax8(__m256 v) {
  __m128 m = _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
  return _mm_cvtss_f32(m);
}

/// e^x per lane, within 1 ulp on [-87, 0] (the softmax and tanh range).
/// Inputs are clamped to [-87.34, 88] first, so 2^n stays a normal float:
/// below that the result is FLT_MIN instead of a denormal or 0. min/max
/// return their second operand when either is NaN, so a NaN in x passes
/// both clamps and the result is NaN.
inline __m256 exp8(__m256 x) {
  x = _mm256_min_ps(_mm256_set1_ps(88.0f), x);
  x = _mm256_max_ps(_mm256_set1_ps(-87.33654f), x);
  const __m256 n = _mm256_round_ps(
      _mm256_mul_ps(x, _mm256_set1_ps(1.44269504088896341f)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  // r = x - n ln2, with ln2 split so that n * 0.693359375 is exact.
  __m256 r = _mm256_fnmadd_ps(n, _mm256_set1_ps(0.693359375f), x);
  r = _mm256_fnmadd_ps(n, _mm256_set1_ps(-2.12194440e-4f), r);
  __m256 p = _mm256_set1_ps(1.9875691500e-4f);
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.3981999507e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(8.3334519073e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(4.1665795894e-2f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.6666665459e-1f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(5.0000001201e-1f));
  // e^r = 1 + r + r^2 p(r)
  p = _mm256_fmadd_ps(p, _mm256_mul_ps(r, r),
                      _mm256_add_ps(r, _mm256_set1_ps(1.f)));
  const __m256i pow2n = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(p, _mm256_castsi256_ps(pow2n));
}

/// tanh(u) per lane as 1 - 2e/(1 + e) with e = e^{-2|u|} <= 1, signed like
/// u. e cannot overflow, and near |tanh| = 1, where GELU's backward reads
/// 1 - tanh^2, the result rounds once. Accurate to 1e-7 absolute, not
/// relative: GELU only ever adds the result to 1. |u| = inf gives e =
/// FLT_MIN and so exactly +-1, as std::tanh does.
inline __m256 tanh8(__m256 u) {
  const __m256 sign = _mm256_set1_ps(-0.f);
  const __m256 one = _mm256_set1_ps(1.f);
  const __m256 e =
      exp8(_mm256_mul_ps(_mm256_set1_ps(-2.f), _mm256_andnot_ps(sign, u)));
  const __m256 t = _mm256_sub_ps(
      one, _mm256_div_ps(_mm256_add_ps(e, e), _mm256_add_ps(one, e)));
  return _mm256_or_ps(t, _mm256_and_ps(sign, u));
}

/// tanh(kGeluC (x + kGeluB x^3)): the tanh both GELU directions read.
inline __m256 gelu_tanh8(__m256 x) {
  const __m256 x3 = _mm256_mul_ps(_mm256_mul_ps(x, x), x);
  const __m256 inner =
      _mm256_fmadd_ps(_mm256_set1_ps(fwd::kGeluB), x3, x);
  return tanh8(_mm256_mul_ps(_mm256_set1_ps(fwd::kGeluC), inner));
}

/// 0.5 x (1 + tanh(...)).
inline __m256 gelu8(__m256 x) {
  const __m256 t = gelu_tanh8(x);
  return _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.5f), x),
                       _mm256_add_ps(_mm256_set1_ps(1.f), t));
}

/// dx + dy * gelu'(x), gelu'(x) = 0.5 (1 + t) + 0.5 x (1 - t^2) du/dx.
inline __m256 gelu_backward8(__m256 x, __m256 dy, __m256 dx) {
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(1.f);
  const __m256 t = gelu_tanh8(x);
  const __m256 du = _mm256_mul_ps(
      _mm256_set1_ps(fwd::kGeluC),
      _mm256_fmadd_ps(_mm256_set1_ps(3.f * fwd::kGeluB),
                      _mm256_mul_ps(x, x), one));
  const __m256 d1 = _mm256_mul_ps(half, _mm256_add_ps(one, t));
  const __m256 d2 = _mm256_mul_ps(_mm256_mul_ps(half, x),
                                  _mm256_fnmadd_ps(t, t, one));
  return _mm256_fmadd_ps(dy, _mm256_fmadd_ps(d2, du, d1), dx);
}

}  // namespace

void softmax_row_avx2(const float* x, float* y, int d, float scale) {
  const int body = d & ~7;
  const int rest = d - body;
  const __m256i tail = tail_mask(rest);
  const __m256 keep = _mm256_castsi256_ps(tail);
  const __m256 neg_inf =
      _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  const __m256 vscale = _mm256_set1_ps(scale);
  // y = scale * x, rounded and stored before the exp pass reads it back, so
  // no FMA contraction can fuse the scaling into x * scale - max.
  __m256 vmax = neg_inf;
  for (int j = 0; j < body; j += 8) {
    const __m256 xs = _mm256_mul_ps(_mm256_loadu_ps(x + j), vscale);
    _mm256_storeu_ps(y + j, xs);
    vmax = _mm256_max_ps(vmax, xs);
  }
  if (rest > 0) {
    const __m256 xs =
        _mm256_mul_ps(_mm256_maskload_ps(x + body, tail), vscale);
    _mm256_maskstore_ps(y + body, tail, xs);
    vmax = _mm256_max_ps(vmax, _mm256_blendv_ps(neg_inf, xs, keep));
  }
  // A NaN may drop out of the max; it still reaches the sum through its own
  // exp below, and the sum carries it into every output, as in the scalar
  // loop.
  const __m256 mx = _mm256_set1_ps(hmax8(vmax));
  __m256 vsum = _mm256_setzero_ps();
  for (int j = 0; j < body; j += 8) {
    const __m256 e = exp8(_mm256_sub_ps(_mm256_loadu_ps(y + j), mx));
    _mm256_storeu_ps(y + j, e);
    vsum = _mm256_add_ps(vsum, e);
  }
  if (rest > 0) {
    const __m256 e = _mm256_and_ps(
        exp8(_mm256_sub_ps(_mm256_maskload_ps(y + body, tail), mx)), keep);
    _mm256_maskstore_ps(y + body, tail, e);
    vsum = _mm256_add_ps(vsum, e);
  }
  const __m256 sum = _mm256_set1_ps(hsum8(vsum));
  for (int j = 0; j < body; j += 8) {
    _mm256_storeu_ps(y + j, _mm256_div_ps(_mm256_loadu_ps(y + j), sum));
  }
  if (rest > 0) {
    _mm256_maskstore_ps(
        y + body, tail,
        _mm256_div_ps(_mm256_maskload_ps(y + body, tail), sum));
  }
}

void gelu_avx2(float* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, gelu8(_mm256_loadu_ps(x + i)));
  }
  if (i < n) {
    const __m256i tail = tail_mask(static_cast<int>(n - i));
    _mm256_maskstore_ps(x + i, tail, gelu8(_mm256_maskload_ps(x + i, tail)));
  }
}

void gelu_backward_avx2(const float* x, const float* dy, float* dx,
                        std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dx + i, gelu_backward8(_mm256_loadu_ps(x + i),
                                            _mm256_loadu_ps(dy + i),
                                            _mm256_loadu_ps(dx + i)));
  }
  if (i < n) {
    const __m256i tail = tail_mask(static_cast<int>(n - i));
    _mm256_maskstore_ps(dx + i, tail,
                        gelu_backward8(_mm256_maskload_ps(x + i, tail),
                                       _mm256_maskload_ps(dy + i, tail),
                                       _mm256_maskload_ps(dx + i, tail)));
  }
}

void layernorm_rows_avx2(int n, int d, const float* a, const float* gamma,
                         const float* beta, float eps, float* out, float* xhat,
                         float* inv_sigma) {
  const int body = d & ~7;
  const int rest = d - body;
  const __m256i tail = tail_mask(rest);
  const __m256 keep = _mm256_castsi256_ps(tail);
  const float df = static_cast<float>(d);
  for (int i = 0; i < n; ++i) {
    const std::size_t off = static_cast<std::size_t>(i) * d;
    const float* row = a + off;
    __m256 s = _mm256_setzero_ps();
    for (int j = 0; j < body; j += 8) {
      s = _mm256_add_ps(s, _mm256_loadu_ps(row + j));
    }
    if (rest > 0) s = _mm256_add_ps(s, _mm256_maskload_ps(row + body, tail));
    const __m256 mean = _mm256_set1_ps(hsum8(s) / df);
    __m256 q = _mm256_setzero_ps();
    for (int j = 0; j < body; j += 8) {
      const __m256 c = _mm256_sub_ps(_mm256_loadu_ps(row + j), mean);
      q = _mm256_fmadd_ps(c, c, q);
    }
    if (rest > 0) {
      const __m256 c = _mm256_and_ps(
          _mm256_sub_ps(_mm256_maskload_ps(row + body, tail), mean), keep);
      q = _mm256_fmadd_ps(c, c, q);
    }
    const float var = hsum8(q) / df;
    const float is = 1.f / std::sqrt(var + eps);
    if (inv_sigma != nullptr) inv_sigma[i] = is;
    const __m256 vis = _mm256_set1_ps(is);
    for (int j = 0; j < body; j += 8) {
      const __m256 xh =
          _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(row + j), mean), vis);
      if (xhat != nullptr) _mm256_storeu_ps(xhat + off + j, xh);
      _mm256_storeu_ps(out + off + j,
                       _mm256_fmadd_ps(_mm256_loadu_ps(gamma + j), xh,
                                       _mm256_loadu_ps(beta + j)));
    }
    if (rest > 0) {
      const __m256 xh = _mm256_mul_ps(
          _mm256_sub_ps(_mm256_maskload_ps(row + body, tail), mean), vis);
      if (xhat != nullptr) _mm256_maskstore_ps(xhat + off + body, tail, xh);
      _mm256_maskstore_ps(
          out + off + body, tail,
          _mm256_fmadd_ps(_mm256_maskload_ps(gamma + body, tail), xh,
                          _mm256_maskload_ps(beta + body, tail)));
    }
  }
}

void add_avx2(float* out, const float* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(out + i),
                                            _mm256_loadu_ps(b + i)));
  }
  if (i < n) {
    const __m256i tail = tail_mask(static_cast<int>(n - i));
    _mm256_maskstore_ps(out + i, tail,
                        _mm256_add_ps(_mm256_maskload_ps(out + i, tail),
                                      _mm256_maskload_ps(b + i, tail)));
  }
}

void add_rowvec_avx2(int n, int d, float* out, const float* b) {
  for (int i = 0; i < n; ++i) {
    add_avx2(out + static_cast<std::size_t>(i) * d, b,
             static_cast<std::size_t>(d));
  }
}

void relu_avx2(float* x, std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_max_ps(zero, _mm256_loadu_ps(x + i)));
  }
  if (i < n) {
    const __m256i tail = tail_mask(static_cast<int>(n - i));
    _mm256_maskstore_ps(x + i, tail,
                        _mm256_max_ps(zero, _mm256_maskload_ps(x + i, tail)));
  }
}

void mean_rows_avx2(int n, int d, const float* a, float* out) {
  const __m256 count = _mm256_set1_ps(static_cast<float>(n));
  for (int j = 0; j < d; j += 8) {
    const __m256i mask = tail_mask(std::min(8, d - j));
    __m256 sum = _mm256_maskload_ps(out + j, mask);
    for (int i = 0; i < n; ++i) {
      sum = _mm256_add_ps(
          sum, _mm256_maskload_ps(a + static_cast<std::size_t>(i) * d + j,
                                  mask));
    }
    _mm256_maskstore_ps(out + j, mask, _mm256_div_ps(sum, count));
  }
}

}  // namespace nettag::detail

#endif  // x86-64
