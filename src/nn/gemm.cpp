#include "nn/gemm.hpp"

#include <cstdio>
#include <cstdlib>

namespace nettag {

// --- scalar reference kernels ------------------------------------------------
//
// These are the original nn/tensor.cpp loops (including the zero-skip
// sparsity shortcuts), with offsets formed in std::size_t so an operand past
// 2^31 elements cannot overflow them: under NETTAG_SIMD=0 every matmul result
// and gradient is bit-identical to the pre-SIMD code.

namespace detail {

void gemm_nn_scalar(int n, int k, int m, const float* a, int lda,
                    const float* b, int ldb, float* c, int ldc) {
  for (int i = 0; i < n; ++i) {
    for (int p = 0; p < k; ++p) {
      const float aip = a[static_cast<std::size_t>(i) * lda + p];
      if (aip == 0.f) continue;
      const float* brow = b + static_cast<std::size_t>(p) * ldb;
      float* crow = c + static_cast<std::size_t>(i) * ldc;
      for (int j = 0; j < m; ++j) crow[j] += aip * brow[j];
    }
  }
}

void gemm_nt_scalar(int n, int k, int m, const float* g, const float* b,
                    float* c) {
  for (int i = 0; i < n; ++i) {
    const float* grow = g + static_cast<std::size_t>(i) * m;
    float* crow = c + static_cast<std::size_t>(i) * k;
    for (int p = 0; p < k; ++p) {
      const float* brow = b + static_cast<std::size_t>(p) * m;
      float acc = 0.f;
      for (int j = 0; j < m; ++j) acc += grow[j] * brow[j];
      crow[p] += acc;
    }
  }
}

void gemm_tn_scalar(int n, int k, int m, const float* a, const float* g,
                    float* c) {
  for (int p = 0; p < k; ++p) {
    float* crow = c + static_cast<std::size_t>(p) * m;
    for (int i = 0; i < n; ++i) {
      const float aip = a[static_cast<std::size_t>(i) * k + p];
      if (aip == 0.f) continue;
      const float* grow = g + static_cast<std::size_t>(i) * m;
      for (int j = 0; j < m; ++j) crow[j] += aip * grow[j];
    }
  }
}

#if !defined(__x86_64__) && !defined(_M_X64)
// Non-x86 builds still link the avx2 symbols (dispatch never selects them).
void gemm_nn_avx2(int n, int k, int m, const float* a, int lda,
                  const float* b, int ldb, float* c, int ldc) {
  gemm_nn_scalar(n, k, m, a, lda, b, ldb, c, ldc);
}
void gemm_nt_avx2(int n, int k, int m, const float* g, const float* b,
                  float* c) {
  gemm_nt_scalar(n, k, m, g, b, c);
}
void gemm_tn_avx2(int n, int k, int m, const float* a, const float* g,
                  float* c) {
  gemm_tn_scalar(n, k, m, a, g, c);
}
// The row and element-wise kernels' scalar loops live in nn/forward.cpp,
// which only calls these when simd_backend() is AVX2: never on this
// architecture.
void softmax_row_avx2(const float*, float*, int, float) { std::abort(); }
void gelu_avx2(float*, std::size_t) { std::abort(); }
void gelu_backward_avx2(const float*, const float*, float*, std::size_t) {
  std::abort();
}
void layernorm_rows_avx2(int, int, const float*, const float*, const float*,
                         float, float*, float*, float*) {
  std::abort();
}
void add_avx2(float*, const float*, std::size_t) { std::abort(); }
void add_rowvec_avx2(int, int, float*, const float*) { std::abort(); }
void relu_avx2(float*, std::size_t) { std::abort(); }
void mean_rows_avx2(int, int, const float*, float*) { std::abort(); }
#endif

}  // namespace detail

// --- dispatch ----------------------------------------------------------------

bool simd_avx2_supported() {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

SimdBackend parse_simd_backend(const char* text, SimdBackend fallback,
                               std::string* warning) {
  if (text == nullptr) return fallback;
  const std::string v(text);
  if (v == "0" || v == "scalar" || v == "off") return SimdBackend::kScalar;
  if (v == "1" || v == "avx2" || v == "on") {
    if (simd_avx2_supported()) return SimdBackend::kAvx2;
    if (warning) {
      *warning = "NETTAG_SIMD='" + v +
                 "' requests AVX2 but the CPU lacks avx2+fma; using scalar";
    }
    return SimdBackend::kScalar;
  }
  if (warning) {
    *warning = "NETTAG_SIMD='" + v +
               "' not understood (want 0|scalar|off|1|avx2|on); ignored";
  }
  return fallback;
}

namespace {

SimdBackend resolve_backend() {
  const SimdBackend best =
      simd_avx2_supported() ? SimdBackend::kAvx2 : SimdBackend::kScalar;
  std::string warning;
  const SimdBackend chosen =
      parse_simd_backend(std::getenv("NETTAG_SIMD"), best, &warning);
  if (!warning.empty()) {
    std::fprintf(stderr, "nettag: %s\n", warning.c_str());
  }
  return chosen;
}

SimdBackend& active_backend() {
  static SimdBackend backend = resolve_backend();
  return backend;
}

}  // namespace

SimdBackend simd_backend() { return active_backend(); }

bool set_simd_backend(SimdBackend backend) {
  if (backend == SimdBackend::kAvx2 && !simd_avx2_supported()) return false;
  active_backend() = backend;
  return true;
}

const char* simd_backend_name(SimdBackend backend) {
  return backend == SimdBackend::kAvx2 ? "avx2" : "scalar";
}

const char* simd_backend_name() { return simd_backend_name(simd_backend()); }

// --- public kernels ----------------------------------------------------------

void gemm_nn(int n, int k, int m, const float* a, const float* b, float* c) {
  gemm_nn(n, k, m, a, k, b, m, c, m);
}

void gemm_nn(int n, int k, int m, const float* a, int lda, const float* b,
             int ldb, float* c, int ldc) {
  if (simd_backend() == SimdBackend::kAvx2) {
    detail::gemm_nn_avx2(n, k, m, a, lda, b, ldb, c, ldc);
  } else {
    detail::gemm_nn_scalar(n, k, m, a, lda, b, ldb, c, ldc);
  }
}

void gemm_nt(int n, int k, int m, const float* g, const float* b, float* c) {
  if (simd_backend() == SimdBackend::kAvx2) {
    detail::gemm_nt_avx2(n, k, m, g, b, c);
  } else {
    detail::gemm_nt_scalar(n, k, m, g, b, c);
  }
}

void gemm_tn(int n, int k, int m, const float* a, const float* g, float* c) {
  if (simd_backend() == SimdBackend::kAvx2) {
    detail::gemm_tn_avx2(n, k, m, a, g, c);
  } else {
    detail::gemm_tn_scalar(n, k, m, a, g, c);
  }
}

void transpose_mat(int n, int m, const float* a, float* out) {
  // 32x32 tiles keep one tile of the destination inside L1 while the source
  // is streamed row-wise; pure data movement, identical bytes per backend.
  constexpr int kTile = 32;
  for (int ib = 0; ib < n; ib += kTile) {
    const int ie = ib + kTile < n ? ib + kTile : n;
    for (int jb = 0; jb < m; jb += kTile) {
      const int je = jb + kTile < m ? jb + kTile : m;
      for (int i = ib; i < ie; ++i) {
        for (int j = jb; j < je; ++j) {
          out[static_cast<std::size_t>(j) * n + i] =
              a[static_cast<std::size_t>(i) * m + j];
        }
      }
    }
  }
}

}  // namespace nettag
