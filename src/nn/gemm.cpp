#include "nn/gemm.hpp"

#include <cstdio>
#include <cstdlib>

#include "util/parallel.hpp"

namespace nettag {

// --- scalar reference kernels ------------------------------------------------
//
// These are the original nn/tensor.cpp loops, moved verbatim (including the
// zero-skip sparsity shortcuts): under NETTAG_SIMD=0 every matmul result and
// gradient is bit-identical to the pre-SIMD code.

namespace detail {

void gemm_nn_scalar(int i0, int i1, int k, int m, const float* a,
                    const float* b, float* c) {
  for (int i = i0; i < i1; ++i) {
    for (int p = 0; p < k; ++p) {
      const float aip = a[i * k + p];
      if (aip == 0.f) continue;
      const float* brow = b + p * m;
      float* crow = c + i * m;
      for (int j = 0; j < m; ++j) crow[j] += aip * brow[j];
    }
  }
}

void gemm_nt_scalar(int i0, int i1, int k, int m, const float* g,
                    const float* b, float* c) {
  for (int i = i0; i < i1; ++i) {
    for (int p = 0; p < k; ++p) {
      const float* brow = b + p * m;
      const float* grow = g + i * m;
      float acc = 0.f;
      for (int j = 0; j < m; ++j) acc += grow[j] * brow[j];
      c[i * k + p] += acc;
    }
  }
}

void gemm_tn_scalar(int p0, int p1, int n, int k, int m, const float* a,
                    const float* g, float* c) {
  for (int p = p0; p < p1; ++p) {
    float* crow = c + p * m;
    for (int i = 0; i < n; ++i) {
      const float aip = a[i * k + p];
      if (aip == 0.f) continue;
      const float* grow = g + i * m;
      for (int j = 0; j < m; ++j) crow[j] += aip * grow[j];
    }
  }
}

#if !defined(__x86_64__) && !defined(_M_X64)
// Non-x86 builds still link the avx2 symbols (dispatch never selects them).
void gemm_nn_avx2(int i0, int i1, int k, int m, const float* a, const float* b,
                  float* c) {
  gemm_nn_scalar(i0, i1, k, m, a, b, c);
}
void gemm_nt_avx2(int i0, int i1, int k, int m, const float* g, const float* b,
                  float* c) {
  gemm_nt_scalar(i0, i1, k, m, g, b, c);
}
void gemm_tn_avx2(int p0, int p1, int n, int k, int m, const float* a,
                  const float* g, float* c) {
  gemm_tn_scalar(p0, p1, n, k, m, a, g, c);
}
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
//
// Row-partitioned over the shared pool exactly like the old in-place loops:
// each output row is owned by one task, so any fixed backend is
// deterministic at any thread width.

void gemm_nn(int n, int k, int m, const float* a, const float* b, float* c) {
  const bool avx2 = simd_backend() == SimdBackend::kAvx2;
  const std::size_t row_cost = static_cast<std::size_t>(k) * m;
  parallel_for(static_cast<std::size_t>(n), par::grain(row_cost, par::kMinOps),
               [=](std::size_t i0, std::size_t i1) {
                 if (avx2) {
                   detail::gemm_nn_avx2(static_cast<int>(i0),
                                        static_cast<int>(i1), k, m, a, b, c);
                 } else {
                   detail::gemm_nn_scalar(static_cast<int>(i0),
                                          static_cast<int>(i1), k, m, a, b, c);
                 }
               });
}

void gemm_nt(int n, int k, int m, const float* g, const float* b, float* c) {
  const bool avx2 = simd_backend() == SimdBackend::kAvx2;
  const std::size_t row_cost = static_cast<std::size_t>(k) * m;
  parallel_for(static_cast<std::size_t>(n), par::grain(row_cost, par::kMinOps),
               [=](std::size_t i0, std::size_t i1) {
                 if (avx2) {
                   detail::gemm_nt_avx2(static_cast<int>(i0),
                                        static_cast<int>(i1), k, m, g, b, c);
                 } else {
                   detail::gemm_nt_scalar(static_cast<int>(i0),
                                          static_cast<int>(i1), k, m, g, b, c);
                 }
               });
}

void gemm_tn(int n, int k, int m, const float* a, const float* g, float* c) {
  const bool avx2 = simd_backend() == SimdBackend::kAvx2;
  const std::size_t row_cost = static_cast<std::size_t>(n) * m;
  parallel_for(static_cast<std::size_t>(k), par::grain(row_cost, par::kMinOps),
               [=](std::size_t p0, std::size_t p1) {
                 if (avx2) {
                   detail::gemm_tn_avx2(static_cast<int>(p0),
                                        static_cast<int>(p1), n, k, m, a, g, c);
                 } else {
                   detail::gemm_tn_scalar(static_cast<int>(p0),
                                          static_cast<int>(p1), n, k, m, a, g,
                                          c);
                 }
               });
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
