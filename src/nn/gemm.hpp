// Dense fp32 GEMM kernels behind runtime CPU dispatch (docs/PERFORMANCE.md).
//
// The autograd matmul and its two backward contractions funnel every
// training step and every serve embed through these three kernels. Each has
// two implementations selected once per process:
//
//   * scalar — the original triple loops, kept verbatim: with the backend
//     forced to scalar (NETTAG_SIMD=0) results are bit-identical to the
//     pre-SIMD code at any thread width;
//   * avx2   — 8-lane FMA kernels compiled in a separate translation unit
//     with -mavx2 -mfma (nn/gemm_avx2.cpp) and only ever called after a
//     cpuid check. Row-partitioned exactly like the scalar loops, so results
//     are deterministic run-to-run at any width; they differ from scalar by
//     FMA rounding and dot-product reassociation only (see the agreement
//     tests in tests/gemm_test.cpp for the epsilon).
//
// Backend resolution: the NETTAG_SIMD environment variable if set
// ("0"/"scalar" force scalar; "1"/"avx2" request AVX2), otherwise the best
// the CPU supports. Requesting AVX2 on hardware without it falls back to
// scalar. Tests and benches may override at runtime with set_simd_backend().
//
// All kernels ACCUMULATE into the output (C += ...), matching the autograd
// use sites: the forward allocates a zeroed output, the backward adds into
// existing gradients. Parallelism: each kernel partitions its OUTPUT rows
// over the shared pool (util/parallel.hpp) with the same grain policy the
// scalar loops used, so each output element is written by exactly one task.
#pragma once

#include <string>

namespace nettag {

enum class SimdBackend {
  kScalar,  ///< portable reference loops (the pre-SIMD code paths)
  kAvx2,    ///< 8-lane fused-multiply-add kernels (x86-64 AVX2+FMA)
};

/// The backend every gemm_* call dispatches to (resolved on first use).
SimdBackend simd_backend();

/// True when the running CPU supports the AVX2+FMA kernels.
bool simd_avx2_supported();

/// Name for logs / the serve `stats` endpoint: "scalar" or "avx2".
const char* simd_backend_name(SimdBackend backend);
const char* simd_backend_name();  ///< name of the active backend

/// Runtime override for tests and benches (mirrors ThreadPool::set_width).
/// Returns false (and leaves the backend unchanged) when `backend` is not
/// supported on this CPU. Not thread-safe against concurrent gemm calls.
bool set_simd_backend(SimdBackend backend);

/// Parses a NETTAG_SIMD-style value: "0"/"scalar"/"off" -> scalar,
/// "1"/"avx2"/"on" -> AVX2 (capped at what the CPU supports). Unknown
/// values return `fallback` and, when `warning` is non-null, describe the
/// rejection there. Exposed for unit tests; dispatch uses it at startup.
SimdBackend parse_simd_backend(const char* text, SimdBackend fallback,
                               std::string* warning = nullptr);

// --- kernels (row-major, non-aliasing pointers) ------------------------------

/// C[n x m] += A[n x k] * B[k x m] — the forward matmul.
void gemm_nn(int n, int k, int m, const float* a, const float* b, float* c);

/// C[n x k] += G[n x m] * B^T, with B stored [k x m]:
/// C[i,p] += sum_j G[i,j] * B[p,j] — the dA backward contraction.
void gemm_nt(int n, int k, int m, const float* g, const float* b, float* c);

/// C[k x m] += A^T * G, with A stored [n x k]:
/// C[p,j] += sum_i A[i,p] * G[i,j] — the dB backward contraction.
void gemm_tn(int n, int k, int m, const float* a, const float* g, float* c);

/// OUT[m x n] = A[n x m]^T — cache-blocked transpose (out[j,i] = a[i,j]).
/// Overwrites `out` (no accumulate). Same bytes under every backend; the
/// blocking only changes the traversal order, not any arithmetic.
void transpose_mat(int n, int m, const float* a, float* out);

// --- internal: raw per-backend row-range kernels (gemm.cpp / gemm_avx2.cpp) --
namespace detail {
void gemm_nn_scalar(int i0, int i1, int k, int m, const float* a,
                    const float* b, float* c);
void gemm_nt_scalar(int i0, int i1, int k, int m, const float* g,
                    const float* b, float* c);
void gemm_tn_scalar(int p0, int p1, int n, int k, int m, const float* a,
                    const float* g, float* c);
// Compiled with -mavx2 -mfma; call only when simd_avx2_supported().
void gemm_nn_avx2(int i0, int i1, int k, int m, const float* a,
                  const float* b, float* c);
void gemm_nt_avx2(int i0, int i1, int k, int m, const float* g,
                  const float* b, float* c);
void gemm_tn_avx2(int p0, int p1, int n, int k, int m, const float* a,
                  const float* g, float* c);
}  // namespace detail

}  // namespace nettag
