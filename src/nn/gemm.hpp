// Dense fp32 GEMM kernels behind runtime CPU dispatch (docs/PERFORMANCE.md).
//
// The autograd matmul and its two backward contractions funnel every
// training step and every serve embed through these three kernels. Each has
// two implementations selected once per process:
//
//   * scalar — the original triple loops, with offsets formed in
//     std::size_t: with the backend forced to scalar (NETTAG_SIMD=0) results
//     are bit-identical to the pre-SIMD code;
//   * avx2   — 8-lane FMA kernels compiled in a separate translation unit
//     with -mavx2 -mfma (nn/gemm_avx2.cpp) and only ever called after a
//     cpuid check. Deterministic run-to-run; they differ from scalar by
//     FMA rounding and dot-product reassociation only (see the agreement
//     tests in tests/gemm_test.cpp for the epsilon).
//
// The same backend also selects the three row kernels of nn/forward.hpp
// (softmax_row, gelu with its backward, layernorm_rows). Their AVX2 forms
// live in the same translation unit (declared in `detail` below) and drift
// from the scalar loops within the per-kernel budget of
// docs/PERFORMANCE.md §2; the scalar loops stay the byte-exact reference.
// It selects the element-wise kernels too (add, add_rowvec, relu,
// mean_rows), whose AVX2 forms give every output by the same one IEEE
// operation on the same operands as the scalar loop, so both backends
// write the same bytes, except which NaN an add returns when both of its
// operands are NaNs: IEEE 754 leaves that open, and a compiler may order
// a scalar add's operands either way.
//
// Backend resolution: the NETTAG_SIMD environment variable if set
// ("0"/"scalar" force scalar; "1"/"avx2" request AVX2), otherwise the best
// the CPU supports. Requesting AVX2 on hardware without it falls back to
// scalar. Tests and benches may override at runtime with set_simd_backend().
//
// All kernels ACCUMULATE into the output (C += ...), matching the autograd
// use sites: the forward allocates a zeroed output, the backward adds into
// existing gradients. Every kernel runs serially on its calling thread;
// parallelism lives one level up, over independent items (util/parallel.hpp).
#pragma once

#include <cstddef>
#include <string>

namespace nettag {

enum class SimdBackend {
  kScalar,  ///< portable reference loops (the pre-SIMD code paths)
  kAvx2,    ///< 8-lane fused-multiply-add kernels (x86-64 AVX2+FMA)
};

/// The backend every gemm_* call and row kernel dispatches to (resolved on
/// first use).
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

/// gemm_nn on operands with leading dimensions: row i of A starts at
/// a + i*lda, row p of B at b + p*ldb and row i of C at c + i*ldc
/// (lda >= k, ldb >= m, ldc >= m). Each output gets the same arithmetic as
/// in the contiguous call, so attention_heads reads and writes one head's
/// column block in place through it.
void gemm_nn(int n, int k, int m, const float* a, int lda, const float* b,
             int ldb, float* c, int ldc);

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

// --- internal: raw per-backend kernels (gemm.cpp / gemm_avx2.cpp) -----------
// Same shapes and contracts as the public kernels above; the gemm_nn pair
// takes the leading dimensions of the strided overload.
namespace detail {
void gemm_nn_scalar(int n, int k, int m, const float* a, int lda,
                    const float* b, int ldb, float* c, int ldc);
void gemm_nt_scalar(int n, int k, int m, const float* g, const float* b,
                    float* c);
void gemm_tn_scalar(int n, int k, int m, const float* a, const float* g,
                    float* c);
// Compiled with -mavx2 -mfma; call only when simd_avx2_supported().
void gemm_nn_avx2(int n, int k, int m, const float* a, int lda,
                  const float* b, int ldb, float* c, int ldc);
void gemm_nt_avx2(int n, int k, int m, const float* g, const float* b,
                  float* c);
void gemm_tn_avx2(int n, int k, int m, const float* a, const float* g,
                  float* c);

// AVX2 forms of the nn/forward.hpp row kernels (same translation unit, same
// cpuid rule). Tails run through masked lanes, never a scalar loop.
/// fwd::softmax_row: y = softmax(scale * x) over d >= 1 values; y may
/// alias x.
void softmax_row_avx2(const float* x, float* y, int d, float scale);
/// fwd::gelu on x[0..n), in place.
void gelu_avx2(float* x, std::size_t n);
/// The gelu op's backward on [0..n): dx += dy * gelu'(x), with the tanh of
/// gelu_avx2.
void gelu_backward_avx2(const float* x, const float* dy, float* dx,
                        std::size_t n);
/// fwd::layernorm_rows on the n rows of the row-major n x d matrix `a`;
/// `xhat` and `inv_sigma` may be null.
void layernorm_rows_avx2(int n, int d, const float* a, const float* gamma,
                         const float* beta, float eps, float* out, float* xhat,
                         float* inv_sigma);
// AVX2 forms of the element-wise kernels of nn/forward.hpp: the same
// values as their scalar loops (see the top of this file).
/// fwd::add: out[0..n) += b[0..n).
void add_avx2(float* out, const float* b, std::size_t n);
/// fwd::add_rowvec: each of the n rows of the row-major n x d `out` += b.
void add_rowvec_avx2(int n, int d, float* out, const float* b);
/// fwd::relu on x[0..n), in place: max(x, 0), which keeps NaN and -0.
void relu_avx2(float* x, std::size_t n);
/// fwd::mean_rows: out[0..d) += the n rows of the row-major n x d `a`, in
/// ascending row order, then out /= n.
void mean_rows_avx2(int n, int d, const float* a, float* out);
}  // namespace detail

}  // namespace nettag
