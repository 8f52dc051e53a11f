// Forward kernels: the value arithmetic of the autograd ops the encoders use,
// one function per op, on plain matrices.
//
// The autograd op in nn/tensor.cpp calls the kernel and wraps the result in a
// graph node; the value-only inference path (Linear::infer ...
// TagFormer::infer, TextEncoder::infer_ids) calls the same kernel and keeps
// no graph. Sharing the function is what makes the two paths bit-identical
// under every SIMD backend. Kernels never fork: they run serially on the
// calling thread, so no pool width changes their bytes.
//
// softmax_row, gelu and layernorm_rows (and the gelu op's backward) dispatch
// on simd_backend() (nn/gemm.hpp), like the GEMMs: the scalar loops in
// forward.cpp are the byte-exact reference (NETTAG_SIMD=0), and the AVX2
// forms in nn/gemm_avx2.cpp drift from them only within the per-kernel
// budget of docs/PERFORMANCE.md §2. add, add_rowvec, relu and mean_rows
// dispatch too, but their AVX2 forms write the scalar loops' values.
//
// The caller allocates each output at the shape the kernel documents. Every
// kernel checks its shape contract with NETTAG_CHECK before it writes. The
// autograd ops scan each output for NaN/Inf in deep-check mode (make_op);
// value-path callers run the same scan through scan_output, naming the same
// op, so a non-finite value fails both paths at the same op.
#pragma once

#include <vector>

#include "nn/tensor.hpp"

namespace nettag::fwd {

/// Deep-check mode (NETTAG_CHECK=1): throws CheckError naming `op` at the
/// first non-finite element of `m`. Does nothing when deep checks are off.
void scan_output(const Mat& m, const char* op);

/// out += a * b, for out presized to a.rows x b.cols (the forward allocates
/// it zeroed).
void matmul(const Mat& a, const Mat& b, Mat& out);

/// out += b elementwise; out and b share one shape. `out` holds a copy of the
/// op's first operand.
void add(Mat& out, const Mat& b);

/// Adds the 1 x D row `b` to every row of the N x D `out`.
void add_rowvec(Mat& out, const Mat& b);

/// x = max(x, 0) elementwise, in place.
void relu(Mat& x);

/// GELU tanh-approximation constants, shared with gelu's backward.
constexpr float kGeluC = 0.7978845608f;  // sqrt(2/pi)
constexpr float kGeluB = 0.044715f;

/// x = 0.5 x (1 + tanh(kGeluC (x + kGeluB x^3))) elementwise, in place.
void gelu(Mat& x);

/// out (1 x D, zeroed) = the mean of a's N rows.
void mean_rows(const Mat& a, Mat& out);

/// y = softmax(scale * x) over one row of d >= 1 values; y may alias x.
/// scale * x is rounded once, as a separate multiply would round it. The
/// one softmax kernel, shared by softmax_rows and attention_heads (which
/// passes 1/sqrt(dh)).
void softmax_row(const float* x, float* y, int d, float scale = 1.f);

/// out (N x D) = gamma * (a - mean) / sqrt(var + eps) + beta, per row. When
/// non-null, `xhat` (N x D) receives the normalized rows and `inv_sigma` (N
/// floats) each row's 1/sqrt(var + eps), which the backward reads.
void layernorm_rows(const Mat& a, const Mat& gamma, const Mat& beta, float eps,
                    Mat& out, Mat* xhat, float* inv_sigma);

/// Copies head h's column block of the N x D matrix `m` into the contiguous
/// N x dh buffer `out`: the head layout of attention_heads' backward.
void copy_head(const Mat& m, int h, int dh, float* out);

/// Scaled dot-product self-attention over every head (see attention_heads in
/// nn/tensor.hpp) into out (N x D), which it overwrites. When `probs` is
/// non-null it receives head h's N x N probabilities at rows [h*N, (h+1)*N),
/// which the backward reads; when null, each head's probabilities live only
/// in scratch.
void attention_heads(const Mat& q, const Mat& k, const Mat& v, int num_heads,
                     Mat& out, float* probs);

/// out (ids.size() x D) = the rows of `table` (V x D) named by `ids`. Every
/// id must index a row of the table.
void embedding(const Mat& table, const std::vector<int>& ids, Mat& out);

}  // namespace nettag::fwd
