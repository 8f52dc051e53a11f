// Component micro-benchmarks: throughput of the pipeline stages the paper's
// runtime analysis attributes cost to (Table VI discussion) plus the k-hop
// sweep behind the paper's footnote 3 ("we choose 2-hop to balance the
// expression expansion and runtime").
//
// The custom main first times the GEMM kernel backends, the row kernels
// (softmax, GELU, layer norm) and one layer's attention_heads head-to-head
// (scalar vs AVX2, docs/PERFORMANCE.md §4) and writes the machine-readable
// snapshot BENCH_micro_components.json, with a host block, to the working
// directory, then hands over to the google-benchmark suite for the
// pipeline-stage benches.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/nettag.hpp"
#include "core/tag.hpp"
#include "expr/tokenizer.hpp"
#include "expr/transform.hpp"
#include "netlist/aig.hpp"
#include "netlist/cone.hpp"
#include "nn/forward.hpp"
#include "nn/gemm.hpp"
#include "physical/flow.hpp"
#include "rtlgen/generator.hpp"
#include "util/timer.hpp"

using namespace nettag;

namespace {

const Netlist& sample_netlist() {
  static const Netlist nl = [] {
    Rng rng(99);
    return generate_design(family_profile("vexriscv"), rng, "micro").netlist;
  }();
  return nl;
}

void BM_KhopExpression(benchmark::State& state) {
  const Netlist& nl = sample_netlist();
  const int k = static_cast<int>(state.range(0));
  std::size_t total_size = 0, count = 0;
  for (auto _ : state) {
    for (const Gate& g : nl.gates()) {
      if (gate_class_of(g.type) < 0) continue;
      ExprPtr e = khop_expression(nl, g.id, k);
      total_size += e->size();
      ++count;
      benchmark::DoNotOptimize(e);
    }
  }
  state.counters["avg_expr_nodes"] =
      static_cast<double>(total_size) / static_cast<double>(std::max<std::size_t>(count, 1));
}
BENCHMARK(BM_KhopExpression)->Arg(1)->Arg(2)->Arg(3);

void BM_EquivalenceTransform(benchmark::State& state) {
  Rng rng(5);
  auto e = parse_expr("!((a^b)|((c&d)^!(a|d)))");
  for (auto _ : state) {
    benchmark::DoNotOptimize(random_equivalent(e, rng, 3));
  }
}
BENCHMARK(BM_EquivalenceTransform);

void BM_ConeChunking(benchmark::State& state) {
  const Netlist& nl = sample_netlist();
  for (auto _ : state) {
    benchmark::DoNotOptimize(extract_register_cones(nl, 120));
  }
}
BENCHMARK(BM_ConeChunking);

void BM_TagBuild(benchmark::State& state) {
  const Netlist& nl = sample_netlist();
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_tag(nl, 2));
  }
}
BENCHMARK(BM_TagBuild);

void BM_Tokenizer(benchmark::State& state) {
  const std::string text =
      "gate U3 type nor2 phys area b2 leak b3 expr U3 = !((R1^R2)|!R2)";
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenize_text(text));
  }
}
BENCHMARK(BM_Tokenizer);

void BM_ExprLlmEncode(benchmark::State& state) {
  static NetTag model(NetTagConfig{}, 7);
  const Netlist& nl = sample_netlist();
  const TagGraph tag = build_tag(nl, 2);
  for (auto _ : state) {
    model.clear_text_cache();
    benchmark::DoNotOptimize(model.input_features(tag, Mat()));
  }
  state.counters["gates"] = static_cast<double>(nl.size());
}
BENCHMARK(BM_ExprLlmEncode);

void BM_TagFormerForward(benchmark::State& state) {
  static NetTag model(NetTagConfig{}, 7);
  const Netlist& nl = sample_netlist();
  const TagGraph tag = build_tag(nl, 2);
  const Mat feats = model.input_features(tag, Mat());
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.forward_features(feats, tag.edges));
  }
  state.counters["nodes"] = static_cast<double>(nl.size());
}
BENCHMARK(BM_TagFormerForward);

void BM_PhysicalFlow(benchmark::State& state) {
  const Netlist& nl = sample_netlist();
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_physical_flow(nl, rng, /*optimize=*/false, 0.0,
                          static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_PhysicalFlow)->Arg(2)->Arg(8)->Arg(32);

void BM_AigConversion(benchmark::State& state) {
  const Netlist& nl = sample_netlist();
  for (auto _ : state) {
    benchmark::DoNotOptimize(to_aig(nl));
  }
}
BENCHMARK(BM_AigConversion);

// --- kernel head-to-heads (hand-rolled: they need backend switching) --------

constexpr int kReps = 15;

/// One call's time, in ns: the median, min and max over kReps repetitions.
struct Timing {
  double median_ns = 0.0, min_ns = 0.0, max_ns = 0.0;
};

/// Times `fn` after one warm-up call (first touch, dispatch resolution).
/// Each repetition makes enough calls for ~2 ms, so timer resolution is
/// noise.
template <typename Fn>
Timing time_calls(Fn&& fn) {
  fn();
  int calls = 1;
  for (Timer t; t.seconds() < 2e-3; ++calls) fn();
  std::vector<double> ns;
  for (int rep = 0; rep < kReps; ++rep) {
    Timer t;
    for (int c = 0; c < calls; ++c) fn();
    ns.push_back(t.seconds() * 1e9 / calls);
  }
  std::sort(ns.begin(), ns.end());
  return {ns[ns.size() / 2], ns.front(), ns.back()};
}

std::vector<SimdBackend> bench_backends() {
  std::vector<SimdBackend> backends{SimdBackend::kScalar};
  if (simd_avx2_supported()) backends.push_back(SimdBackend::kAvx2);
  return backends;
}

struct GemmResult {
  std::string kernel;   // "gemm_nn" | "gemm_nt" | "gemm_tn"
  std::string backend;  // "scalar" | "avx2"
  int n, k, m;
  Timing t;
  double gflops = 0.0;  // 2*n*k*m flops at the median time
};

Mat bench_mat(int rows, int cols, Rng& rng) {
  Mat x(rows, cols);
  for (float& v : x.v) v = static_cast<float>(rng.normal(0.0, 1.0));
  return x;
}

/// gemm_nn(n, k, m) shapes, each also run as gemm_nt(n, k, m) and
/// gemm_tn(n, k, m). The first three are wide panels without a column or
/// row tail. The rest are the products the encoders make per call, all but
/// one with a tail: the `base` text encoder on a 33-token attribute
/// (d_model 48, 4 heads of 12; scores, P*V, a projection, the FFN's first
/// layer) and TAGFormer on a 16-gate cone plus CLS (d_model 64, 2 heads of
/// 32; scores, P*V, a projection on 18 rows, the adjacency product).
const struct { int n, k, m; } kGemmShapes[] = {
    {64, 64, 64}, {256, 128, 128}, {512, 64, 256}, {33, 12, 33},
    {33, 33, 12}, {33, 48, 48},    {33, 48, 96},   {17, 32, 17},
    {17, 17, 32}, {18, 64, 64},    {18, 18, 64}};

std::vector<GemmResult> run_gemm_benches() {
  std::vector<GemmResult> out;
  Rng rng(42);
  const SimdBackend saved = simd_backend();
  for (const auto& s : kGemmShapes) {
    const Mat a = bench_mat(s.n, s.k, rng);
    const Mat b = bench_mat(s.k, s.m, rng);
    const Mat g = bench_mat(s.n, s.m, rng);
    const double flops = 2.0 * s.n * s.k * s.m;
    for (SimdBackend backend : bench_backends()) {
      set_simd_backend(backend);
      const char* name = simd_backend_name(backend);
      Mat c(s.n, s.m), ca(s.n, s.k), cb(s.k, s.m);
      auto add = [&](const char* kernel, const Timing& t) {
        out.push_back({kernel, name, s.n, s.k, s.m, t,
                       flops / t.median_ns});
      };
      add("gemm_nn", time_calls([&] {
            gemm_nn(s.n, s.k, s.m, a.v.data(), b.v.data(), c.v.data());
          }));
      add("gemm_nt", time_calls([&] {
            gemm_nt(s.n, s.k, s.m, g.v.data(), b.v.data(), ca.v.data());
          }));
      add("gemm_tn", time_calls([&] {
            gemm_tn(s.n, s.k, s.m, a.v.data(), g.v.data(), cb.v.data());
          }));
    }
  }
  set_simd_backend(saved);
  return out;
}

/// Geometric-mean AVX2/scalar speedup for one kernel across shapes.
double speedup_of(const std::vector<GemmResult>& rs, const std::string& kernel) {
  double log_sum = 0.0;
  int pairs = 0;
  for (const GemmResult& r : rs) {
    if (r.kernel != kernel || r.backend != "avx2") continue;
    for (const GemmResult& s : rs) {
      if (s.kernel == kernel && s.backend == "scalar" && s.n == r.n &&
          s.k == r.k && s.m == r.m && s.gflops > 0) {
        log_sum += std::log(r.gflops / s.gflops);
        ++pairs;
      }
    }
  }
  return pairs ? std::exp(log_sum / pairs) : 0.0;
}

// --- row kernels (nn/forward.hpp): the encoders' non-GEMM time ---------------

struct RowResult {
  std::string kernel;   // "softmax_row" | "gelu" | "layernorm_rows"
  std::string backend;  // "scalar" | "avx2"
  int rows, cols;
  Timing t;                   // per call
  double max_abs_diff = 0.0;  // against the scalar backend's output
};

/// Shapes of one encoder call: a head's N x N softmax and a layer norm of
/// TAGFormer on a 16-gate cone plus CLS (17 rows, d_model 64), and of the
/// default (`base`) text encoder on a 33-token attribute (d_model 48), whose
/// FFN GELU is 33 x d_ff 96.
const struct { const char* kernel; int rows, cols; } kRowShapes[] = {
    {"softmax_row", 17, 17},    {"softmax_row", 33, 33}, {"gelu", 33, 96},
    {"layernorm_rows", 17, 64}, {"layernorm_rows", 33, 48}};

/// One kernel call on `in` into `out`, as the encoders make it: softmax
/// over every row, GELU in place (on a copy of `in`, which the timing
/// includes), layer norm without the backward's xhat.
void run_row_kernel(const std::string& kernel, const Mat& in, const Mat& gamma,
                    const Mat& beta, Mat& out) {
  if (kernel == "softmax_row") {
    for (int i = 0; i < in.rows; ++i) {
      fwd::softmax_row(in.v.data() + static_cast<std::size_t>(i) * in.cols,
                       out.v.data() + static_cast<std::size_t>(i) * in.cols,
                       in.cols);
    }
  } else if (kernel == "gelu") {
    std::copy(in.v.begin(), in.v.end(), out.v.begin());
    fwd::gelu(out);
  } else {
    fwd::layernorm_rows(in, gamma, beta, 1e-5f, out, nullptr, nullptr);
  }
}

std::vector<RowResult> run_row_benches() {
  std::vector<RowResult> out;
  Rng rng(43);
  const SimdBackend saved = simd_backend();
  for (const auto& s : kRowShapes) {
    const std::string kernel = s.kernel;
    const Mat in = bench_mat(s.rows, s.cols, rng);
    const Mat gamma = bench_mat(1, s.cols, rng);
    const Mat beta = bench_mat(1, s.cols, rng);
    Mat scalar_out(s.rows, s.cols);
    for (SimdBackend backend : bench_backends()) {
      set_simd_backend(backend);
      Mat o(s.rows, s.cols);
      run_row_kernel(kernel, in, gamma, beta, o);  // reference output
      RowResult r{kernel, simd_backend_name(backend), s.rows, s.cols, {}, 0.0};
      if (backend == SimdBackend::kScalar) {
        scalar_out = o;
      } else {
        for (std::size_t i = 0; i < o.v.size(); ++i) {
          r.max_abs_diff = std::max(
              r.max_abs_diff,
              static_cast<double>(std::fabs(o.v[i] - scalar_out.v[i])));
        }
      }
      r.t = time_calls([&] { run_row_kernel(kernel, in, gamma, beta, o); });
      out.push_back(r);
    }
  }
  set_simd_backend(saved);
  return out;
}

// --- fwd::attention_heads: one layer's heads, as MultiHeadAttention::infer --

struct AttentionResult {
  std::string backend;  // "scalar" | "avx2"
  int n, d, heads;
  Timing t;  // per call
};

/// The `base` text encoder on a 33-token attribute and TAGFormer on a
/// 16-gate cone plus CLS.
const struct { int n, d, heads; } kAttentionShapes[] = {{33, 48, 4},
                                                        {17, 64, 2}};

std::vector<AttentionResult> run_attention_benches() {
  std::vector<AttentionResult> out;
  Rng rng(44);
  const SimdBackend saved = simd_backend();
  for (const auto& s : kAttentionShapes) {
    const Mat q = bench_mat(s.n, s.d, rng);
    const Mat k = bench_mat(s.n, s.d, rng);
    const Mat v = bench_mat(s.n, s.d, rng);
    for (SimdBackend backend : bench_backends()) {
      set_simd_backend(backend);
      Mat heads(s.n, s.d);
      out.push_back({simd_backend_name(backend), s.n, s.d, s.heads,
                     time_calls([&] {
                       fwd::attention_heads(q, k, v, s.heads, heads, nullptr);
                     })});
    }
  }
  set_simd_backend(saved);
  return out;
}

/// "median_ns": ..., "min_ns": ..., "max_ns": ... of one timing.
std::string timing_json(const Timing& t) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "\"median_ns\": %.0f, \"min_ns\": %.0f, \"max_ns\": %.0f",
                t.median_ns, t.min_ns, t.max_ns);
  return buf;
}

void write_json(const std::vector<GemmResult>& rs,
                const std::vector<RowResult>& rows,
                const std::vector<AttentionResult>& attention) {
  std::ofstream json("BENCH_micro_components.json");
  json << "{\n  \"bench\": \"micro_components\",\n  \"host\": "
       << bench::host_json() << ",\n  \"simd_supported\": "
       << (simd_avx2_supported() ? "true" : "false")
       << ",\n  \"default_backend\": \"" << simd_backend_name()
       << "\",\n  \"repetitions\": " << kReps << ",\n  \"gemm\": [";
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const GemmResult& r = rs[i];
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", r.gflops);
    json << (i ? "," : "") << "\n    {\"kernel\": \"" << r.kernel
         << "\", \"backend\": \"" << r.backend << "\", \"n\": " << r.n
         << ", \"k\": " << r.k << ", \"m\": " << r.m << ", "
         << timing_json(r.t) << ", \"gflops\": " << buf << "}";
  }
  char nn[32], nt[32], tn[32];
  std::snprintf(nn, sizeof(nn), "%.2f", speedup_of(rs, "gemm_nn"));
  std::snprintf(nt, sizeof(nt), "%.2f", speedup_of(rs, "gemm_nt"));
  std::snprintf(tn, sizeof(tn), "%.2f", speedup_of(rs, "gemm_tn"));
  json << "\n  ],\n  \"avx2_speedup_geomean\": {\"gemm_nn\": " << nn
       << ", \"gemm_nt\": " << nt << ", \"gemm_tn\": " << tn << "},\n"
       << "  \"row_kernels\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RowResult& r = rows[i];
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.3g", r.max_abs_diff);
    json << (i ? "," : "") << "\n    {\"kernel\": \"" << r.kernel
         << "\", \"backend\": \"" << r.backend << "\", \"rows\": " << r.rows
         << ", \"cols\": " << r.cols << ", " << timing_json(r.t)
         << ", \"max_abs_diff\": " << buf << "}";
  }
  json << "\n  ],\n  \"attention_heads\": [";
  for (std::size_t i = 0; i < attention.size(); ++i) {
    const AttentionResult& r = attention[i];
    json << (i ? "," : "") << "\n    {\"backend\": \"" << r.backend
         << "\", \"n\": " << r.n << ", \"d\": " << r.d
         << ", \"heads\": " << r.heads << ", " << timing_json(r.t) << "}";
  }
  json << "\n  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<GemmResult> gemm = run_gemm_benches();
  for (const GemmResult& r : gemm) {
    std::printf("# %-8s %-6s %3dx%3dx%3d  median %9.0f ns [%9.0f, %9.0f]  "
                "%7.2f GFLOP/s\n",
                r.kernel.c_str(), r.backend.c_str(), r.n, r.k, r.m,
                r.t.median_ns, r.t.min_ns, r.t.max_ns, r.gflops);
  }
  if (simd_avx2_supported()) {
    std::printf("# avx2/scalar geomean speedup: nn %.2fx nt %.2fx tn %.2fx\n",
                speedup_of(gemm, "gemm_nn"), speedup_of(gemm, "gemm_nt"),
                speedup_of(gemm, "gemm_tn"));
  }
  const std::vector<RowResult> rows = run_row_benches();
  for (const RowResult& r : rows) {
    std::printf("# %-14s %-6s %3dx%-3d median %9.0f ns [%9.0f, %9.0f]  "
                "max|d| %.3g\n",
                r.kernel.c_str(), r.backend.c_str(), r.rows, r.cols,
                r.t.median_ns, r.t.min_ns, r.t.max_ns, r.max_abs_diff);
  }
  const std::vector<AttentionResult> attention = run_attention_benches();
  for (const AttentionResult& r : attention) {
    std::printf("# attention_heads %-6s n %2d d %2d heads %d  median %9.0f ns "
                "[%9.0f, %9.0f]\n",
                r.backend.c_str(), r.n, r.d, r.heads, r.t.median_ns,
                r.t.min_ns, r.t.max_ns);
  }
  write_json(gemm, rows, attention);
  std::printf("# JSON written to BENCH_micro_components.json\n");

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
