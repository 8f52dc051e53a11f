// Shared helpers for the repository benchmark: clocks, sample statistics,
// a small ordered JSON writer, the span tracer, analytic FLOP counts and the
// GEMM shape microbenchmark.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/nettag.hpp"

namespace benchkit {

/// Monotonic nanoseconds (std::chrono::steady_clock).
std::int64_t now_ns();

/// Sample quantile by linear interpolation (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// True when `samples` leave at least `tail` samples beyond quantile `q`
/// (a p99 needs 1000 samples for 10 beyond it).
bool supports_quantile(std::size_t samples, double q, std::size_t tail = 10);

/// Peak resident set (VmHWM) of a process in MiB; `pid` 0 = this process.
double peak_rss_mb(int pid = 0);

/// Ordered JSON object writer (keys keep insertion order).
class JsonObj {
 public:
  JsonObj& num(const std::string& key, double value);
  JsonObj& integer(const std::string& key, long long value);
  JsonObj& str(const std::string& key, const std::string& value);
  JsonObj& boolean(const std::string& key, bool value);
  JsonObj& obj(const std::string& key, const JsonObj& value);
  JsonObj& raw(const std::string& key, const std::string& json);
  std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string json_quote(const std::string& s);
/// Shortest exact text of a number ("null" when not finite).
std::string json_number(double v);
std::string json_array(const std::vector<double>& values);
std::string json_strings(const std::vector<std::string>& values);

/// A metric as reported: value plus unit.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;
JsonObj metrics_json(const Metrics& metrics);

// --- tracing -----------------------------------------------------------------

/// In-memory span recorder for the single-threaded in-process replays. Spans
/// carry name, start, end, parent index and request id; they are written out
/// only when the run ends. A disabled tracer records nothing, which is how
/// the untraced pass of the same replay measures the tracing overhead.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::int64_t request = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int begin(const char* name, std::int64_t request);
  void end(int index);

  const std::vector<Span>& spans() const { return spans_; }

  struct LayerTime {
    double self_ns = 0;
    double total_ns = 0;
    std::uint64_t calls = 0;
  };
  /// Self time per span name: a span's duration minus the part of it its
  /// children cover.
  std::map<std::string, LayerTime> self_times() const;

  /// Writes every span as one NDJSON line.
  void write_ndjson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::int64_t request)
      : tracer_(tracer),
        index_(tracer.enabled() ? tracer.begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer_.end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

// --- analytic FLOP counts ------------------------------------------------------

/// Forward matmul shapes (n, k, m) = C[n x m] += A[n x k] B[k x m].
using GemmShape = std::tuple<int, int, int>;
using ShapeCounts = std::map<GemmShape, std::uint64_t>;

/// Matmul shapes one ExprLLM encode of `tokens` tokens issues.
void text_encoder_shapes(const nettag::TextEncoderConfig& c, int tokens,
                         ShapeCounts* out);
/// Matmul shapes one TAGFormer forward over `nodes` gates issues.
void tagformer_shapes(const nettag::NetTagConfig& c, int in_dim, int nodes,
                      ShapeCounts* out);
double shape_flops(const ShapeCounts& shapes);

/// Achieved GFLOP/s of one kernel over the given shape mix, weighted by each
/// shape's FLOP share. Times the `top` shapes carrying most FLOPs, each for
/// about `ms_per_shape` milliseconds. kind: 0 = gemm_nn, 1 = gemm_nt (dA of
/// the forward shape), 2 = gemm_tn (dB of the forward shape).
double gemm_gflops(const ShapeCounts& shapes, int kind, int top = 8,
                   double ms_per_shape = 15.0);

}  // namespace benchkit
