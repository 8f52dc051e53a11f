#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "nn/gemm.hpp"

namespace benchkit {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

bool supports_quantile(std::size_t samples, double q, std::size_t tail) {
  return static_cast<double>(samples) * (1.0 - q) >=
         static_cast<double>(tail);
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ss(line.substr(6));
      double kb = 0;
      ss >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += json_number(values[i]);
  }
  return out + "]";
}

std::string json_strings(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += json_quote(values[i]);
  }
  return out + "]";
}

JsonObj& JsonObj::num(const std::string& key, double value) {
  fields_.emplace_back(key, json_number(value));
  return *this;
}
JsonObj& JsonObj::integer(const std::string& key, long long value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}
JsonObj& JsonObj::str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, json_quote(value));
  return *this;
}
JsonObj& JsonObj::boolean(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}
JsonObj& JsonObj::obj(const std::string& key, const JsonObj& value) {
  fields_.emplace_back(key, value.dump());
  return *this;
}
JsonObj& JsonObj::raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string JsonObj::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i) out += ',';
    out += json_quote(fields_[i].first);
    out += ':';
    out += fields_[i].second;
  }
  return out + "}";
}

JsonObj metrics_json(const Metrics& metrics) {
  JsonObj out;
  for (const auto& [name, m] : metrics) {
    out.obj(name, JsonObj().num("value", m.value).str("unit", m.unit));
  }
  return out;
}

// --- tracing -----------------------------------------------------------------

int Tracer::begin(const char* name, std::int64_t request) {
  Span s;
  s.name = name;
  s.request = request;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::end(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, Tracer::LayerTime> Tracer::self_times() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double dur = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    LayerTime& t = out[spans_[i].name];
    t.total_ns += dur;
    t.self_ns += dur - child_ns[i];
    t.calls += 1;
  }
  return out;
}

void Tracer::write_ndjson(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << JsonObj()
               .integer("span", static_cast<long long>(i))
               .str("name", s.name)
               .integer("start_ns", s.start_ns)
               .integer("end_ns", s.end_ns)
               .integer("parent", s.parent)
               .integer("request", s.request)
               .dump()
        << '\n';
  }
}

// --- analytic FLOP counts ------------------------------------------------------

void text_encoder_shapes(const nettag::TextEncoderConfig& c, int tokens,
                         ShapeCounts* out) {
  const int l = std::max(1, std::min(tokens, c.max_len));
  const int dh = c.d_model / c.num_heads;
  for (int b = 0; b < c.num_layers; ++b) {
    (*out)[{l, c.d_model, c.d_model}] += 4;  // q, k, v, o projections
    (*out)[{l, dh, l}] += static_cast<std::uint64_t>(c.num_heads);  // scores
    (*out)[{l, l, dh}] += static_cast<std::uint64_t>(c.num_heads);  // attn*v
    (*out)[{l, c.d_model, c.d_ff}] += 1;
    (*out)[{l, c.d_ff, c.d_model}] += 1;
  }
  (*out)[{1, c.d_model, c.out_dim}] += 1;  // pooled projection
}

void tagformer_shapes(const nettag::NetTagConfig& c, int in_dim, int nodes,
                      ShapeCounts* out) {
  const int m = nodes + 1;  // gates plus the virtual CLS node
  const int d = c.tag_d_model;
  const int heads = 2;
  const int dh = d / heads;
  (*out)[{m, in_dim, d}] += 1;
  for (int l = 0; l < c.tag_layers; ++l) {
    (*out)[{m, d, d}] += 5;  // q, k, v, o and the GCN linear
    (*out)[{m, dh, m}] += heads;
    (*out)[{m, m, dh}] += heads;
    (*out)[{m, m, d}] += 1;  // adjacency propagation
  }
  (*out)[{m, 2 * d, c.out_dim}] += 1;
}

double shape_flops(const ShapeCounts& shapes) {
  double flops = 0;
  for (const auto& [shape, count] : shapes) {
    const auto [n, k, m] = shape;
    flops += 2.0 * n * k * m * static_cast<double>(count);
  }
  return flops;
}

double gemm_gflops(const ShapeCounts& shapes, int kind, int top,
                   double ms_per_shape) {
  std::vector<std::pair<double, GemmShape>> by_flops;
  for (const auto& [shape, count] : shapes) {
    const auto [n, k, m] = shape;
    by_flops.emplace_back(2.0 * n * k * m * static_cast<double>(count), shape);
  }
  std::sort(by_flops.begin(), by_flops.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  if (static_cast<int>(by_flops.size()) > top) by_flops.resize(top);
  double weight_total = 0, seconds_total = 0;
  for (const auto& [weight, shape] : by_flops) {
    const auto [n, k, m] = shape;
    std::vector<float> a(static_cast<std::size_t>(n) * k, 0.5f);
    std::vector<float> b(static_cast<std::size_t>(k) * m, 0.25f);
    std::vector<float> g(static_cast<std::size_t>(n) * m, 0.125f);
    std::vector<float> c(std::max({static_cast<std::size_t>(n) * m,
                                   static_cast<std::size_t>(n) * k,
                                   static_cast<std::size_t>(k) * m}),
                         0.f);
    const double flops = 2.0 * n * k * m;
    std::uint64_t reps = 0;
    const std::int64_t t0 = now_ns();
    std::int64_t t1 = t0;
    while (static_cast<double>(t1 - t0) < ms_per_shape * 1e6 || reps < 3) {
      if (kind == 0) {
        nettag::gemm_nn(n, k, m, a.data(), b.data(), c.data());
      } else if (kind == 1) {
        nettag::gemm_nt(n, k, m, g.data(), b.data(), c.data());
      } else {
        nettag::gemm_tn(n, k, m, a.data(), g.data(), c.data());
      }
      ++reps;
      t1 = now_ns();
    }
    const double per_call_s =
        static_cast<double>(t1 - t0) * 1e-9 / static_cast<double>(reps);
    // Weighted harmonic mean: time the mix would take at these rates.
    weight_total += weight;
    seconds_total += weight / flops * per_call_s;
  }
  return seconds_total > 0 ? weight_total / seconds_total * 1e-9 : 0.0;
}

}  // namespace benchkit
