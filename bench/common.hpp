// Shared setup for the table/figure reproduction benches: builds the corpus,
// constructs and pre-trains NetTAG with fixed seeds so every bench is
// deterministic and self-contained.
#pragma once

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "core/pretrain.hpp"
#include "nn/gemm.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace nettag::bench {

struct Setup {
  Corpus corpus;
  std::unique_ptr<NetTag> model;
  Rng rng{0};
  PretrainReport pretrain_report;
};

/// Standard experiment setup. `designs_per_family` controls corpus size;
/// pass a customized PretrainOptions/NetTagConfig for ablation/scaling arms.
inline Setup make_setup(int designs_per_family = 6,
                        PretrainOptions pretrain_options = {},
                        NetTagConfig model_config = {},
                        std::uint64_t seed = 20250705) {
  Setup s;
  s.rng = Rng(seed);
  CorpusOptions co;
  co.designs_per_family = designs_per_family;
  Timer t;
  s.corpus = build_corpus(co, s.rng);
  std::printf("# corpus: %zu designs (%.1fs)\n", s.corpus.designs.size(),
              t.seconds());
  t.reset();
  s.model = std::make_unique<NetTag>(model_config, seed ^ 0xabcd);
  s.pretrain_report = pretrain(*s.model, s.corpus, pretrain_options, s.rng);
  std::printf(
      "# pretrain: expr loss %.3f -> %.3f (%zu exprs), tag loss %.3f -> %.3f "
      "(%zu cones), %.1fs\n",
      s.pretrain_report.expr_loss_first, s.pretrain_report.expr_loss_last,
      s.pretrain_report.expr_dataset_size, s.pretrain_report.tag_loss_first,
      s.pretrain_report.tag_loss_last, s.pretrain_report.cones_used,
      s.pretrain_report.seconds_step1 + s.pretrain_report.seconds_step2);
  return s;
}

/// The first "model name" line of /proc/cpuinfo, or "unknown".
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) {
      return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

inline std::string compiler_name() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// `text` as a JSON string literal (quotes and backslashes escaped).
inline std::string json_str(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// The `host` block of a BENCH_*.json snapshot: CPU, compiler, active SIMD
/// backend and thread-pool width.
inline std::string host_json() {
  return "{\"cpu\": " + json_str(cpu_model()) +
         ", \"compiler\": " + json_str(compiler_name()) +
         ", \"simd_backend\": \"" + simd_backend_name() +
         "\", \"pool_width\": " + std::to_string(parallel_width()) + "}";
}

}  // namespace nettag::bench
