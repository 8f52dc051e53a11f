// nettag_lint — standalone lint driver for NetTAG datasets (CI gate).
//
// Modes:
//   nettag_lint [flags] <path>...      lint serialized .nl netlists (a
//                                      directory is expanded to its *.nl
//                                      files, recursively)
//   nettag_lint [flags] --generate D   generate a small corpus with the
//                                      real pipeline, dump the design
//                                      netlists into D, and lint the full
//                                      in-memory corpus (cones, TAGs,
//                                      layout graphs, labels included)
//   nettag_lint [flags] --shards D     validate and lint a sharded corpus
//                                      directory (core/corpus_stream.hpp):
//                                      manifest + per-shard checksums, then
//                                      the full corpus rules shard by shard
//                                      (one shard in RAM at a time)
//   nettag_lint --rules                print the rule catalog and exit
//   nettag_lint --tape                 record one training step per shipped
//                                      model config, dump the autograd tapes
//                                      with live ranges and arena offsets,
//                                      and fail unless every memory plan
//                                      passes the independent verifier
//
// Flags:
//   --json           machine-readable report on stdout
//   --deep           enable semantic rules (TG004 cone/expression match)
//   --max-fanout N   NL007 bound (default 64)
//   --disable RULE   skip a rule id (repeatable)
//   --designs N      designs per family for --generate (default 1)
//   --seed S         generation seed (default 0x5eed)
//   --no-physical    skip the physical flow in --generate (no layout/labels)
//
// Exit codes: 0 clean (warnings allowed), 1 error-severity findings,
// 2 usage / IO failure. CI runs `nettag_lint --generate lint-data --json`
// and fails the build on nonzero exit.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "core/corpus_stream.hpp"
#include "core/dataset.hpp"
#include "core/tag.hpp"
#include "model/graph.hpp"
#include "model/tagformer.hpp"
#include "model/text_encoder.hpp"
#include "netlist/io.hpp"
#include "nn/liveness.hpp"
#include "nn/tape.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace fs = std::filesystem;
using namespace nettag;

namespace {

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: nettag_lint [--json] [--deep] [--max-fanout N]\n"
               "                   [--disable RULE]... <path>...\n"
               "       nettag_lint [--json] [--deep] --generate DIR\n"
               "                   [--designs N] [--seed S] [--no-physical]\n"
               "       nettag_lint [--json] [--deep] --shards DIR\n"
               "       nettag_lint --rules\n"
               "       nettag_lint --tape\n");
}

void print_rules() {
  for (const RuleInfo& r : rule_catalog()) {
    std::printf("%-6s %-8s %-22s [%s] %s\n", r.id, severity_name(r.severity),
                r.name, r.family, r.description);
  }
}

/// Expands one CLI path argument into .nl files to lint.
std::vector<fs::path> expand_path(const fs::path& p) {
  std::vector<fs::path> out;
  std::error_code ec;
  if (fs::is_directory(p, ec)) {
    for (const auto& entry : fs::recursive_directory_iterator(p, ec)) {
      if (entry.is_regular_file() && entry.path().extension() == ".nl") {
        out.push_back(entry.path());
      }
    }
    std::sort(out.begin(), out.end());
  } else {
    out.push_back(p);
  }
  return out;
}

/// Lints one serialized netlist file. Parse failures become IO001 error
/// diagnostics instead of aborting the run, so one corrupt file does not
/// hide findings in the rest of the dataset.
LintReport lint_file(const fs::path& path, const LintOptions& opts) {
  LintReport report;
  std::ifstream is(path);
  if (!is) {
    report.add("IO001", Severity::kError, path.string(),
               "cannot open file for reading");
    return report;
  }
  Netlist nl;
  try {
    nl = read_netlist(is);
  } catch (const std::exception& e) {
    report.add("IO001", Severity::kError, path.string(),
               std::string("parse failed: ") + e.what());
    return report;
  }
  LintReport file_report = lint_netlist(nl, opts);
  if (opts.deep && !file_report.has_errors()) {
    // Semantic pass: rebuild the TAG and check attribute/cone agreement.
    file_report.merge(lint_tag(nl, build_tag(nl, opts.k_hop), opts));
  }
  report.merge(file_report, path.string());
  return report;
}

/// Runs the real generation pipeline, dumps the design netlists, and lints
/// the complete in-memory corpus (all modalities, not just netlists).
LintReport lint_generated(const fs::path& dir, int designs_per_family,
                          std::uint64_t seed, bool with_physical,
                          const LintOptions& opts) {
  LintReport report;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    report.add("IO001", Severity::kError, dir.string(),
               "cannot create output directory: " + ec.message());
    return report;
  }
  CorpusOptions copts;
  copts.designs_per_family = designs_per_family;
  copts.with_physical = with_physical;
  copts.k_hop = opts.k_hop;
  Rng rng(seed);
  const Corpus corpus = build_corpus(copts, rng);
  for (const DesignSample& d : corpus.designs) {
    const fs::path out = dir / (d.gen.netlist.name() + ".nl");
    std::ofstream os(out);
    if (!os) {
      report.add("IO001", Severity::kError, out.string(),
                 "cannot open file for writing");
      continue;
    }
    write_netlist(os, d.gen.netlist);
  }
  report.merge(lint_corpus(corpus, opts));
  if (opts.deep) {
    // Corpus-level lint keeps deep rules off (they rerun per cone below
    // with the TAG actually fed to the model).
    for (const DesignSample& d : corpus.designs) {
      for (const ConeSample& c : d.cones) {
        report.merge(lint_tag(c.cone, build_tag(c.cone, opts.k_hop), opts),
                     d.gen.netlist.name() + "/" + c.register_name);
      }
    }
  }
  return report;
}

/// Validates and lints a sharded corpus directory. Manifest or shard
/// integrity failures (truncation, checksum mismatch — the reader reports
/// the exact line and byte offset) become IO001 errors; intact shards run
/// the same corpus rules as --generate, one shard in RAM at a time.
LintReport lint_shards(const fs::path& dir, const LintOptions& opts) {
  LintReport report;
  std::unique_ptr<ShardedCorpus> corpus;
  try {
    corpus = std::make_unique<ShardedCorpus>(dir.string());
  } catch (const std::exception& e) {
    report.add("IO001", Severity::kError, dir.string(), e.what());
    return report;
  }
  if (!corpus->complete()) {
    report.add("IO001", Severity::kWarning, dir.string(),
               "corpus manifest is marked incomplete (build was interrupted; "
               "resumable)");
  }
  LintOptions sopts = opts;
  sopts.k_hop = corpus->k_hop();  // match the shard-embedded expressions
  for (std::size_t s = 0; s < corpus->num_shards(); ++s) {
    ShardedCorpus::Shard shard;
    try {
      shard = corpus->load(s);
    } catch (const std::exception& e) {
      report.add("IO001", Severity::kError, corpus->shard_path(s), e.what());
      continue;
    }
    report.merge(lint_corpus(shard.corpus, sopts));
    if (sopts.deep) {
      for (const DesignSample& d : shard.corpus.designs) {
        for (const ConeSample& c : d.cones) {
          report.merge(lint_tag(c.cone, build_tag(c.cone, sopts.k_hop), sopts),
                       d.gen.netlist.name() + "/" + c.register_name);
        }
      }
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// --tape: static audit of the autograd memory planner.
//
// Runs one representative training step (record) plus one replay for every
// shipped model configuration, then dumps each recorded tape with its live
// ranges, arena offsets, and independent verifier verdict. Exit 0 iff every
// signature ends up with a verified, installed plan and no replay diverged.
// ---------------------------------------------------------------------------

void dump_tape_report(const plan::TapeReport& r) {
  std::printf("signature %-24s state=%s verifier=%s\n", r.signature.c_str(),
              r.state.c_str(), r.verifier_ok ? "ok" : r.verifier_verdict.c_str());
  if (!r.plan) return;
  std::printf("  slab=%zu bytes  align=%zu  planned=%zu  coalesced=%zu  "
              "bwd_events=%zu\n",
              r.plan->slab_bytes, r.plan->alignment, r.plan->buffers_planned,
              r.plan->buffers_coalesced, r.tape.bwd_order.size());
  const plan::LivenessResult live = plan::analyze_liveness(r.tape);
  auto offset_str = [](std::size_t off) {
    return off == plan::kHeapSlot ? std::string("heap") : std::to_string(off);
  };
  for (std::size_t i = 0; i < r.tape.entries.size(); ++i) {
    const plan::TapeEntry& e = r.tape.entries[i];
    const plan::MemPlan::Slots& s = r.plan->per_entry[i];
    std::string parents;
    for (const int p : e.parents) {
      if (!parents.empty()) parents += ",";
      parents += std::to_string(p);
    }
    std::printf("  [%3zu] %-15s %4dx%-4d par=[%s] value@%s live[%ld,%ld]",
                i, e.op.c_str(), e.rows, e.cols, parents.c_str(),
                offset_str(s.value).c_str(), live.value[i].def,
                live.value[i].last);
    if (e.requires_grad) {
      std::printf("  grad@%s live[%ld,%ld]", offset_str(s.grad).c_str(),
                  live.grad[i].def, live.grad[i].last);
    }
    for (std::size_t k = 0; k < e.temps.size(); ++k) {
      std::printf("  temp%zu(%dx%d)@%s", k, e.temps[k].first,
                  e.temps[k].second, offset_str(s.temps[k]).c_str());
    }
    std::printf("\n");
  }
}

int tape_audit() {
  // Plans only form on single-thread serial steps; pin the width so the
  // audit is deterministic regardless of NETTAG_THREADS.
  ThreadPool::instance().set_width(1);
  plan::set_planning_enabled(true);

  const std::vector<std::string> anchors = {"(a & b) | (c ^ d)",
                                            "~(x | y) & (z ^ x)"};
  const std::vector<std::string> positives = {"(b & a) | (d ^ c)",
                                              "(x ^ z) & ~(y | x)"};
  const std::vector<std::pair<std::string, TextEncoderConfig>> tiers = {
      {"tiny", TextEncoderConfig::tiny()},
      {"small", TextEncoderConfig::small()},
      {"base", TextEncoderConfig::base()},
  };
  Vocab vocab;
  for (const auto& [name, cfg] : tiers) {
    Rng rng(0x5eed);
    TextEncoder enc(vocab, cfg, rng);
    for (int pass = 0; pass < 2; ++pass) {  // pass 0 records, pass 1 replays
      plan::PlanScope scope("lint|enc|" + name);
      Tensor loss = info_nce(enc.encode_batch(anchors),
                             enc.encode_batch(positives), 0.1f);
      backward(loss);
    }
  }
  {
    // Default TAGFormer (the netlist-side encoder NetTag ships with) on a
    // small ring graph, trained toward a fixed target.
    TagFormerConfig tc;
    tc.in_dim = 8;
    Rng rng(0x5eed);
    TagFormer tf(tc, rng);
    const int n = 6;
    Mat feats(n, tc.in_dim);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < tc.in_dim; ++j) {
        feats.at(i, j) = 0.1f * static_cast<float>((i * 7 + j * 3) % 11);
      }
    }
    std::vector<std::pair<int, int>> edges;
    for (int i = 0; i < n; ++i) edges.emplace_back(i, (i + 1) % n);
    const Mat adj = tag_adjacency(n, edges);
    Mat target(1, tc.out_dim);
    for (int j = 0; j < tc.out_dim; ++j) target.at(0, j) = 0.01f * static_cast<float>(j);
    for (int pass = 0; pass < 2; ++pass) {
      plan::PlanScope scope("lint|tagformer|default");
      const TagFormer::Output out =
          tf.forward(make_tensor(feats, false), make_tensor(adj, false));
      backward(mse_loss(out.cls, target));
    }
  }

  bool ok = true;
  for (const plan::TapeReport& r : plan::tape_reports()) {
    dump_tape_report(r);
    if (r.state != "ready" || !r.verifier_ok) ok = false;
  }
  const plan::Stats st = plan::stats_snapshot();
  std::printf(
      "tape audit: %llu tape(s) recorded, %llu plan(s) installed, "
      "%llu replay(s), %llu divergence(s), %llu verifier reject(s)\n",
      st.tapes_recorded, st.plans_installed, st.replays, st.divergences,
      st.verifier_rejects);
  if (st.divergences > 0 || st.verifier_rejects > 0) ok = false;
  if (!ok) std::printf("tape audit: FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool rules_only = false;
  bool tape_mode = false;
  bool with_physical = true;
  int designs_per_family = 1;
  std::uint64_t seed = 0x5eed;
  fs::path generate_dir;
  bool generate = false;
  fs::path shards_dir;
  bool shards = false;
  LintOptions opts;
  std::vector<fs::path> paths;

  auto need_value = [&](int i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "nettag_lint: %s requires a value\n", argv[i]);
      usage(stderr);
      std::exit(2);
    }
    return argv[i + 1];
  };
  auto need_int = [&](int i, long long lo, long long hi) -> long long {
    long long v = 0;
    std::string err;
    if (!cli::parse_int(need_value(i), lo, hi, &v, &err)) {
      std::fprintf(stderr, "nettag_lint: %s: %s\n", argv[i], err.c_str());
      std::exit(2);
    }
    return v;
  };

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (!std::strcmp(arg, "--json")) {
      json = true;
    } else if (!std::strcmp(arg, "--rules")) {
      rules_only = true;
    } else if (!std::strcmp(arg, "--tape")) {
      tape_mode = true;
    } else if (!std::strcmp(arg, "--deep")) {
      opts.deep = true;
    } else if (!std::strcmp(arg, "--no-physical")) {
      with_physical = false;
    } else if (!std::strcmp(arg, "--max-fanout")) {
      opts.max_fanout = static_cast<std::size_t>(need_int(i, 1, 1 << 20));
      ++i;
    } else if (!std::strcmp(arg, "--disable")) {
      opts.disabled.insert(need_value(i));
      ++i;
    } else if (!std::strcmp(arg, "--generate")) {
      generate = true;
      generate_dir = need_value(i);
      ++i;
    } else if (!std::strcmp(arg, "--shards")) {
      shards = true;
      shards_dir = need_value(i);
      ++i;
    } else if (!std::strcmp(arg, "--designs")) {
      designs_per_family = static_cast<int>(need_int(i, 1, 1 << 20));
      ++i;
    } else if (!std::strcmp(arg, "--seed")) {
      std::string err;
      if (!cli::parse_u64(need_value(i), &seed, &err)) {
        std::fprintf(stderr, "nettag_lint: --seed: %s\n", err.c_str());
        return 2;
      }
      ++i;
    } else if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h")) {
      usage(stdout);
      return 0;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "nettag_lint: unknown flag %s\n", arg);
      usage(stderr);
      return 2;
    } else {
      paths.emplace_back(arg);
    }
  }

  if (rules_only) {
    print_rules();
    return 0;
  }
  if (tape_mode) {
    return tape_audit();
  }
  if (generate && shards) {
    std::fprintf(stderr, "nettag_lint: --generate and --shards are exclusive\n");
    return 2;
  }
  if (!generate && !shards && paths.empty()) {
    usage(stderr);
    return 2;
  }
  if (generate && designs_per_family < 1) {
    std::fprintf(stderr, "nettag_lint: --designs must be >= 1\n");
    return 2;
  }

  LintReport report;
  std::size_t files = 0;
  try {
    if (generate) {
      report = lint_generated(generate_dir, designs_per_family, seed,
                              with_physical, opts);
    } else if (shards) {
      report = lint_shards(shards_dir, opts);
    } else {
      for (const fs::path& p : paths) {
        for (const fs::path& file : expand_path(p)) {
          report.merge(lint_file(file, opts));
          ++files;
        }
      }
      if (files == 0) {
        std::fprintf(stderr, "nettag_lint: no .nl files found\n");
        return 2;
      }
    }
  } catch (const std::exception& e) {
    // The generation pipeline's own seams throw on error-severity findings;
    // surface them as a lint failure rather than a crash.
    report.add("IO002", Severity::kError, "pipeline",
               std::string("generation failed: ") + e.what());
  }

  if (json) {
    std::printf("%s\n", to_json(report).c_str());
  } else {
    if (!report.empty()) std::printf("%s", to_text(report).c_str());
    std::printf("nettag_lint: %zu finding(s), %zu error(s)\n", report.size(),
                report.count(Severity::kError));
  }
  return report.has_errors() ? 1 : 0;
}
