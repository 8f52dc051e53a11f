// nettag_train — crash-safe pre-training driver (docs/ARCHITECTURE.md §8).
//
// Modes:
//   nettag_train --out PREFIX [flags]     build a corpus, pre-train NetTAG,
//                                         and checkpoint under PREFIX
//   nettag_train --resume PREFIX          continue an interrupted run from
//                                         its last checkpoint; the final
//                                         state is bit-identical to the
//                                         uninterrupted run, at any
//                                         NETTAG_THREADS width
//   nettag_train --build-corpus DIR       stream a sharded out-of-core
//                                         corpus into DIR (resumable: a
//                                         re-run skips committed shards)
//   nettag_train --help                   usage (exit 0)
//
// Flags (--out only — a resume replays the recorded run exactly):
//   --seed S              corpus/model seed (default 0x5eed)
//   --designs N           designs per family (default 1)
//   --corpus DIR          train from a sharded corpus built by
//                         --build-corpus instead of an in-memory one
//                         (excludes --designs; resume lands mid-corpus)
//   --tiny                compact ExprLLM (CI-scale runs)
//   --no-align            drop objective #3 and the physical flow
//   --expr-steps N        step-1 iteration count
//   --tag-steps N         step-2 iteration count
// Flags (--build-corpus; --seed/--designs/--no-align also apply):
//   --shard-designs N     designs per shard file (default 4; the build
//                         holds a window of shards, ARCHITECTURE.md §13.2)
//   --flat                flat single-block designs instead of hierarchical
// Flags (--out / --resume):
//   --checkpoint-every N  also checkpoint every N steps of a phase
//                         (phase boundaries and stop always checkpoint)
//   --halt-after N        stop cleanly after N loop steps (test hook; acts
//                         exactly like a signal at a deterministic point)
//
// A run leaves two files under PREFIX. It first writes `<PREFIX>.run` — a
// checksummed manifest of the corpus/training knobs — so `--resume PREFIX`
// can rebuild the exact same corpus and option set without the user
// re-typing (and possibly mistyping) them. A --corpus run also records the
// corpus manifest's checksum, and --resume exits 2 when the corpus at that
// path no longer carries it. Each checkpoint replaces `<PREFIX>.ckpt` with
// one atomic rename: the architecture, the weights and the trainer state in
// one CRC-sealed file, which --resume reads back whole or not at all.
//
// SIGINT/SIGTERM are handled cooperatively: the loop finishes the step in
// flight, writes a checkpoint, and the tool exits 0 with a "resume with"
// hint. No signal ever tears a file or loses more than one step.
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/corpus_stream.hpp"
#include "core/pretrain.hpp"
#include "util/atomic_io.hpp"
#include "util/cli.hpp"
#include "util/signal.hpp"
#include "util/timer.hpp"

using namespace nettag;

namespace {

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: nettag_train --out PREFIX [--seed S] [--designs N]\n"
               "                    [--corpus DIR] [--tiny] [--no-align]\n"
               "                    [--expr-steps N] [--tag-steps N]\n"
               "                    [--checkpoint-every N] [--halt-after N]\n"
               "       nettag_train --resume PREFIX [--checkpoint-every N]\n"
               "                    [--halt-after N]\n"
               "       nettag_train --build-corpus DIR [--seed S]\n"
               "                    [--designs N] [--shard-designs N]\n"
               "                    [--flat] [--no-align]\n"
               "       nettag_train --help\n"
               "\n"
               "Pre-trains NetTAG with crash-safe checkpoints under PREFIX:\n"
               "PREFIX.ckpt holds the architecture, weights and trainer state\n"
               "in one file, PREFIX.run the run parameters. SIGINT/SIGTERM\n"
               "finish the current step, checkpoint, and exit 0; --resume\n"
               "continues bit-identically. --build-corpus streams a sharded\n"
               "out-of-core corpus (durable shard files + manifest) that\n"
               "--out --corpus trains on one shard at a time. See\n"
               "docs/ARCHITECTURE.md sec. 8 and sec. 13.\n");
}

/// The run parameters a resume must replay exactly. Recorded in
/// `<prefix>.run` before the first training step so the prefix is resumable
/// from the very first checkpoint.
struct RunSpec {
  std::uint64_t seed = 0x5eed;
  int designs = 1;
  /// Sharded corpus directory ("": build an in-memory corpus). Recorded so
  /// --resume re-opens the same corpus and lands mid-corpus.
  std::string corpus_dir;
  /// That corpus's manifest checksum: --resume refuses a corpus rebuilt at
  /// the same path.
  std::string corpus_checksum;
  bool tiny = false;
  bool align = true;
  int expr_steps = -1;  ///< -1: PretrainOptions default (resolved on write)
  int tag_steps = -1;
};

std::string run_manifest_path(const std::string& prefix) {
  return prefix + ".run";
}

void write_run_manifest(const std::string& prefix, const RunSpec& s) {
  std::vector<std::pair<std::string, std::string>> entries;
  // Format 3 adds `corpus_checksum` next to `corpus`; both are written only
  // for sharded-corpus runs (a manifest value cannot be empty). Run
  // manifests are session-scoped companions of a checkpoint prefix, so
  // there is no format-2 read path (same policy as TrainState's magic bump).
  entries.emplace_back("format", "3");
  entries.emplace_back("seed", std::to_string(s.seed));
  entries.emplace_back("designs", std::to_string(s.designs));
  if (!s.corpus_dir.empty()) {
    entries.emplace_back("corpus", s.corpus_dir);
    entries.emplace_back("corpus_checksum", s.corpus_checksum);
  }
  entries.emplace_back("tiny", s.tiny ? "1" : "0");
  entries.emplace_back("align", s.align ? "1" : "0");
  entries.emplace_back("expr_steps", std::to_string(s.expr_steps));
  entries.emplace_back("tag_steps", std::to_string(s.tag_steps));
  save_manifest(run_manifest_path(prefix), entries);
}

RunSpec read_run_manifest(const std::string& prefix) {
  const std::string path = run_manifest_path(prefix);
  const KeyValues kv = load_manifest(path, path);
  if (kv.get("format") != "3") {
    kv.fail("format", "unknown format '" + kv.get("format") + "'");
  }
  RunSpec s;
  if (kv.has("corpus")) {
    s.corpus_dir = kv.get("corpus");
    s.corpus_checksum = kv.get("corpus_checksum");
  }
  s.seed = kv.get_u64("seed");
  s.designs = static_cast<int>(kv.get_int("designs", 1, 1 << 20));
  s.tiny = kv.get_bool("tiny");
  s.align = kv.get_bool("align");
  s.expr_steps = static_cast<int>(kv.get_int("expr_steps", 0, 1 << 20));
  s.tag_steps = static_cast<int>(kv.get_int("tag_steps", 0, 1 << 20));
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_prefix, resume_prefix, build_corpus_dir;
  RunSpec spec;
  int checkpoint_every = 0;
  long halt_after = -1;
  int shard_designs = 4;
  bool flat = false;
  bool designs_flag = false;
  // A resume replays the recorded run; run-shaping flags next to --resume
  // are almost certainly a mistake, so they are rejected instead of being
  // silently ignored (they could not be honored bit-identically anyway).
  std::vector<const char*> run_flags_seen;

  auto need_value = [&](int i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "nettag_train: %s requires a value\n", argv[i]);
      usage(stderr);
      std::exit(2);
    }
    return argv[i + 1];
  };
  auto need_int = [&](int i, long long lo, long long hi) -> long long {
    long long v = 0;
    std::string err;
    if (!cli::parse_int(need_value(i), lo, hi, &v, &err)) {
      std::fprintf(stderr, "nettag_train: %s: %s\n", argv[i], err.c_str());
      std::exit(2);
    }
    return v;
  };

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h")) {
      usage(stdout);
      return 0;
    } else if (!std::strcmp(arg, "--out")) {
      out_prefix = need_value(i);
      ++i;
    } else if (!std::strcmp(arg, "--resume")) {
      resume_prefix = need_value(i);
      ++i;
    } else if (!std::strcmp(arg, "--build-corpus")) {
      build_corpus_dir = need_value(i);
      ++i;
    } else if (!std::strcmp(arg, "--corpus")) {
      spec.corpus_dir = need_value(i);
      run_flags_seen.push_back(arg);
      ++i;
    } else if (!std::strcmp(arg, "--shard-designs")) {
      shard_designs = static_cast<int>(need_int(i, 1, 1 << 20));
      ++i;
    } else if (!std::strcmp(arg, "--flat")) {
      flat = true;
    } else if (!std::strcmp(arg, "--seed")) {
      std::string err;
      if (!cli::parse_u64(need_value(i), &spec.seed, &err)) {
        std::fprintf(stderr, "nettag_train: --seed: %s\n", err.c_str());
        return 2;
      }
      run_flags_seen.push_back(arg);
      ++i;
    } else if (!std::strcmp(arg, "--designs")) {
      spec.designs = static_cast<int>(need_int(i, 1, 1 << 20));
      designs_flag = true;
      run_flags_seen.push_back(arg);
      ++i;
    } else if (!std::strcmp(arg, "--tiny")) {
      spec.tiny = true;
      run_flags_seen.push_back(arg);
    } else if (!std::strcmp(arg, "--no-align")) {
      spec.align = false;
      run_flags_seen.push_back(arg);
    } else if (!std::strcmp(arg, "--expr-steps")) {
      spec.expr_steps = static_cast<int>(need_int(i, 0, 1 << 20));
      run_flags_seen.push_back(arg);
      ++i;
    } else if (!std::strcmp(arg, "--tag-steps")) {
      spec.tag_steps = static_cast<int>(need_int(i, 0, 1 << 20));
      run_flags_seen.push_back(arg);
      ++i;
    } else if (!std::strcmp(arg, "--checkpoint-every")) {
      checkpoint_every = static_cast<int>(need_int(i, 1, 1 << 30));
      ++i;
    } else if (!std::strcmp(arg, "--halt-after")) {
      halt_after = static_cast<long>(need_int(i, 0, 1LL << 40));
      ++i;
    } else {
      std::fprintf(stderr, "nettag_train: unknown flag %s\n", arg);
      usage(stderr);
      return 2;
    }
  }

  const bool resuming = !resume_prefix.empty();
  const int modes = (out_prefix.empty() ? 0 : 1) + (resuming ? 1 : 0) +
                    (build_corpus_dir.empty() ? 0 : 1);
  if (modes != 1) {
    std::fprintf(stderr,
                 "nettag_train: exactly one of --out / --resume / "
                 "--build-corpus is required\n");
    usage(stderr);
    return 2;
  }

  // ------------------------- --build-corpus mode ---------------------------
  if (!build_corpus_dir.empty()) {
    StreamOptions sopt;
    sopt.designs_per_family = spec.designs;
    sopt.designs_per_shard = shard_designs;
    sopt.hierarchical = !flat;
    sopt.corpus.with_physical = spec.align;
    try {
      const StreamProgress p = build_corpus_stream(
          build_corpus_dir, sopt, spec.seed, [](const ShardStats& s) {
            if (s.skipped) {
              std::fprintf(stderr,
                           "nettag_train: shard %zu already committed, skipped\n",
                           s.index);
            } else {
              std::fprintf(stderr,
                           "nettag_train: shard %zu committed (%zu design(s), "
                           "%zu cone(s), %zu gate(s), %zu expression(s), "
                           "%zu bytes)\n",
                           s.index, s.designs, s.cones, s.gates, s.expressions,
                           s.bytes);
            }
          });
      std::fprintf(stderr,
                   "nettag_train: corpus complete: %zu/%zu shard(s) committed "
                   "(%zu new, %zu skipped)\n",
                   p.shards_written + p.shards_skipped, p.shards_total,
                   p.shards_written, p.shards_skipped);
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "nettag_train: corpus build failed: %s\n", e.what());
      return 2;
    }
  }

  if (!spec.corpus_dir.empty() && designs_flag) {
    std::fprintf(stderr,
                 "nettag_train: --designs conflicts with --corpus (the shard "
                 "manifest fixes the corpus shape)\n");
    return 2;
  }
  if (resuming && !run_flags_seen.empty()) {
    std::fprintf(stderr,
                 "nettag_train: %s conflicts with --resume (the run's "
                 "parameters are replayed from %s)\n",
                 run_flags_seen.front(),
                 run_manifest_path(resume_prefix).c_str());
    return 2;
  }
  const std::string prefix = resuming ? resume_prefix : out_prefix;

  NetTagConfig mc;
  try {
    if (resuming) {
      spec = read_run_manifest(prefix);
      mc = read_checkpoint_config(prefix);
    } else {
      if (spec.tiny) mc.expr_llm = TextEncoderConfig::tiny();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nettag_train: cannot resume '%s': %s\n",
                 prefix.c_str(), e.what());
    return 2;
  }

  PretrainOptions po;
  if (spec.expr_steps >= 0) po.expr_steps = spec.expr_steps;
  if (spec.tag_steps >= 0) po.tag_steps = spec.tag_steps;
  spec.expr_steps = po.expr_steps;  // resolve defaults so the manifest is exact
  spec.tag_steps = po.tag_steps;
  po.objective_align = spec.align;
  if (!spec.align) po.aux_steps = 0;
  po.checkpoint.prefix = prefix;
  po.checkpoint.every = checkpoint_every;
  po.checkpoint.halt_after_steps = halt_after;
  po.checkpoint.stop = install_stop_signals();

  Rng rng(spec.seed);
  NetTag model(mc, spec.seed ^ 0x7a67);
  Timer t;
  PretrainReport report;
  try {
    if (!spec.corpus_dir.empty()) {
      // Sharded out-of-core corpus: one shard in RAM at a time.
      const ShardedCorpus corpus(spec.corpus_dir);
      std::fprintf(stderr,
                   "nettag_train: sharded corpus '%s' (%zu shard(s), %zu "
                   "design(s), seed %#llx)\n",
                   spec.corpus_dir.c_str(), corpus.num_shards(),
                   corpus.total_designs(),
                   static_cast<unsigned long long>(corpus.seed()));
      if (resuming) {
        if (corpus.checksum() != spec.corpus_checksum) {
          throw std::runtime_error(
              "corpus '" + spec.corpus_dir + "' has manifest checksum " +
              corpus.checksum() + ", but " + run_manifest_path(prefix) +
              " recorded " + spec.corpus_checksum +
              " (the corpus was rebuilt since the run started)");
        }
        std::fprintf(stderr, "nettag_train: resuming from '%s'...\n",
                     prefix.c_str());
        report = resume_pretrain_streaming(model, corpus, po, rng);
      } else {
        spec.corpus_checksum = corpus.checksum();
        write_run_manifest(prefix, spec);
        std::fprintf(stderr,
                     "nettag_train: pre-training (%d expr + %d tag steps "
                     "across shards)...\n",
                     po.expr_steps, po.tag_steps);
        report = pretrain_streaming(model, corpus, po, rng);
      }
    } else {
      CorpusOptions co;
      co.designs_per_family = spec.designs;
      co.with_physical = spec.align;
      std::fprintf(stderr,
                   "nettag_train: building corpus (seed %#llx, %d design(s) per family)...\n",
                   static_cast<unsigned long long>(spec.seed), spec.designs);
      const Corpus corpus = build_corpus(co, rng);
      if (resuming) {
        std::fprintf(stderr, "nettag_train: resuming from '%s'...\n", prefix.c_str());
        report = resume_pretrain(model, corpus, po, rng);
      } else {
        write_run_manifest(prefix, spec);
        std::fprintf(stderr, "nettag_train: pre-training (%d expr + %d tag steps)...\n",
                     po.expr_steps, po.tag_steps);
        report = pretrain(model, corpus, po, rng);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nettag_train: %s failed: %s\n",
                 resuming ? "resume" : "pre-training", e.what());
    return 2;
  }

  std::fprintf(stderr,
               "nettag_train: %s after %.1fs; expr loss %.3f -> %.3f, "
               "tag loss %.3f -> %.3f (%zu expr / %zu tag steps recorded)\n",
               report.interrupted ? "interrupted (checkpoint saved)" : "completed",
               t.seconds(), report.expr_loss_first, report.expr_loss_last,
               report.tag_loss_first, report.tag_loss_last,
               report.expr_losses.size(), report.tag_losses.size());
  if (report.interrupted) {
    std::fprintf(stderr, "nettag_train: resume with: nettag_train --resume %s\n",
                 prefix.c_str());
  }
  return 0;
}
