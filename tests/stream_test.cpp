// Streaming repository-scale corpus (docs/ARCHITECTURE.md §13): hierarchical
// design composition, durable out-of-core shards, crash/resume determinism,
// and mid-corpus training resume. The kill -9 scenarios are modeled by
// halting the builder after N shards (halt_after_shards follows the same
// commit path a real kill interrupts: every committed shard is already
// fsync'd and renamed, the in-flight one simply never appears).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "core/corpus_stream.hpp"
#include "core/pretrain.hpp"
#include "netlist/io.hpp"
#include "nn/train_state.hpp"
#include "rtlgen/hierarchy.hpp"
#include "util/checksum.hpp"
#include "util/numbers.hpp"
#include "width_guard.hpp"

namespace fs = std::filesystem;

namespace nettag {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string temp_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  return dir.string();
}

// --- hierarchical generation -------------------------------------------------

TEST(Hierarchy, ComposedDesignDwarfsFlatOnes) {
  const FamilyProfile& profile = family_profile("vexriscv");
  // Flat baseline: mean gate count over a few seeds.
  std::size_t flat_total = 0;
  const int flat_runs = 4;
  for (int i = 0; i < flat_runs; ++i) {
    Rng rng(100 + i);
    flat_total += generate_design(profile, rng, "flat").netlist.size();
  }
  const double flat_mean =
      static_cast<double>(flat_total) / static_cast<double>(flat_runs);

  // Per-design variance is large (random stage kinds), so both hierarchical
  // measurements average a few seeds too.
  const HierarchyOptions defaults;  // the ~10x configuration
  HierarchyOptions big;             // the ~100x direction
  big.levels = 6;
  big.min_blocks_per_level = 4;
  big.max_blocks_per_level = 5;
  big.shared_blocks = 4;
  std::size_t hier_total = 0, big_total = 0;
  const int hier_runs = 3;
  for (int i = 0; i < hier_runs; ++i) {
    Rng r1(100 + i), r2(100 + i);
    hier_total +=
        generate_hierarchical_design(profile, defaults, r1, "hier").netlist.size();
    big_total +=
        generate_hierarchical_design(profile, big, r2, "big").netlist.size();
  }
  const double hier_mean =
      static_cast<double>(hier_total) / static_cast<double>(hier_runs);
  const double big_mean =
      static_cast<double>(big_total) / static_cast<double>(hier_runs);
  EXPECT_GE(hier_mean, 10.0 * flat_mean)
      << "hier_mean=" << hier_mean << " flat_mean=" << flat_mean;
  // Raising the knobs keeps scaling toward repository size.
  EXPECT_GE(big_mean, 2.0 * hier_mean)
      << "big_mean=" << big_mean << " hier_mean=" << hier_mean;
}

TEST(Hierarchy, DeterministicAndGroundTruthRich) {
  const FamilyProfile& profile = family_profile("opencores");
  HierarchyOptions opts;
  Rng a(42), b(42);
  const GeneratedDesign d1 =
      generate_hierarchical_design(profile, opts, a, "dup");
  const GeneratedDesign d2 =
      generate_hierarchical_design(profile, opts, b, "dup");
  EXPECT_EQ(netlist_to_string(d1.netlist), netlist_to_string(d2.netlist));
  EXPECT_EQ(d1.rtl_text, d2.rtl_text);
  EXPECT_EQ(d1.reg_rtl, d2.reg_rtl);

  // Pipeline cuts guarantee registers, and every register keeps its aligned
  // RTL cone text (the per-register ground truth flat designs have).
  std::size_t dffs = 0;
  for (const Gate& g : d1.netlist.gates()) {
    if (g.type == CellType::kDff) {
      ++dffs;
      EXPECT_TRUE(d1.reg_rtl.count(g.name)) << g.name;
    }
  }
  EXPECT_GT(dffs, 0u);
}

TEST(Hierarchy, LintClean) {
  Rng rng(7);
  const GeneratedDesign d = generate_hierarchical_design(
      family_profile("itc99"), HierarchyOptions{}, rng, "clean");
  const LintReport report = lint_netlist(d.netlist, LintOptions{});
  EXPECT_FALSE(report.has_errors()) << to_text(report);
}

// --- shared expression index (Table II / ExprLLM dataset) --------------------

TEST(Dataset, PrecomputedExpressionIndexMatchesDirectDerivation) {
  Rng rng(0xd5);
  CorpusOptions co;
  co.designs_per_family = 1;
  co.with_physical = false;
  const Corpus corpus = build_corpus(co, rng);
  const CorpusExpressions index = corpus_expressions(corpus, co.k_hop);

  ASSERT_EQ(index.size(), corpus.designs.size());
  for (std::size_t d = 0; d < index.size(); ++d) {
    ASSERT_EQ(index[d].size(), corpus.designs[d].cones.size());
  }

  // The training-set collector and the statistics table must see exactly the
  // same expressions whether they derive them or reuse the index.
  EXPECT_EQ(collect_expressions(corpus, co.k_hop),
            collect_expressions(corpus, index));
  EXPECT_EQ(collect_expressions(corpus, co.k_hop, 10),
            collect_expressions(corpus, index, 10));

  const std::vector<FamilyStats> direct = corpus_statistics(corpus, co.k_hop);
  const std::vector<FamilyStats> shared = corpus_statistics(corpus, index);
  ASSERT_EQ(direct.size(), shared.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(direct[i].family, shared[i].family);
    EXPECT_EQ(direct[i].expr_count, shared[i].expr_count);
    EXPECT_EQ(direct[i].avg_expr_tokens, shared[i].avg_expr_tokens);
    EXPECT_EQ(direct[i].cone_count, shared[i].cone_count);
    EXPECT_EQ(direct[i].avg_cone_nodes, shared[i].avg_cone_nodes);
  }
}

// --- shard numbers -----------------------------------------------------------

/// Empty when `y` is `x` read back: the same bits, or for a NaN a NaN of
/// the same sign (a NaN's payload is not printed); otherwise what differs.
std::string read_back_error(double x, double y, const char* reader) {
  const bool same = std::isnan(x)
                        ? std::isnan(y) && std::signbit(y) == std::signbit(x)
                        : std::bit_cast<std::uint64_t>(y) ==
                              std::bit_cast<std::uint64_t>(x);
  if (same) return "";
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s read %a back as %a", reader, x, y);
  return buf;
}

/// Empty when format_double(x) is printf's "%.17g" and parse_double and
/// strtod both read it back exactly; otherwise the first difference.
std::string number_round_trip_error(double x) {
  char printed[64];
  std::snprintf(printed, sizeof printed, "%.17g", x);
  const std::string text(format_double(x).view());
  if (text != printed) {
    return "format_double gave '" + text + "', printf '" + printed + "'";
  }
  double parsed = 0;
  if (!parse_double(text, &parsed)) return "parse_double rejected " + text;
  std::string err = read_back_error(x, parsed, "parse_double");
  if (err.empty()) {
    err = read_back_error(x, std::strtod(printed, nullptr), "strtod");
  }
  return err.empty() ? "" : err + " (text " + text + ")";
}

TEST(ShardNumbers, FormatIsPrintfAndParsesBackExactly) {
  using L = std::numeric_limits<double>;
  for (const double x :
       {0.0, -0.0, L::infinity(), -L::infinity(), L::quiet_NaN(),
        -L::quiet_NaN(), L::denorm_min(), -L::denorm_min(), L::min(), L::max(),
        L::lowest(), L::epsilon(), 9007199254740993.0 /* 2^53 + 1 */, 0.1,
        1e23, 2.2250738585072009e-308 /* the largest subnormal */}) {
    EXPECT_EQ(number_round_trip_error(x), "") << x;
  }
  // Seeded random bit patterns: every exponent, subnormals and NaN
  // payloads included.
  std::mt19937_64 bits(0x5eed5);
  int failures = 0;
  std::string first;
  for (int i = 0; i < 1'000'000; ++i) {
    const std::string err = number_round_trip_error(
        std::bit_cast<double>(static_cast<std::uint64_t>(bits())));
    if (!err.empty() && failures++ == 0) first = err;
  }
  EXPECT_EQ(failures, 0) << "first: " << first;
}

TEST(ShardNumbers, ParserRejectsTextTheWriterNeverEmits) {
  for (const std::string word :
       {std::string("+1"), std::string("0x1p3"), std::string("1e"),
        std::string("1.5\0", 4), std::string(), std::string("1e999"),
        std::string("1.5 "), std::string("-")}) {
    double out = 42;
    EXPECT_FALSE(parse_double(word, &out)) << "'" << word << "'";
    EXPECT_EQ(out, 42) << "'" << word << "'";
  }
  double out = 0;
  EXPECT_TRUE(parse_double("-1.5e-3", &out));
  EXPECT_EQ(out, -1.5e-3);
}

// --- streaming corpus builder + reader ---------------------------------------

StreamOptions small_stream_options(bool with_physical = false) {
  StreamOptions so;
  so.designs_per_family = 1;  // 4 designs total (one per family)
  so.designs_per_shard = 2;   // -> 2 shards
  so.hierarchical = false;    // flat designs keep the test fast
  so.corpus.with_physical = with_physical;
  so.corpus.placement_passes = 1;
  return so;
}

TEST(Stream, BuildAndLoadRoundTrip) {
  const std::string dir = temp_dir("nettag_stream_roundtrip");
  std::vector<ShardStats> seen;
  const StreamProgress progress = build_corpus_stream(
      dir, small_stream_options(/*with_physical=*/true), 0xabc,
      [&](const ShardStats& s) { seen.push_back(s); });
  EXPECT_TRUE(progress.complete);
  EXPECT_EQ(progress.shards_total, 2u);
  EXPECT_EQ(progress.shards_written, 2u);
  EXPECT_EQ(progress.designs, 4u);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_FALSE(seen[0].skipped);
  EXPECT_GT(seen[0].gates, 0u);
  EXPECT_GT(seen[0].expressions, 0u);

  const ShardedCorpus corpus(dir);
  EXPECT_EQ(corpus.num_shards(), 2u);
  EXPECT_TRUE(corpus.complete());
  EXPECT_EQ(corpus.seed(), 0xabcu);
  EXPECT_EQ(corpus.total_designs(), 4u);
  EXPECT_EQ(corpus.families().size(), 4u);

  std::size_t designs = 0;
  for (std::size_t s = 0; s < corpus.num_shards(); ++s) {
    const ShardedCorpus::Shard shard = corpus.load(s);
    EXPECT_EQ(shard.corpus.families, corpus.families());
    ASSERT_EQ(shard.exprs.size(), shard.corpus.designs.size());
    for (std::size_t d = 0; d < shard.corpus.designs.size(); ++d) {
      const DesignSample& ds = shard.corpus.designs[d];
      ++designs;
      EXPECT_GT(ds.gen.netlist.size(), 0u);
      EXPECT_FALSE(ds.gen.rtl_text.empty());
      EXPECT_FALSE(ds.cones.empty());
      // Physical labels survived the round trip.
      EXPECT_GT(ds.area_wo_opt, 0.0);
      EXPECT_GT(ds.power_wo_opt, 0.0);
      ASSERT_EQ(shard.exprs[d].size(), ds.cones.size());
      for (std::size_t c = 0; c < ds.cones.size(); ++c) {
        const ConeSample& cone = ds.cones[c];
        EXPECT_FALSE(cone.rtl_text.empty());
        if (cone.has_layout) EXPECT_FALSE(cone.layout.node_feats.empty());
        // The embedded expressions are the embed stage's derivation from the
        // pre-serialization cone. Netlist round-tripping canonicalizes gate
        // order, so compare as multisets: same expressions, every one
        // re-derivable from the stored cone.
        std::vector<std::string> embedded = shard.exprs[d][c];
        std::vector<std::string> derived =
            cone_expressions(cone.cone, corpus.k_hop());
        std::sort(embedded.begin(), embedded.end());
        std::sort(derived.begin(), derived.end());
        EXPECT_EQ(embedded, derived);
      }
    }
    // The shard-level lint gate held: the loaded corpus is clean too.
    const LintReport report = lint_corpus(shard.corpus, LintOptions{});
    EXPECT_FALSE(report.has_errors()) << to_text(report);
  }
  EXPECT_EQ(designs, 4u);
  fs::remove_all(dir);
}

TEST(Stream, InterruptedBuildResumesBitIdentically) {
  const std::string dir_a = temp_dir("nettag_stream_straight");
  const std::string dir_b = temp_dir("nettag_stream_resumed");
  const StreamOptions so = small_stream_options();

  const StreamProgress straight = build_corpus_stream(dir_a, so, 0xfeed);
  EXPECT_TRUE(straight.complete);

  // "Crash" after the first shard: the manifest lists exactly the committed
  // prefix and stays resumable.
  StreamOptions halted = so;
  halted.halt_after_shards = 1;
  const StreamProgress partial = build_corpus_stream(dir_b, halted, 0xfeed);
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.shards_written, 1u);
  {
    const ShardedCorpus mid(dir_b);
    EXPECT_FALSE(mid.complete());
    EXPECT_EQ(mid.num_shards(), 1u);
  }

  // Resume: committed shards are skipped (fork consumption, no recompute),
  // the remainder regenerates, and every byte matches the straight run.
  std::vector<ShardStats> seen;
  const StreamProgress resumed = build_corpus_stream(
      dir_b, so, 0xfeed, [&](const ShardStats& s) { seen.push_back(s); });
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.shards_skipped, 1u);
  EXPECT_EQ(resumed.shards_written, 1u);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_TRUE(seen[0].skipped);
  EXPECT_FALSE(seen[1].skipped);

  const ShardedCorpus a(dir_a), b(dir_b);
  ASSERT_EQ(a.num_shards(), b.num_shards());
  for (std::size_t s = 0; s < a.num_shards(); ++s) {
    EXPECT_EQ(read_file(a.shard_path(s)), read_file(b.shard_path(s)))
        << "shard " << s;
  }
  EXPECT_EQ(read_file(dir_a + "/corpus.manifest"),
            read_file(dir_b + "/corpus.manifest"));
  fs::remove_all(dir_a);
  fs::remove_all(dir_b);
}

TEST(Stream, TruncatedShardRejectedWithLineAndOffset) {
  const std::string dir = temp_dir("nettag_stream_truncated");
  build_corpus_stream(dir, small_stream_options(), 0x11);
  const ShardedCorpus corpus(dir);
  const std::string path = corpus.shard_path(0);
  const std::string original = read_file(path);

  auto expect_rejected = [&](const std::string& mutated,
                             const std::string& what) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << mutated;
    }
    try {
      corpus.load(0);
      FAIL() << what << ": corrupt shard was accepted";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(path), std::string::npos) << what << ": " << msg;
      EXPECT_NE(msg.find("line "), std::string::npos) << what << ": " << msg;
      EXPECT_NE(msg.find("byte offset "), std::string::npos)
          << what << ": " << msg;
    }
  };

  // Torn write: the tail (including the checksum line) is gone.
  expect_rejected(original.substr(0, original.size() / 2), "truncated");
  // Bit rot: length intact, one byte flipped — the checksum catches it.
  std::string flipped = original;
  flipped[flipped.size() / 3] ^= 0x20;
  expect_rejected(flipped, "corrupted");

  // Restore and confirm the reader still accepts the intact shard.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << original;
  }
  EXPECT_NO_THROW(corpus.load(0));
  fs::remove_all(dir);
}

TEST(Stream, OptionMismatchRefusedInsteadOfMixingCorpora) {
  const std::string dir = temp_dir("nettag_stream_mismatch");
  build_corpus_stream(dir, small_stream_options(), 0x21);
  // Same directory, different seed: resuming would interleave two unrelated
  // corpora, so the builder must refuse.
  EXPECT_THROW(build_corpus_stream(dir, small_stream_options(), 0x22),
               std::runtime_error);
  StreamOptions other = small_stream_options();
  other.designs_per_shard = 3;
  EXPECT_THROW(build_corpus_stream(dir, other, 0x21), std::runtime_error);
  fs::remove_all(dir);
}

/// Every file of `dir`, by name.
std::map<std::string, std::string> dir_files(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files[entry.path().filename().string()] = read_file(entry.path().string());
  }
  return files;
}

TEST(Stream, ShardBytesIndependentOfPoolWidth) {
  // A window's designs are produced, embedded and serialized on the pool;
  // their bytes must not depend on how many lanes it has. Three designs per
  // shard leave an uneven last shard. With five designs per family the 7
  // shards span two windows at width 4 (6 shards, then 1), three at width 2
  // (3, 3, 1) and four at width 1 (2, 2, 2, 1).
  struct Shape {
    bool hierarchical;
    int designs_per_family;
    std::size_t shards;
  };
  for (const Shape shape : {Shape{false, 1, 2}, Shape{true, 1, 2},
                            Shape{false, 5, 7}}) {
    StreamOptions so = small_stream_options(/*with_physical=*/true);
    so.designs_per_family = shape.designs_per_family;
    so.designs_per_shard = 3;
    so.hierarchical = shape.hierarchical;
    so.hierarchy.levels = 2;
    so.hierarchy.min_blocks_per_level = 2;
    so.hierarchy.max_blocks_per_level = 2;
    so.hierarchy.shared_blocks = 1;
    std::map<std::string, std::string> reference;
    for (const int width : {1, 2, 4}) {
      const WidthGuard guard(width);
      const std::string dir =
          temp_dir("nettag_stream_width" + std::to_string(width));
      EXPECT_TRUE(build_corpus_stream(dir, so, 0x5151).complete);
      const std::map<std::string, std::string> files = dir_files(dir);
      EXPECT_EQ(files.size(), shape.shards + 1);  // and the manifest
      if (width == 1) {
        reference = files;
      } else {
        EXPECT_TRUE(files == reference)
            << "hierarchical=" << shape.hierarchical << " designs/family "
            << shape.designs_per_family << " width " << width;
      }
      fs::remove_all(dir);
    }
  }
}

/// One design per shard: 4 shards, which one window holds at every width
/// above 1 (4 designs per lane already fill it at width 2); at width 1 a
/// window is one shard.
StreamOptions one_design_shards() {
  StreamOptions so = small_stream_options();
  so.designs_per_shard = 1;
  return so;
}

TEST(Stream, FailingCallbackCommitsExactlyTheShardsBeforeIt) {
  const StreamOptions so = one_design_shards();
  const std::string straight = temp_dir("nettag_stream_cb_straight");
  build_corpus_stream(straight, so, 0x77);
  const std::map<std::string, std::string> reference = dir_files(straight);
  ASSERT_EQ(reference.size(), 5u);
  fs::remove_all(straight);

  for (const int width : {1, 4}) {
    const WidthGuard guard(width);
    const std::string dir = temp_dir("nettag_stream_cb_failed");
    // At width 4 the window holds all 4 shards and the callback throws
    // inside it; at width 1 each shard is its own window. Either way it
    // throws after shard 1 is committed.
    EXPECT_THROW(build_corpus_stream(dir, so, 0x77,
                                     [](const ShardStats& st) {
                                       if (st.index == 1) {
                                         throw std::runtime_error("stop");
                                       }
                                     }),
                 std::runtime_error);
    std::vector<std::string> names;
    for (const auto& [name, bytes] : dir_files(dir)) names.push_back(name);
    EXPECT_EQ(names, (std::vector<std::string>{
                         "corpus.manifest", "shard_00000.nls",
                         "shard_00001.nls"}))
        << "width " << width;
    {
      const ShardedCorpus partial(dir);
      EXPECT_EQ(partial.num_shards(), 2u);
      EXPECT_FALSE(partial.complete());
    }
    const StreamProgress resumed = build_corpus_stream(dir, so, 0x77);
    EXPECT_EQ(resumed.shards_skipped, 2u);
    EXPECT_EQ(resumed.shards_written, 2u);
    EXPECT_TRUE(dir_files(dir) == reference) << "width " << width;
    fs::remove_all(dir);
  }
}

TEST(Stream, HaltInsideAWindowWritesExactlyTheHaltedShards) {
  StreamOptions so = one_design_shards();
  const std::string straight = temp_dir("nettag_stream_halt_straight");
  build_corpus_stream(straight, so, 0x78);
  const std::map<std::string, std::string> reference = dir_files(straight);
  fs::remove_all(straight);

  const WidthGuard guard(2);  // one window over all 4 shards, clipped to 3
  const std::string dir = temp_dir("nettag_stream_halt_window");
  so.halt_after_shards = 3;
  const StreamProgress halted = build_corpus_stream(dir, so, 0x78);
  EXPECT_EQ(halted.shards_written, 3u);
  EXPECT_FALSE(halted.complete);
  EXPECT_EQ(dir_files(dir).size(), 4u);  // 3 shards and the manifest
  EXPECT_EQ(ShardedCorpus(dir).num_shards(), 3u);
  so.halt_after_shards = 0;
  const StreamProgress resumed = build_corpus_stream(dir, so, 0x78);
  EXPECT_EQ(resumed.shards_written, 1u);
  EXPECT_TRUE(resumed.complete);
  EXPECT_TRUE(dir_files(dir) == reference);
  fs::remove_all(dir);
}

// --- crafted and mutated shards and manifests --------------------------------

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// The text before a shard's or manifest's final `checksum` line.
std::string without_checksum(const std::string& text) {
  return text.substr(0, text.rfind("checksum "));
}

/// `body` with a fresh checksum line, so the parser itself meets any edit.
std::string with_checksum(const std::string& body) {
  return body + "checksum " + crc32_hex(crc32(body)) + "\n";
}

/// Replaces the first line after the first that starts with `prefix`.
std::string replace_line(const std::string& text, const std::string& prefix,
                         const std::string& line) {
  const std::size_t at = text.find("\n" + prefix) + 1;
  EXPECT_NE(at, 0u) << prefix;
  return text.substr(0, at) + line + text.substr(text.find('\n', at));
}

/// The CRC-32 on the final `checksum` line of a shard or manifest.
std::string trailing_checksum(const std::string& text) {
  return text.substr(text.rfind("checksum ") + 9, 8);
}

/// The 1-based line of `text` that starts with `prefix`.
int line_of(const std::string& text, const std::string& prefix) {
  const std::size_t at = text.find("\n" + prefix) + 1;
  EXPECT_NE(at, 0u) << prefix;
  return static_cast<int>(std::count(text.begin(), text.begin() + at, '\n')) +
         1;
}

/// Writes `shard` (with its checksum line) as shard `index` of the corpus
/// in `dir` and lists that checksum in the shard's manifest row, so that a
/// reader built afterwards parses the shard instead of rejecting it as
/// another shard's file.
void write_listed_shard(const std::string& dir, std::size_t index,
                        const std::string& shard) {
  write_file(ShardedCorpus(dir).shard_path(index), shard);
  const std::string manifest_path = dir + "/corpus.manifest";
  const std::string manifest = without_checksum(read_file(manifest_path));
  const std::string key = "shard" + std::to_string(index) + " ";
  const std::size_t at = manifest.find("\n" + key) + 1;
  std::string row = manifest.substr(at, manifest.find('\n', at) - at);
  // "shard<i> <file> <crc32> <designs>": the CRC is the third word.
  row.replace(row.find(' ', row.find(' ') + 1) + 1, 8,
              trailing_checksum(shard));
  write_file(manifest_path, with_checksum(replace_line(manifest, key, row)));
}

/// Runs `load`, which must throw std::runtime_error naming `path`, a line
/// and `what` (and a byte offset, when `offset` is set).
template <class Load>
void expect_located_error(Load load, const std::string& path,
                          const std::string& what, bool offset) {
  try {
    load();
    ADD_FAILURE() << what << ": accepted";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find("line "), std::string::npos) << msg;
    EXPECT_NE(msg.find(what), std::string::npos) << msg;
    if (offset) EXPECT_NE(msg.find("byte offset "), std::string::npos) << msg;
  }
}

TEST(Stream, ExprsCountBeyondLinesLeftRejectedBeforeReserving) {
  const std::string dir = temp_dir("nettag_stream_exprs_count");
  build_corpus_stream(dir, small_stream_options(), 0x41);
  const std::string path = ShardedCorpus(dir).shard_path(0);
  // Four billion strings would reserve 128 GB; the shard has a few hundred
  // lines, so the count is refused before anything is reserved.
  write_listed_shard(dir, 0,
                     with_checksum(replace_line(
                         without_checksum(read_file(path)), "exprs ",
                         "exprs 4000000000")));
  expect_located_error([&] { ShardedCorpus(dir).load(0); }, path,
                       "exprs count 4000000000 exceeds", true);
  fs::remove_all(dir);
}

TEST(Stream, LayoutCountBeyondLinesLeftRejectedBeforeReserving) {
  const std::string dir = temp_dir("nettag_stream_layout_count");
  build_corpus_stream(dir, small_stream_options(), 0x42);
  const std::string path = ShardedCorpus(dir).shard_path(0);
  write_listed_shard(dir, 0,
                     with_checksum(replace_line(
                         without_checksum(read_file(path)), "layout ",
                         "layout 999999999 0")));
  expect_located_error([&] { ShardedCorpus(dir).load(0); }, path,
                       "layout node count 999999999 exceeds", true);
  fs::remove_all(dir);
}

TEST(Stream, ManifestSeedWithTrailingJunkRejected) {
  const std::string dir = temp_dir("nettag_manifest_seed");
  build_corpus_stream(dir, small_stream_options(), 0x43);
  const std::string manifest = dir + "/corpus.manifest";
  write_file(manifest,
             with_checksum(replace_line(without_checksum(read_file(manifest)),
                                        "seed ", "seed 20x5")));
  expect_located_error([&] { ShardedCorpus c(dir); }, manifest,
                       "line 2: key 'seed'", false);
  fs::remove_all(dir);
}

TEST(Stream, ManifestShardRowDesignCountWithTrailingJunkRejected) {
  const std::string dir = temp_dir("nettag_manifest_row");
  build_corpus_stream(dir, small_stream_options(), 0x44);
  const std::string manifest = dir + "/corpus.manifest";
  const std::string text = without_checksum(read_file(manifest));
  const std::size_t row = text.find("\nshard0 ") + 1;
  const std::string line = text.substr(row, text.find('\n', row) - row);
  write_file(manifest,
             with_checksum(replace_line(text, "shard0 ", line + "x")));
  expect_located_error([&] { ShardedCorpus c(dir); }, manifest,
                       "key 'shard0'", false);
  fs::remove_all(dir);
}

TEST(Stream, ManifestKHopOutOfRangeNamesKeyAndLine) {
  const std::string dir = temp_dir("nettag_manifest_khop");
  build_corpus_stream(dir, small_stream_options(), 0x45);
  const std::string manifest = dir + "/corpus.manifest";
  write_file(manifest,
             with_checksum(replace_line(without_checksum(read_file(manifest)),
                                        "k_hop ", "k_hop 99999999999")));
  expect_located_error([&] { ShardedCorpus c(dir); }, manifest,
                       "line 7: key 'k_hop'", false);
  fs::remove_all(dir);
}

TEST(Stream, RepeatedManifestKeyRejectedNamingBothLines) {
  // A manifest edited by hand, its checksum recomputed: a second `k_hop`
  // line with another value, or a second `shard0` row. The reader and a
  // resumed build both refuse it, naming both lines.
  const std::string dir = temp_dir("nettag_manifest_repeat");
  StreamOptions halted = small_stream_options();
  halted.halt_after_shards = 1;
  build_corpus_stream(dir, halted, 0x48);
  const std::string manifest = dir + "/corpus.manifest";
  const std::string text = without_checksum(read_file(manifest));
  for (const std::string key : {"k_hop", "shard0"}) {
    const int first = line_of(text, key + " ");
    const std::size_t at = text.find("\n" + key + " ") + 1;
    const std::size_t next = text.find('\n', at) + 1;
    const std::string repeat =
        key == "k_hop" ? "k_hop 3\n" : text.substr(at, next - at);
    write_file(manifest, with_checksum(text.substr(0, next) + repeat +
                                       text.substr(next)));
    const std::string what = "line " + std::to_string(first + 1) +
                             ": duplicate key '" + key + "' (first on line " +
                             std::to_string(first) + ")";
    expect_located_error([&] { ShardedCorpus c(dir); }, manifest, what,
                         false);
    expect_located_error(
        [&] { build_corpus_stream(dir, small_stream_options(), 0x48); },
        manifest, what, false);
  }
  EXPECT_FALSE(fs::exists(dir + "/shard_00001.nls"));
  fs::remove_all(dir);
}

TEST(Stream, SwappedShardRejectedAgainstManifestRow) {
  // Shard 1 copied over shard 0 is intact, so its own checksum line holds;
  // shard 0's manifest row lists another checksum.
  const std::string dir = temp_dir("nettag_stream_swapped");
  build_corpus_stream(dir, small_stream_options(), 0x46);
  const ShardedCorpus corpus(dir);
  const std::string manifest = dir + "/corpus.manifest";
  const std::string shard0 = read_file(corpus.shard_path(0));
  const std::string shard1 = read_file(corpus.shard_path(1));
  const std::string crc0 = trailing_checksum(shard0);
  const std::string crc1 = trailing_checksum(shard1);
  ASSERT_NE(crc0, crc1);
  write_file(corpus.shard_path(0), shard1);
  const int line = line_of(read_file(manifest), "shard0 ");
  const std::string row =
      manifest + ": line " + std::to_string(line) + ", key 'shard0'";
  expect_located_error([&] { corpus.load(0); }, corpus.shard_path(0),
                       "checksum " + crc1 + " differs from " + crc0 +
                           ", listed by corpus manifest " + row,
                       true);
  EXPECT_NO_THROW(corpus.load(1));
  write_file(corpus.shard_path(0), shard0);
  EXPECT_NO_THROW(corpus.load(0));
  fs::remove_all(dir);
}

TEST(Stream, ShardDesignCountRejectedAgainstManifestRow) {
  const std::string dir = temp_dir("nettag_stream_row_designs");
  build_corpus_stream(dir, small_stream_options(), 0x47);
  const std::string manifest = dir + "/corpus.manifest";
  const std::string text = without_checksum(read_file(manifest));
  const std::size_t at = text.find("\nshard1 ") + 1;
  std::string row = text.substr(at, text.find('\n', at) - at);
  ASSERT_EQ(row.substr(row.size() - 2), " 2") << row;
  row.back() = '3';
  write_file(manifest, with_checksum(replace_line(text, "shard1 ", row)));
  const ShardedCorpus corpus(dir);
  EXPECT_NO_THROW(corpus.load(0));
  const std::string line = "line " + std::to_string(line_of(text, "shard1 "));
  expect_located_error([&] { corpus.load(1); }, corpus.shard_path(1),
                       "2 designs differ from 3, listed by corpus manifest " +
                           manifest + ": " + line + ", key 'shard1'",
                       true);
  fs::remove_all(dir);
}

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Every field of two loaded shards is equal: doubles by their bits,
/// netlists by their text.
void expect_same_shard(const ShardedCorpus::Shard& a,
                       const ShardedCorpus::Shard& b, const std::string& ctx) {
  EXPECT_EQ(a.corpus.families, b.corpus.families) << ctx;
  EXPECT_EQ(a.exprs, b.exprs) << ctx;
  ASSERT_EQ(a.corpus.designs.size(), b.corpus.designs.size()) << ctx;
  for (std::size_t d = 0; d < a.corpus.designs.size(); ++d) {
    const DesignSample& x = a.corpus.designs[d];
    const DesignSample& y = b.corpus.designs[d];
    const std::string at = ctx + " design " + std::to_string(d);
    EXPECT_EQ(netlist_to_string(x.gen.netlist),
              netlist_to_string(y.gen.netlist))
        << at;
    EXPECT_EQ(x.gen.rtl_text, y.gen.rtl_text) << at;
    EXPECT_EQ(x.gen.reg_rtl, y.gen.reg_rtl) << at;
    const std::vector<std::uint64_t> xl = {
        bits_of(x.area_wo_opt), bits_of(x.power_wo_opt),
        bits_of(x.area_w_opt),  bits_of(x.power_w_opt),
        bits_of(x.tool_area),   bits_of(x.tool_power),
        bits_of(x.pr_runtime_seconds)};
    const std::vector<std::uint64_t> yl = {
        bits_of(y.area_wo_opt), bits_of(y.power_wo_opt),
        bits_of(y.area_w_opt),  bits_of(y.power_w_opt),
        bits_of(y.tool_area),   bits_of(y.tool_power),
        bits_of(y.pr_runtime_seconds)};
    EXPECT_EQ(xl, yl) << at;
    ASSERT_EQ(x.cones.size(), y.cones.size()) << at;
    for (std::size_t c = 0; c < x.cones.size(); ++c) {
      const ConeSample& p = x.cones[c];
      const ConeSample& q = y.cones[c];
      const std::string cat = at + " cone " + std::to_string(c);
      EXPECT_EQ(netlist_to_string(p.cone), netlist_to_string(q.cone)) << cat;
      EXPECT_EQ(p.rtl_text, q.rtl_text) << cat;
      EXPECT_EQ(p.family, q.family) << cat;
      EXPECT_EQ(p.design, q.design) << cat;
      EXPECT_EQ(p.register_name, q.register_name) << cat;
      EXPECT_EQ(p.is_state_reg, q.is_state_reg) << cat;
      EXPECT_EQ(p.has_layout, q.has_layout) << cat;
      EXPECT_EQ(bits_of(p.slack_label), bits_of(q.slack_label)) << cat;
      EXPECT_EQ(bits_of(p.clock_period), bits_of(q.clock_period)) << cat;
      ASSERT_EQ(p.layout.node_feats.size(), q.layout.node_feats.size()) << cat;
      for (std::size_t n = 0; n < p.layout.node_feats.size(); ++n) {
        for (std::size_t f = 0; f < 6; ++f) {
          ASSERT_EQ(bits_of(p.layout.node_feats[n][f]),
                    bits_of(q.layout.node_feats[n][f]))
              << cat << " node " << n << " feature " << f;
        }
      }
      EXPECT_EQ(p.layout.edges, q.layout.edges) << cat;
    }
  }
}

TEST(Stream, MutatedShardsParseOrFailWithLocation) {
  // Seeded mutants of a one-design shard, each re-checksummed and listed
  // with that checksum in the manifest so the parser meets it: truncations,
  // byte flips, deleted and duplicated lines. Each must load, or throw
  // std::runtime_error naming the shard, a line and a byte offset; none may
  // crash or throw anything else.
  const std::string dir = temp_dir("nettag_stream_mutants");
  StreamOptions so = small_stream_options(/*with_physical=*/true);
  so.designs_per_shard = 1;
  build_corpus_stream(dir, so, 0x46);
  const std::string path = ShardedCorpus(dir).shard_path(0);
  const std::string body = without_checksum(read_file(path));
  std::vector<std::size_t> line_starts = {0};
  for (std::size_t i = 0; i + 1 < body.size(); ++i) {
    if (body[i] == '\n') line_starts.push_back(i + 1);
  }
  line_starts.push_back(body.size());
  const auto line_at = [&](std::size_t k) {
    return body.substr(line_starts[k], line_starts[k + 1] - line_starts[k]);
  };
  // Each mutant loads at width 1 and at width 4, where the shard's blocks
  // are parsed on the pool: the outcome, the error text and the loaded
  // shard must not depend on the width.
  const auto load_at = [&](int width, ShardedCorpus::Shard* shard) {
    const WidthGuard guard(width);
    try {
      *shard = ShardedCorpus(dir).load(0);
      return std::string();
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
  };
  Rng rng(0x3a7e);
  int loaded = 0, rejected = 0;
  for (int t = 0; t < 400; ++t) {
    std::string m = body;
    const std::size_t k = rng.index(line_starts.size() - 1);
    switch (t % 4) {
      case 0:
        m.resize(rng.index(m.size() + 1));
        break;
      case 1:
        m[rng.index(m.size())] = static_cast<char>(rng.index(256));
        break;
      case 2:
        m.erase(line_starts[k], line_starts[k + 1] - line_starts[k]);
        break;
      default:
        m.insert(line_starts[k], line_at(k));
        break;
    }
    write_listed_shard(dir, 0, with_checksum(m));
    ShardedCorpus::Shard serial, pooled;
    const std::string msg = load_at(1, &serial);
    ASSERT_EQ(load_at(4, &pooled), msg) << "mutant " << t;
    if (msg.empty()) {
      ++loaded;
      expect_same_shard(pooled, serial, "mutant " + std::to_string(t));
    } else {
      ++rejected;
      ASSERT_EQ(msg.rfind("shard " + path + ": ", 0), 0u) << msg;
      ASSERT_NE(msg.find("(line "), std::string::npos) << msg;
      ASSERT_NE(msg.find("byte offset "), std::string::npos) << msg;
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GT(loaded, 0);  // byte flips inside RTL text still parse
  fs::remove_all(dir);
}

TEST(Stream, LoadIdenticalAtEveryWidth) {
  // A shard's embedded netlists and layouts are parsed on the pool; what
  // load returns must not depend on the width.
  const std::string dir = temp_dir("nettag_stream_load_width");
  StreamOptions so = small_stream_options(/*with_physical=*/true);
  so.hierarchical = true;
  so.hierarchy.levels = 2;
  so.hierarchy.min_blocks_per_level = 2;
  so.hierarchy.max_blocks_per_level = 2;
  so.hierarchy.shared_blocks = 1;
  build_corpus_stream(dir, so, 0x5152);
  const ShardedCorpus corpus(dir);
  ASSERT_EQ(corpus.num_shards(), 2u);
  for (std::size_t s = 0; s < corpus.num_shards(); ++s) {
    std::vector<ShardedCorpus::Shard> loads;
    for (const int width : {1, 2, 4}) {
      const WidthGuard guard(width);
      loads.push_back(corpus.load(s));
    }
    std::size_t layout_nodes = 0;
    for (const DesignSample& ds : loads[0].corpus.designs) {
      for (const ConeSample& cone : ds.cones) {
        layout_nodes += cone.layout.node_feats.size();
      }
    }
    EXPECT_GT(layout_nodes, 0u) << "shard " << s;
    expect_same_shard(loads[1], loads[0], "shard " + std::to_string(s) +
                                              " width 2");
    expect_same_shard(loads[2], loads[0], "shard " + std::to_string(s) +
                                              " width 4");
  }
  fs::remove_all(dir);
}

TEST(Stream, SignedLayoutValueRejectedWithLocation) {
  // The writer never emits a leading '+', and the reader takes only what
  // std::from_chars takes.
  const std::string dir = temp_dir("nettag_stream_plus_sign");
  build_corpus_stream(dir, small_stream_options(/*with_physical=*/true), 0x48);
  const std::string path = ShardedCorpus(dir).shard_path(0);
  const std::string body = without_checksum(read_file(path));
  const std::size_t at = body.find("\nn ") + 1;
  ASSERT_NE(at, 0u);
  const std::size_t first_end = body.find(' ', at + 2);
  const std::string mutated =
      body.substr(0, at + 2) + "+0.5" + body.substr(first_end);
  write_listed_shard(dir, 0, with_checksum(mutated));
  // The cursor has passed the bad line: it names the next line's number
  // and its first byte.
  const std::size_t next = mutated.find('\n', at) + 1;
  const std::string where =
      "bad node feature: +0.5 (line " +
      std::to_string(line_of(mutated, "n ") + 1) + ", byte offset " +
      std::to_string(next) + ")";
  for (const int width : {1, 4}) {
    const WidthGuard guard(width);
    expect_located_error([&] { ShardedCorpus(dir).load(0); }, path, where,
                         true);
  }
  fs::remove_all(dir);
}

TEST(Stream, FirstErrorInFileOrderAtEveryWidth) {
  // Three defects: a bad layout value and a broken netlist in a later cone,
  // which are parsed as separate pool items, then a wrong design count in
  // the end marker, which the structural pass meets. A serial reader stops
  // at the first; so must the pooled one, at any width.
  const std::string dir = temp_dir("nettag_stream_two_defects");
  build_corpus_stream(dir, small_stream_options(/*with_physical=*/true), 0x49);
  const std::string path = ShardedCorpus(dir).shard_path(0);
  std::string body = without_checksum(read_file(path));
  const std::size_t node = body.find("\nn ") + 1;
  ASSERT_NE(node, 0u);
  ASSERT_EQ(body.rfind("\ncone ", node), body.find("\ncone "))
      << "the first layout line belongs to cone 0";
  body[node + 2] = 'x';
  const std::size_t later = body.find("\nconenet ", node);
  ASSERT_NE(later, std::string::npos);
  const std::size_t blob = body.find('\n', later + 1) + 1;
  ASSERT_EQ(body.compare(blob, 7, "module "), 0);
  body[blob] = 'X';  // "Xodule": the netlist reader rejects it
  body.replace(body.rfind("\nend ") + 1, std::string::npos, "end 9\n");
  write_listed_shard(dir, 0, with_checksum(body));
  const std::string want =
      "(line " + std::to_string(line_of(body, "n ") + 1) + ", byte offset " +
      std::to_string(body.find('\n', node) + 1) + ")";
  std::vector<std::string> messages;
  for (const int width : {1, 4}) {
    const WidthGuard guard(width);
    try {
      ShardedCorpus(dir).load(0);
      ADD_FAILURE() << "width " << width << ": accepted";
    } catch (const std::runtime_error& e) {
      messages.push_back(e.what());
    }
  }
  ASSERT_EQ(messages.size(), 2u);
  EXPECT_EQ(messages[0], messages[1]);
  EXPECT_EQ(messages[0].rfind("shard " + path + ": bad node feature: ", 0),
            0u)
      << messages[0];
  EXPECT_NE(messages[0].find(want), std::string::npos) << messages[0];
  fs::remove_all(dir);
}

// --- streaming pre-training with mid-corpus resume ---------------------------

NetTagConfig tiny_config() {
  NetTagConfig cfg;
  cfg.expr_llm = TextEncoderConfig::tiny();
  cfg.tag_d_model = 32;
  cfg.out_dim = 24;
  return cfg;
}

PretrainOptions stream_pretrain_options() {
  PretrainOptions po;
  po.expr_steps = 4;  // 2 shards -> 2 expr + 2 tag steps per shard
  po.tag_steps = 4;
  po.aux_steps = 0;
  po.max_expressions = 60;
  po.max_cones = 8;
  po.objective_align = false;
  return po;
}

/// A corpus directory that lives as long as the process: built on first use
/// and removed when the process exits.
struct ProcessCorpus {
  std::string dir;
  ProcessCorpus()
      : dir(temp_dir("nettag_stream_pretrain_corpus." +
                     std::to_string(::getpid()))) {
    build_corpus_stream(dir, small_stream_options(), 0x77);
  }
  ProcessCorpus(const ProcessCorpus&) = delete;
  ProcessCorpus& operator=(const ProcessCorpus&) = delete;
  ~ProcessCorpus() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

const std::string& shared_stream_dir() {
  // ctest runs each TEST in its own process, possibly in parallel, so the
  // corpus path must be per-process: a fixed path would let one process
  // remove_all the directory while another is mid-read.
  static const ProcessCorpus corpus;
  return corpus.dir;
}

std::vector<float> model_params(const NetTag& model) {
  std::vector<float> out = flatten_param_values(model.expr_llm().params());
  const std::vector<float> tag =
      flatten_param_values(model.tagformer().params());
  out.insert(out.end(), tag.begin(), tag.end());
  return out;
}

void remove_checkpoint(const std::string& prefix) {
  std::remove((prefix + ".ckpt").c_str());
}

/// The trainer section of the checkpoint under `prefix`.
TrainState saved_state(const std::string& prefix) {
  NetTag model(tiny_config(), 1);
  return load_train_checkpoint(model, prefix);
}

struct RunResult {
  std::vector<float> params;
  PretrainReport report;
};

RunResult run_streaming(const std::string& prefix, long halt_after) {
  NetTag model(tiny_config(), 5);
  const ShardedCorpus corpus(shared_stream_dir());
  PretrainOptions po = stream_pretrain_options();
  po.checkpoint.prefix = prefix;
  po.checkpoint.halt_after_steps = halt_after;
  Rng rng(7);
  RunResult out;
  out.report = pretrain_streaming(model, corpus, po, rng);
  out.params = model_params(model);
  return out;
}

RunResult resume_streaming(const std::string& prefix, long halt_after = -1) {
  NetTag model(tiny_config(), 99);  // trained state must come from the disk
  const ShardedCorpus corpus(shared_stream_dir());
  PretrainOptions po = stream_pretrain_options();
  po.checkpoint.prefix = prefix;
  po.checkpoint.halt_after_steps = halt_after;
  Rng rng(7);
  RunResult out;
  out.report = resume_pretrain_streaming(model, corpus, po, rng);
  out.params = model_params(model);
  return out;
}

void expect_identical_params(const RunResult& resumed,
                             const RunResult& baseline) {
  ASSERT_EQ(resumed.params.size(), baseline.params.size());
  for (std::size_t i = 0; i < resumed.params.size(); ++i) {
    ASSERT_EQ(resumed.params[i], baseline.params[i]) << "param lane " << i;
  }
}

TEST(StreamPretrain, SplitsStepBudgetAcrossShards) {
  const RunResult full = run_streaming("", -1);
  EXPECT_FALSE(full.report.interrupted);
  // Both shards trained: the concatenated curves carry the full budget.
  EXPECT_EQ(full.report.expr_losses.size(), 4u);
  EXPECT_EQ(full.report.tag_losses.size(), 4u);
  EXPECT_GT(full.report.expr_dataset_size, 0u);
  EXPECT_GT(full.report.cones_used, 0u);
}

TEST(StreamPretrain, MidCorpusResumeBitIdentical) {
  const std::string prefix =
      (fs::temp_directory_path() / "nettag_stream_resume_mid").string();
  const RunResult baseline = run_streaming("", -1);

  // Shard 0 runs 2 expr + 2 tag steps; halting after 5 lands inside shard 1,
  // so the checkpoint must carry shard_index = 1 plus the intra-shard cursor.
  const RunResult halted = run_streaming(prefix, /*halt_after=*/5);
  EXPECT_TRUE(halted.report.interrupted);
  const TrainState st = saved_state(prefix);
  EXPECT_EQ(st.shard_index, 1u);
  EXPECT_EQ(st.phase, "expr");

  const RunResult resumed = resume_streaming(prefix);
  EXPECT_FALSE(resumed.report.interrupted);
  expect_identical_params(resumed, baseline);
  // The resumed call reports the shards it touched: all of shard 1's curve.
  const std::vector<float> tail_expr(baseline.report.expr_losses.begin() + 2,
                                     baseline.report.expr_losses.end());
  const std::vector<float> tail_tag(baseline.report.tag_losses.begin() + 2,
                                    baseline.report.tag_losses.end());
  EXPECT_EQ(resumed.report.expr_losses, tail_expr);
  EXPECT_EQ(resumed.report.tag_losses, tail_tag);
  remove_checkpoint(prefix);
}

TEST(StreamPretrain, FirstShardInterruptionChainsToIdenticalEnd) {
  const std::string prefix =
      (fs::temp_directory_path() / "nettag_stream_resume_first").string();
  const RunResult baseline = run_streaming("", -1);

  // Stop inside shard 0's tag phase, resume, stop again inside shard 1, and
  // finish: two generations of mid-corpus checkpoints.
  const RunResult halted = run_streaming(prefix, /*halt_after=*/3);
  EXPECT_TRUE(halted.report.interrupted);
  EXPECT_EQ(saved_state(prefix).shard_index, 0u);

  const RunResult mid = resume_streaming(prefix, /*halt_after=*/3);
  EXPECT_TRUE(mid.report.interrupted);
  EXPECT_EQ(saved_state(prefix).shard_index, 1u);

  const RunResult resumed = resume_streaming(prefix);
  expect_identical_params(resumed, baseline);
  remove_checkpoint(prefix);
}

TEST(StreamPretrain, ResumeAtAnotherWidthBitIdentical) {
  const std::string prefix =
      (fs::temp_directory_path() / "nettag_stream_resume_width").string();
  RunResult baseline;
  {
    const WidthGuard width(2);
    baseline = run_streaming("", -1);
  }
  // Halt inside shard 0's tag phase at width 3, then finish at width 1:
  // the checkpoint carries no trace of the width it was written at.
  {
    const WidthGuard width(3);
    EXPECT_TRUE(run_streaming(prefix, /*halt_after=*/3).report.interrupted);
  }
  const TrainState st = saved_state(prefix);
  EXPECT_EQ(st.shard_index, 0u);
  EXPECT_EQ(st.phase, "tag");
  RunResult resumed;
  {
    const WidthGuard width(1);
    resumed = resume_streaming(prefix);
  }
  EXPECT_FALSE(resumed.report.interrupted);
  expect_identical_params(resumed, baseline);
  EXPECT_EQ(resumed.report.expr_losses, baseline.report.expr_losses);
  EXPECT_EQ(resumed.report.tag_losses, baseline.report.tag_losses);
  remove_checkpoint(prefix);
}

TEST(StreamPretrain, CompletedRunResumesAsNoOp) {
  const std::string prefix =
      (fs::temp_directory_path() / "nettag_stream_resume_done").string();
  const RunResult finished = run_streaming(prefix, -1);
  EXPECT_FALSE(finished.report.interrupted);
  const TrainState st = saved_state(prefix);
  EXPECT_EQ(st.phase, "done");
  EXPECT_EQ(st.shard_index, 1u);  // last shard

  const RunResult again = resume_streaming(prefix);
  EXPECT_FALSE(again.report.interrupted);
  expect_identical_params(again, finished);
  remove_checkpoint(prefix);
}

TEST(StreamPretrain, IncompleteCorpusRejected) {
  const std::string dir = temp_dir("nettag_stream_incomplete");
  StreamOptions so = small_stream_options();
  so.halt_after_shards = 1;
  build_corpus_stream(dir, so, 0x31);
  NetTag model(tiny_config(), 5);
  const ShardedCorpus corpus(dir);
  PretrainOptions po = stream_pretrain_options();
  Rng rng(7);
  EXPECT_THROW(pretrain_streaming(model, corpus, po, rng), std::runtime_error);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace nettag
