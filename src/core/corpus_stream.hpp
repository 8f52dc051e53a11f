// Streaming repository-scale corpus: produce -> lint -> embed -> write ->
// discard, one window of shards at a time, so dataset size is bounded by the
// window rather than by RAM.
//
// The pipeline generates designs in a fixed global order (families
// round-robin, one `Rng::fork()` per design off the root seed) and groups
// them into shards of `designs_per_shard`. It works through the shards a
// window at a time: the fewest whole shards that give every pool lane four
// designs, or one shard at pool width 1. One pool item per design of the
// window, started largest first, assembles it (physical flow + register
// cones), lints it, derives every cone's k-hop expressions once (the *embed*
// stage; readers never recompute them), serializes it into its block of
// shard text and frees it.
// The window's shards are then committed in order on the calling thread:
// each passes the corpus lint gate (`enforce_clean` per shard — the same
// rules build_corpus applies to the whole corpus) and becomes one text shard
// file. Peak memory is the window's shard text plus one design per lane.
//
// Durability contract (docs/ARCHITECTURE.md §13):
//   * Shard files are written by write_file_atomically: data fsync'd before
//     the rename, parent directory fsync'd after — a reader never sees a
//     torn shard and power loss cannot commit an empty one.
//   * Every shard ends with a `checksum <crc32>` line over all preceding
//     bytes (same convention as checkpoint manifests). Truncation or
//     corruption is rejected with the exact byte offset and line — never
//     silently skipped.
//   * The corpus manifest is atomically rewritten after each shard commit
//     and lists only committed shards. A kill -9 at *any* point loses at
//     most the in-flight window; resuming replays the committed prefix by
//     consuming its RNG forks (no recompute) and regenerates the remainder
//     bit-identically — shard generation depends only on (seed, options,
//     design index), never on wall clock or process state.
//
// Shard format (text, line-oriented; BLOB = `<n>\n` + n raw bytes + `\n`):
//   nettag-shard v1
//   design <name> <family>
//   labels <area_wo> <power_wo> <area_w> <power_w> <tool_area> <tool_power>
//          <pr_runtime>                      (one line)
//   rtl BLOB                                 (full-design pseudo-Verilog)
//   regrtl <count>   then per entry: reg <name> BLOB
//   netlist BLOB                             (netlist/io.hpp format)
//   cones <count>    then per cone:
//     cone <register> <is_state 0|1> <has_layout 0|1> <slack> <clock>
//     rtl BLOB
//     conenet BLOB
//     exprs <count>  then per expression: e <expression text>
//     layout <nodes> <edges>  then `n <6 feats>` lines, `g <u> <v>` lines
//     endcone
//   enddesign
//   end <design count>
//   checksum <crc32 hex>
// Every real number is printf's %.17g text, written and read back exactly
// by util/numbers.hpp; the reader takes nothing else (no leading '+', no
// hex float).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "rtlgen/hierarchy.hpp"

namespace nettag {

/// Streaming-corpus shape. Deterministic: (seed, options) fully determine
/// every shard byte.
struct StreamOptions {
  CorpusOptions corpus;        ///< per-design knobs (flow, k_hop)
  int designs_per_family = 8;  ///< total designs per family, across shards
  /// Shard granularity. Peak RAM is bounded by the window, the fewest whole
  /// shards that hold four designs per pool lane (one shard at width 1).
  int designs_per_shard = 4;
  bool hierarchical = true;    ///< hierarchical vs flat designs
  HierarchyOptions hierarchy;
  /// Test hook: stop after writing this many *new* shards (0 = run to
  /// completion). The manifest stays resumable.
  int halt_after_shards = 0;
};

/// Per-shard accounting reported through the progress callback.
struct ShardStats {
  std::size_t index = 0;
  std::string path;
  std::size_t designs = 0;
  std::size_t cones = 0;
  std::size_t gates = 0;        ///< summed netlist gate counts
  std::size_t expressions = 0;  ///< embedded k-hop expressions
  std::size_t bytes = 0;        ///< shard file size
  bool skipped = false;         ///< already committed by a previous run
};

/// Aggregate result of one build_corpus_stream run.
struct StreamProgress {
  std::size_t shards_total = 0;
  std::size_t shards_written = 0;  ///< newly committed by this run
  std::size_t shards_skipped = 0;  ///< committed by a previous run
  std::size_t designs = 0;         ///< over newly written shards
  std::size_t cones = 0;
  std::size_t gates = 0;
  std::size_t expressions = 0;
  bool complete = false;           ///< manifest marked complete
};

/// Builds (or resumes building) the sharded corpus under `dir`. Creates the
/// directory when missing, validates that an existing manifest holds no
/// repeated key and was produced with the same seed/options (throws
/// std::runtime_error otherwise), skips the `shards` it lists by consuming
/// their RNG forks, and streams out the rest. Each shard and manifest write
/// removes that path's dead writers' temp files (util/atomic_io.hpp). `on_shard` (optional) fires on the
/// calling thread after every shard, including skipped ones, in shard
/// order. When a shard fails (a design that cannot be produced, a lint
/// error, or `on_shard` throwing) the exception reaches the caller with
/// every earlier shard committed and no later one.
StreamProgress build_corpus_stream(
    const std::string& dir, const StreamOptions& options, std::uint64_t seed,
    const std::function<void(const ShardStats&)>& on_shard = nullptr);

/// Reader over a committed shard directory. Construction validates the
/// manifest (format, checksum, option record); `load()` materializes one
/// shard at a time so training never holds more than a shard in RAM.
class ShardedCorpus {
 public:
  explicit ShardedCorpus(const std::string& dir);

  std::size_t num_shards() const { return shards_.size(); }
  bool complete() const { return complete_; }
  std::uint64_t seed() const { return seed_; }
  int k_hop() const { return k_hop_; }
  const std::vector<std::string>& families() const { return families_; }
  /// Designs summed over committed shards.
  std::size_t total_designs() const { return total_designs_; }
  /// The manifest's checksum line: it covers the options and every shard
  /// row with its CRC, so a rebuilt corpus gets a different one.
  const std::string& checksum() const { return checksum_; }

  struct Shard {
    Corpus corpus;           ///< families mirrors ShardedCorpus::families()
    CorpusExpressions exprs; ///< [design][cone] — embedded at write time
  };

  /// Loads shard `index` fully; its embedded netlists and layouts are
  /// parsed on the pool. Throws std::runtime_error with the shard path plus
  /// byte offset and line on truncation or corruption (the first error in
  /// file order, at any width), or when the shard's checksum line or design
  /// count differs from its manifest row (another intact shard copied over
  /// this one); that error also names the manifest line and both values.
  Shard load(std::size_t index) const;

  /// Path of shard `index` (for tooling/diagnostics).
  const std::string& shard_path(std::size_t index) const {
    return shards_.at(index).path;
  }

 private:
  /// One manifest row: `shard<i> <file> <crc32> <designs>`.
  struct ShardRow {
    std::string path;     ///< dir + "/" + file
    std::string crc;      ///< the checksum the shard's last line must carry
    std::size_t designs;  ///< the designs the shard must hold
    int line;             ///< the row's line in the manifest
  };

  std::string dir_;
  std::string manifest_path_;
  std::vector<ShardRow> shards_;  // shard order
  std::vector<std::string> families_;
  std::uint64_t seed_ = 0;
  int k_hop_ = 2;
  std::size_t total_designs_ = 0;
  bool complete_ = false;
  std::string checksum_;
};

}  // namespace nettag
