// Durable files (docs/ARCHITECTURE.md §8): every checkpoint, corpus shard
// and manifest the repo writes goes through write_file_atomically, shards
// and manifests are read back whole by read_whole_file, and the `key value`
// records among them (the checkpoint header, the corpus manifest and
// nettag_train's `<prefix>.run`) are parsed by KeyValues.
//
// write_file_atomically puts the payload in `<path>.tmp.<pid>.<n>` (`n` a
// per-process counter, so no two live writers of one path share a temp
// file), fsyncs it, renames it onto the path and fsyncs the directory. A
// rename within one directory is atomic, so a reader sees the old file or
// the new one, never a torn mix, and the two fsyncs keep a power loss from
// committing a renamed but empty file. Last rename wins; both files are
// whole. A writer killed mid-save leaves its temp file behind: the next
// write of the same path removes it once kill(pid, 0) reports its pid gone.
// A temp named with this process's pid, or with a live one, is never
// removed (EPERM counts as alive).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nettag {

/// Replaces `path` with `bytes` as above, first removing `path`'s dead
/// writers' temp files. Throws std::runtime_error naming the path on any
/// open, write, sync or rename failure; the temp file is then removed and
/// the path keeps its previous content.
void write_file_atomically(const std::string& path, std::string_view bytes);

/// The whole of `path`, read with read(2). Throws std::runtime_error naming
/// the path when it cannot be opened or read.
std::string read_whole_file(const std::string& path);

/// A `key value` record: one pair per line, the key up to the first space
/// and the value, never empty, the rest of the line. A key appears once.
/// Every error names `source` (the file, say "corpus manifest
/// /c/corpus.manifest"), the line and the key.
class KeyValues {
 public:
  /// Throws on a line that is not a pair, and on a repeated key, naming
  /// both of its lines.
  KeyValues(std::string_view text, std::string source);

  bool has(std::string_view key) const;
  /// `key`'s value; throws "<source>: missing key '<key>'" without it.
  const std::string& get(std::string_view key) const;
  /// `key`'s value read by cli::parse_int within [lo, hi].
  long long get_int(std::string_view key, long long lo, long long hi) const;
  /// `key`'s value read by cli::parse_u64.
  std::uint64_t get_u64(std::string_view key) const;
  /// `key`'s value, which must be `0` or `1`.
  bool get_bool(std::string_view key) const;
  /// The 1-based line that holds `key`.
  int line(std::string_view key) const;
  /// Throws "<source>: line <n>: key '<key>': <why>".
  [[noreturn]] void fail(std::string_view key, const std::string& why) const;

 private:
  struct Value {
    std::string text;
    int line;
  };
  const Value& find(std::string_view key) const;

  std::map<std::string, Value, std::less<>> values_;
  std::string source_;
};

/// Writes `entries` as `key value` lines and a last `checksum <crc32-hex>`
/// line over every byte before it, through write_file_atomically. Keys must
/// be non-empty and hold no whitespace, values no newline; the key
/// `checksum` is reserved.
void save_manifest(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& entries);

/// Reads a manifest save_manifest wrote, checking its checksum line against
/// every byte before it (truncation, corruption, hand edits) before it
/// parses them; errors name `source`. A non-null `checksum` receives the
/// checksum's hex text.
KeyValues load_manifest(const std::string& path, const std::string& source,
                        std::string* checksum = nullptr);

}  // namespace nettag
