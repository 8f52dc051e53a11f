// Checksummed "key value" text manifests: the corpus manifest and
// nettag_train's `<prefix>.run` (checkpoints: core/checkpoint.cpp). The
// writer renames a complete temp file onto its path (util/atomic_io.hpp); the
// reader checks the trailing CRC-32 line before it returns an entry
// (docs/ARCHITECTURE.md §8).
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace nettag {

/// Writes a "key value" text manifest, one pair per line, order preserved,
/// via temp+rename. Keys must be non-empty and contain no whitespace; values
/// may contain spaces but no newlines. A final "checksum <crc32-hex>" line
/// covering every preceding byte is appended automatically (the key
/// "checksum" is therefore reserved).
void save_manifest(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& entries);

/// Parses a manifest written by save_manifest. Blank lines and lines
/// starting with '#' are skipped. The trailing checksum line is verified and
/// stripped from the result; a manifest without one, or whose bytes do not
/// match it (truncation, corruption, hand edits), is rejected. When
/// `linenos` is non-null it receives the 1-based source line of each
/// returned entry (duplicate-key diagnostics), and a non-null `checksum`
/// receives the verified checksum's hex text. Throws std::runtime_error on
/// I/O failure, a line with no value, or checksum mismatch.
std::vector<std::pair<std::string, std::string>> load_manifest(
    const std::string& path, std::vector<int>* linenos = nullptr,
    std::string* checksum = nullptr);

}  // namespace nettag
