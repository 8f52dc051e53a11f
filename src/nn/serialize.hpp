// Parameter (de)serialization so pre-trained NetTAG models can be saved and
// reloaded (the paper releases pre-trained weights; we do the same).
//
// Crash-safety contract (docs/ARCHITECTURE.md §8): every writer here emits
// to `<path>.tmp` and renames onto the final path (util/atomic_io.hpp), so a
// reader never observes a torn file; every reader validates the complete
// file — exact payload size for binary parameter files, a trailing CRC-32
// line for text manifests — *before* mutating any caller state, so a load
// either succeeds fully or throws with the target untouched.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "nn/tensor.hpp"

namespace nettag {

/// Writes all parameter matrices (shapes + data) to a binary file, via
/// temp+rename. Throws std::runtime_error on I/O failure (the final path is
/// untouched in that case).
void save_params(const std::string& path, const std::vector<Tensor>& params);

/// Loads parameters saved by save_params into an *identically shaped*
/// parameter list. The file must match exactly: magic, parameter count,
/// every shape, and the total byte size (a truncated or padded file is
/// rejected even when the header reads succeed). Params are only written
/// after the whole file validates — on throw they keep their prior values.
void load_params(const std::string& path, const std::vector<Tensor>& params);

/// Writes a "key value" text manifest, one pair per line, order preserved,
/// via temp+rename. Keys must be non-empty and contain no whitespace; values
/// may contain spaces but no newlines. A final "checksum <crc32-hex>" line
/// covering every preceding byte is appended automatically (the key
/// "checksum" is therefore reserved). Used for checkpoint metadata
/// (architecture description) next to the binary parameter files.
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
