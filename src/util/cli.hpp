// Strict command-line number parsing shared by the tools (nettag_lint,
// nettag_serve, nettag_train).
//
// std::atoi silently yields 0 on garbage ("--designs banana" ran with 0
// designs) and strtoull with a null end pointer accepts trailing junk
// ("--seed 7abc" silently truncated to 7). These helpers reject anything
// that is not *entirely* a number, and their error message names the
// offending text so the user sees exactly what was mis-typed.
#pragma once

#include <cstdint>
#include <string>

namespace nettag::cli {

/// Parses a base-10 signed integer. The whole of `text` must be consumed and
/// the value must lie in [min_value, max_value]. On failure returns false
/// and sets *error to a message quoting `text`.
bool parse_int(const char* text, long long min_value, long long max_value,
               long long* out, std::string* error);

/// Parses an unsigned 64-bit integer: hex after a 0x/0X prefix (seeds are
/// conventionally written in hex), decimal otherwise, even with leading
/// zeros. Rejects empty input, any sign, whitespace, trailing junk and
/// values past 2^64 - 1. On failure returns false and sets *error.
bool parse_u64(const char* text, std::uint64_t* out, std::string* error);

/// A parsed `--listen` / `--connect` endpoint: either a unix-domain socket
/// path (`unix:/run/nettag.sock`) or a TCP host:port (`127.0.0.1:7431`).
/// kNone is the "no endpoint configured" sentinel (stdin-loop serving).
struct ListenAddress {
  enum class Kind { kNone, kUnix, kTcp };
  Kind kind = Kind::kNone;
  std::string path;        ///< unix: socket filesystem path
  std::string host;        ///< tcp: numeric address or hostname
  std::uint16_t port = 0;  ///< tcp: 0 requests an ephemeral port

  /// Canonical printable form ("unix:/p" or "host:port"); "" for kNone.
  std::string spec() const;
};

/// Parses `unix:/path` or `host:port`. Malformed values — an empty unix
/// path, a path too long for sockaddr_un, a missing/empty host, a port that
/// is not an integer in [0, 65535] — return false with an error message
/// quoting the offending text (the tools print it plus usage instead of
/// silently defaulting). Port 0 is accepted and means "bind an ephemeral
/// port" (tests); bracketed IPv6 literals are rejected as unsupported.
bool parse_listen_address(const char* text, ListenAddress* out,
                          std::string* error);

/// A parsed `--model` replica spec: `[NAME=]PREFIX[,quantize|,fp32]`.
/// NAME defaults to "default" (the replica every request without a `model`
/// field targets); the optional backend suffix overrides the process-wide
/// --quantize flag for this replica only (quantize -1 = inherit it).
struct ModelSpec {
  std::string name = "default";
  std::string prefix;
  int quantize = -1;  ///< -1 inherit --quantize, else 0 fp32 / 1 int8
};

/// Parses one `--model` value. The name (before the first '='; omitted =
/// "default") must be 1-64 chars of [A-Za-z0-9_.-]; the prefix must be
/// non-empty; an unrecognized ',suffix' is an error (only ",quantize" and
/// ",fp32" exist). A prefix may itself contain '=' or ',' only after an
/// explicit NAME= / before no recognized suffix, respectively — ambiguous
/// cases resolve toward treating the text as a plain prefix. On failure
/// returns false and sets *error quoting the offending part.
bool parse_model_spec(const char* text, ModelSpec* out, std::string* error);

}  // namespace nettag::cli
