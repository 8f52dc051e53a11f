#include "util/cli.hpp"

#include <cerrno>
#include <cstdlib>

namespace nettag::cli {

namespace {

bool is_ascii_digit(char c) { return c >= '0' && c <= '9'; }

/// Value of an ASCII hex digit (either case); 16 for any other character.
unsigned digit_value(char c) {
  if (is_ascii_digit(c)) return static_cast<unsigned>(c - '0');
  if (c >= 'a' && c <= 'f') return static_cast<unsigned>(c - 'a' + 10);
  if (c >= 'A' && c <= 'F') return static_cast<unsigned>(c - 'A' + 10);
  return 16;
}

std::string quoted(const char* text) {
  return "'" + std::string(text) + "'";
}

}  // namespace

bool parse_int(const char* text, long long min_value, long long max_value,
               long long* out, std::string* error) {
  // strtoll skips leading whitespace and accepts a sign; require the text to
  // start with a digit or a single sign followed by a digit so " 7" and
  // "+ 7" are rejected as firmly as "7abc".
  const char* p = text;
  if (*p == '+' || *p == '-') ++p;
  if (!is_ascii_digit(*p)) {
    *error = "expected an integer, got " + quoted(text);
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (errno == ERANGE || end == text || *end != '\0') {
    *error = "expected an integer, got " + quoted(text);
    return false;
  }
  if (v < min_value || v > max_value) {
    *error = quoted(text) + " is out of range [" + std::to_string(min_value) +
             ", " + std::to_string(max_value) + "]";
    return false;
  }
  *out = v;
  return true;
}

std::string ListenAddress::spec() const {
  switch (kind) {
    case Kind::kUnix: return "unix:" + path;
    case Kind::kTcp: return host + ":" + std::to_string(port);
    case Kind::kNone: break;
  }
  return "";
}

bool parse_listen_address(const char* text, ListenAddress* out,
                          std::string* error) {
  const std::string spec(text ? text : "");
  if (spec.empty()) {
    *error = "expected 'unix:/path' or 'host:port', got an empty value";
    return false;
  }
  if (spec.rfind("unix:", 0) == 0) {
    const std::string path = spec.substr(5);
    if (path.empty()) {
      *error = "unix address " + quoted(text) + " has an empty socket path";
      return false;
    }
    // sockaddr_un::sun_path is 108 bytes on Linux including the terminator.
    if (path.size() > 107) {
      *error = "unix socket path in " + quoted(text) +
               " exceeds the 107-byte sockaddr_un limit";
      return false;
    }
    out->kind = ListenAddress::Kind::kUnix;
    out->path = path;
    out->host.clear();
    out->port = 0;
    return true;
  }
  if (spec.find('[') != std::string::npos) {
    *error = "bracketed IPv6 literals are not supported: " + quoted(text);
    return false;
  }
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || spec.find(':') != colon) {
    *error = "expected 'unix:/path' or 'host:port', got " + quoted(text);
    return false;
  }
  const std::string host = spec.substr(0, colon);
  const std::string port_text = spec.substr(colon + 1);
  if (host.empty()) {
    *error = "listen address " + quoted(text) +
             " has an empty host (use 0.0.0.0 for all interfaces)";
    return false;
  }
  long long port = 0;
  std::string port_error;
  if (!parse_int(port_text.c_str(), 0, 65535, &port, &port_error)) {
    *error = "bad port in " + quoted(text) + ": " + port_error;
    return false;
  }
  out->kind = ListenAddress::Kind::kTcp;
  out->host = host;
  out->port = static_cast<std::uint16_t>(port);
  out->path.clear();
  return true;
}

namespace {

bool is_model_name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         is_ascii_digit(c) || c == '_' || c == '.' || c == '-';
}

bool is_model_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    if (!is_model_name_char(c)) return false;
  }
  return true;
}

}  // namespace

bool parse_model_spec(const char* text, ModelSpec* out, std::string* error) {
  std::string spec(text ? text : "");
  if (spec.empty()) {
    *error = "expected '[NAME=]PREFIX', got an empty value";
    return false;
  }
  ModelSpec parsed;
  // NAME= applies only when the text before the first '=' looks like a
  // replica name; otherwise the whole value is a plain checkpoint prefix
  // (which may legitimately contain '=' in a path component).
  const std::size_t eq = spec.find('=');
  if (eq != std::string::npos) {
    const std::string candidate = spec.substr(0, eq);
    if (candidate.empty()) {
      *error = "empty replica name in " + quoted(text);
      return false;
    }
    if (is_model_name(candidate)) {
      parsed.name = candidate;
      spec.erase(0, eq + 1);
    }
  }
  if (spec.empty()) {
    *error = "empty checkpoint prefix in " + quoted(text);
    return false;
  }
  parsed.prefix = std::move(spec);
  *out = std::move(parsed);
  return true;
}

bool parse_u64(const char* text, std::uint64_t* out, std::string* error) {
  // Hex only after an explicit 0x/0X prefix; everything else is decimal, so a
  // leading zero does not switch to octal ("010" is ten, "08" is eight). No
  // sign, no whitespace, at least one digit, and no wrap past 2^64 - 1.
  const bool hex = text[0] == '0' && (text[1] == 'x' || text[1] == 'X');
  const unsigned base = hex ? 16 : 10;
  const char* p = hex ? text + 2 : text;
  std::uint64_t v = 0;
  bool ok = *p != '\0';
  for (; ok && *p != '\0'; ++p) {
    const unsigned d = digit_value(*p);
    ok = d < base && v <= (UINT64_MAX - d) / base;
    if (ok) v = v * base + d;
  }
  if (!ok) {
    *error = "expected an unsigned integer, got " + quoted(text);
    return false;
  }
  *out = v;
  return true;
}

}  // namespace nettag::cli
