#include "serve/json.hpp"

#include <cctype>
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "analysis/diagnostic.hpp"  // json_escape

namespace nettag::serve {

Json Json::object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

Json Json::array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

std::string Json::as_string(const std::string& fallback) const {
  return type_ == Type::kString ? str_ : fallback;
}

double Json::as_number(double fallback) const {
  if (type_ != Type::kNumber) return fallback;
  // The parser itself never produces non-finite values (strtod overflow
  // yields HUGE_VAL, which callers must not treat as a usable quantity);
  // NaN falls back, infinities saturate to the largest finite double so
  // range checks downstream stay well-defined.
  if (std::isnan(num_)) return fallback;
  if (std::isinf(num_)) return num_ > 0 ? DBL_MAX : -DBL_MAX;
  return num_;
}

long long Json::as_int(long long fallback) const {
  if (type_ != Type::kNumber) return fallback;
  // Casting a double outside [LLONG_MIN, LLONG_MAX] (or NaN) to long long is
  // undefined behavior, and hostile request lines can carry 1e300 — saturate
  // instead. 2^63 is exactly representable as a double, so >= is the right
  // upper comparison (LLONG_MAX itself rounds up to 2^63 when widened).
  if (std::isnan(num_)) return fallback;
  if (num_ >= 9223372036854775808.0 /* 2^63 */) return LLONG_MAX;
  if (num_ < -9223372036854775808.0 /* -2^63 */) return LLONG_MIN;
  return static_cast<long long>(num_);
}

bool Json::as_bool(bool fallback) const {
  return type_ == Type::kBool ? bool_ : fallback;
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json& Json::set(const std::string& key, Json value) {
  if (type_ != Type::kObject) return *this;
  for (auto& [k, v] : obj_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  obj_.emplace_back(key, std::move(value));
  return *this;
}

Json& Json::push_back(Json value) {
  if (type_ == Type::kArray) arr_.push_back(std::move(value));
  return *this;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no NaN/Inf
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  // %.9g round-trips every float widened to double (the embedding payload
  // case), but genuine doubles — hit rates, timing means — need up to 17
  // significant digits. Pay for them only when 9 are lossy.
  if (std::strtod(buf, nullptr) != v) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

void Json::dump_to(std::string* out) const {
  switch (type_) {
    case Type::kNull:
      *out += "null";
      return;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Type::kNumber:
      *out += json_number(num_);
      return;
    case Type::kString:
      *out += '"';
      *out += json_escape(str_);
      *out += '"';
      return;
    case Type::kArray: {
      *out += '[';
      bool first = true;
      for (const Json& item : arr_) {
        if (!first) *out += ',';
        first = false;
        item.dump_to(out);
      }
      *out += ']';
      return;
    }
    case Type::kObject: {
      *out += '{';
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) *out += ',';
        first = false;
        *out += '"';
        *out += json_escape(k);
        *out += "\":";
        v.dump_to(out);
      }
      *out += '}';
      return;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(&out);
  return out;
}

// --- parser ------------------------------------------------------------------

namespace {

constexpr int kMaxDepth = 64;

struct Parser {
  const char* p;
  const char* end;
  std::string error;

  bool fail(const std::string& msg) {
    if (error.empty()) error = msg;
    return false;
  }

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }

  bool literal(const char* text) {
    const char* q = text;
    const char* save = p;
    while (*q) {
      if (p >= end || *p != *q) {
        p = save;
        return false;
      }
      ++p;
      ++q;
    }
    return true;
  }

  bool parse_string(std::string* out) {
    if (p >= end || *p != '"') return fail("expected string");
    ++p;
    out->clear();
    while (p < end && *p != '"') {
      char c = *p++;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (p >= end) return fail("truncated escape");
      char e = *p++;
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (end - p < 4) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = *p++;
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are rendered as
          // two 3-byte sequences — the protocol never emits them itself).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xc0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out->push_back(static_cast<char>(0xe0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    if (p >= end) return fail("unterminated string");
    ++p;  // closing quote
    return true;
  }

  bool parse_value(Json* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (p >= end) return fail("unexpected end of input");
    const char c = *p;
    if (c == '{') {
      ++p;
      *out = Json::object();
      skip_ws();
      if (p < end && *p == '}') {
        ++p;
        return true;
      }
      for (;;) {
        skip_ws();
        std::string key;
        if (!parse_string(&key)) return false;
        skip_ws();
        if (p >= end || *p != ':') return fail("expected ':' in object");
        ++p;
        Json value;
        if (!parse_value(&value, depth + 1)) return false;
        out->set(key, std::move(value));
        skip_ws();
        if (p < end && *p == ',') {
          ++p;
          continue;
        }
        if (p < end && *p == '}') {
          ++p;
          return true;
        }
        return fail("expected ',' or '}' in object");
      }
    }
    if (c == '[') {
      ++p;
      *out = Json::array();
      skip_ws();
      if (p < end && *p == ']') {
        ++p;
        return true;
      }
      for (;;) {
        Json value;
        if (!parse_value(&value, depth + 1)) return false;
        out->push_back(std::move(value));
        skip_ws();
        if (p < end && *p == ',') {
          ++p;
          continue;
        }
        if (p < end && *p == ']') {
          ++p;
          return true;
        }
        return fail("expected ',' or ']' in array");
      }
    }
    if (c == '"') {
      std::string s;
      if (!parse_string(&s)) return false;
      *out = Json(std::move(s));
      return true;
    }
    if (literal("true")) {
      *out = Json(true);
      return true;
    }
    if (literal("false")) {
      *out = Json(false);
      return true;
    }
    if (literal("null")) {
      *out = Json();
      return true;
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      char* after = nullptr;
      const double v = std::strtod(p, &after);
      if (after == p || after > end) return fail("bad number");
      p = after;
      *out = Json(v);
      return true;
    }
    return fail(std::string("unexpected character '") + c + "'");
  }
};

}  // namespace

bool Json::parse(const std::string& text, Json* out, std::string* error) {
  Parser parser{text.data(), text.data() + text.size(), {}};
  if (!parser.parse_value(out, 0)) {
    if (error) *error = parser.error;
    return false;
  }
  parser.skip_ws();
  if (parser.p != parser.end) {
    if (error) *error = "trailing characters after JSON document";
    return false;
  }
  return true;
}

}  // namespace nettag::serve
