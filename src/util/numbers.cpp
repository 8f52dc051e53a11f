#include "util/numbers.hpp"

#include <charconv>
#include <system_error>

namespace nettag {

DoubleText format_double(double v) {
  DoubleText t;
  const std::to_chars_result r =
      std::to_chars(t.chars.data(), t.chars.data() + t.chars.size(), v,
                    std::chars_format::general, 17);
  t.size = static_cast<std::size_t>(r.ptr - t.chars.data());
  return t;
}

bool parse_double(std::string_view word, double* out) {
  const char* const end = word.data() + word.size();
  double v = 0;
  const std::from_chars_result r = std::from_chars(word.data(), end, v);
  if (r.ec != std::errc() || r.ptr != end) return false;
  *out = v;
  return true;
}

}  // namespace nettag
