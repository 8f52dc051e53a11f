// Exact decimal text for doubles: the one formatter the corpus shard writer
// uses and the one parser its reader uses.
//
// format_double writes what printf's "%.17g" writes (the standard defines
// std::to_chars with chars_format::general and precision 17 that way), and
// 17 significant digits name every finite double exactly, so parse_double
// reads the text back to the same bits, as glibc's strtod does. Infinities
// print as "inf" and "-inf"; a NaN prints as "nan" or "-nan" and reads back
// as a quiet NaN of that sign.
#pragma once

#include <array>
#include <cstddef>
#include <string_view>

namespace nettag {

/// A double's text: at most 24 characters ("-2.2250738585072014e-308").
struct DoubleText {
  std::array<char, 32> chars;
  std::size_t size;
  std::string_view view() const { return {chars.data(), size}; }
};

/// `v` as printf's "%.17g" formats it.
DoubleText format_double(double v);

/// Reads a whole word with std::from_chars (chars_format::general) and
/// stores it in `*out`. Fails, leaving `*out` alone, unless the number
/// spans the word exactly: an empty word, a leading '+', a hex float, a
/// trailing byte (a NUL one too) and a value outside double's range
/// ("1e999", "1e-400") are all rejected.
bool parse_double(std::string_view word, double* out);

}  // namespace nettag
