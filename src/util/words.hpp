// Whitespace-separated words of a line, read off a std::string_view.
//
// The netlist and shard readers split a line into words at the same bytes
// `std::istream >> std::string` splits it in the C locale, without a stream
// and without copying: a word is a maximal run of bytes that are not space
// (' ', '\t', '\n', '\v', '\f', '\r'), so a CRLF line end is trailing space.
#pragma once

#include <string_view>

namespace nettag {

/// ' ', or '\t' through '\r': the C locale's space characters.
constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

struct Words {
  std::string_view rest;  ///< the text not yet consumed

  /// The next word, or an empty view when only space is left.
  std::string_view next() {
    std::size_t b = 0;
    while (b < rest.size() && is_space(rest[b])) ++b;
    std::size_t e = b;
    while (e < rest.size() && !is_space(rest[e])) ++e;
    const std::string_view word = rest.substr(b, e - b);
    rest.remove_prefix(e);
    return word;
  }
};

}  // namespace nettag
