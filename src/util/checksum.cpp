#include "util/checksum.hpp"

#include <array>
#include <cstdio>

namespace nettag {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables. tables[0] is the bytewise CRC table; tables[k][b]
/// is tables[k-1][b] advanced over one more zero byte, so one lookup per
/// table folds eight input bytes into the register at once.
CrcTables make_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

/// Little-endian 32-bit load (one mov on x86, correct on any host).
std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t crc) {
  static const CrcTables t = make_tables();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = crc ^ 0xffffffffu;
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::string crc32_hex(std::uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

}  // namespace nettag
