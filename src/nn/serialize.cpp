#include "nn/serialize.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/atomic_io.hpp"
#include "util/checksum.hpp"

namespace nettag {

namespace {
constexpr const char* kChecksumKey = "checksum";
}  // namespace

void save_manifest(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& entries) {
  std::string body;
  for (const auto& [key, value] : entries) {
    if (key.empty() || key.find_first_of(" \t\n") != std::string::npos) {
      throw std::runtime_error("save_manifest: bad key '" + key + "'");
    }
    if (key == kChecksumKey) {
      throw std::runtime_error(
          "save_manifest: key 'checksum' is reserved for the integrity line");
    }
    if (value.find('\n') != std::string::npos) {
      throw std::runtime_error("save_manifest: value for '" + key +
                               "' contains a newline");
    }
    body += key;
    body += ' ';
    body += value;
    body += '\n';
  }
  AtomicFileWriter writer(path, /*binary=*/false);
  writer.stream() << body << kChecksumKey << ' ' << crc32_hex(crc32(body))
                  << '\n';
  writer.commit();
}

std::vector<std::pair<std::string, std::string>> load_manifest(
    const std::string& path, std::vector<int>* linenos,
    std::string* checksum) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_manifest: cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();

  // The last line must be the integrity line; verify it covers every byte
  // before it, so truncation anywhere (including of the checksum line
  // itself) is detected before any entry is interpreted.
  const std::string marker = std::string(kChecksumKey) + ' ';
  const std::size_t marker_at = content.rfind("\n" + marker);
  std::size_t body_len, sum_at;
  if (content.compare(0, marker.size(), marker) == 0 &&
      marker_at == std::string::npos) {
    body_len = 0;  // empty manifest: checksum is the first and only line
    sum_at = marker.size();
  } else if (marker_at != std::string::npos) {
    body_len = marker_at + 1;
    sum_at = body_len + marker.size();
  } else {
    throw std::runtime_error("load_manifest: " + path +
                             ": missing trailing checksum line (truncated or "
                             "not written by save_manifest)");
  }
  std::string sum = content.substr(sum_at);
  while (!sum.empty() && (sum.back() == '\n' || sum.back() == '\r')) {
    sum.pop_back();
  }
  if (sum != crc32_hex(crc32(content.data(), body_len))) {
    throw std::runtime_error("load_manifest: " + path +
                             ": checksum mismatch (file truncated or "
                             "corrupted)");
  }
  if (checksum) *checksum = sum;

  std::vector<std::pair<std::string, std::string>> entries;
  std::istringstream lines(content.substr(0, body_len));
  std::string line;
  int lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos || sp == 0 || sp + 1 >= line.size()) {
      throw std::runtime_error("load_manifest: " + path + ": line " +
                               std::to_string(lineno) + ": expected 'key value'");
    }
    entries.emplace_back(line.substr(0, sp), line.substr(sp + 1));
    if (linenos) linenos->push_back(lineno);
  }
  return entries;
}

}  // namespace nettag
