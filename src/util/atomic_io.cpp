#include "util/atomic_io.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <stdexcept>

#include "util/checksum.hpp"
#include "util/cli.hpp"

namespace nettag {

namespace {

constexpr const char* kChecksumKey = "checksum";

/// Per-process writer counter: two live writers of the same path get
/// distinct temp files even within one process.
std::atomic<std::uint64_t> writer_counter{0};

/// Directory part of `path` ("." when the path has no separator).
std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// The pid in a temp name's `<pid>.<n>` tail, or 0 when the tail is not
/// two runs of digits around one dot.
pid_t temp_pid(std::string_view tail) {
  const std::size_t dot = tail.find('.');
  if (dot == std::string_view::npos || dot + 1 == tail.size() ||
      tail.find_first_not_of("0123456789.") != std::string_view::npos ||
      tail.find('.', dot + 1) != std::string_view::npos) {
    return 0;
  }
  pid_t pid = 0;
  const auto [end, ec] = std::from_chars(tail.data(), tail.data() + dot, pid);
  return ec == std::errc() && end == tail.data() + dot ? pid : 0;
}

/// Removes the `<path>.tmp.<pid>.<n>` files whose pid is gone.
void remove_dead_temps(const std::string& path) {
  const std::string dir = parent_dir(path);
  const std::size_t slash = path.find_last_of('/');
  const std::string prefix =
      (slash == std::string::npos ? path : path.substr(slash + 1)) + ".tmp.";
  DIR* d = ::opendir(dir.c_str());
  if (!d) return;
  const pid_t self = ::getpid();
  while (const dirent* e = ::readdir(d)) {
    const std::string_view name = e->d_name;
    if (name.substr(0, prefix.size()) != prefix) continue;
    const pid_t pid = temp_pid(name.substr(prefix.size()));
    if (pid <= 0 || pid == self) continue;
    if (::kill(pid, 0) == 0 || errno != ESRCH) continue;
    ::unlink((dir + "/" + e->d_name).c_str());
  }
  ::closedir(d);
}

}  // namespace

void write_file_atomically(const std::string& path, std::string_view bytes) {
  remove_dead_temps(path);
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(writer_counter.fetch_add(1, std::memory_order_relaxed));
  int fd = -1;
  auto fail = [&](const std::string& step) {
    const std::string why = std::strerror(errno);
    if (fd >= 0) ::close(fd);
    ::unlink(tmp.c_str());
    throw std::runtime_error("cannot write " + path + ": " + step + ": " +
                             why);
  };
  fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) fail("open " + tmp);
  for (std::size_t done = 0; done < bytes.size();) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno != EINTR) fail("write " + tmp);
    if (n > 0) done += static_cast<std::size_t>(n);
  }
  // The data must be durable before the rename is: a power loss after the
  // rename reaches disk but before the data does would leave a committed
  // empty or torn file.
  if (::fsync(fd) != 0) fail("fsync " + tmp);
  const int closed = ::close(fd);
  fd = -1;
  if (closed != 0) fail("close " + tmp);
  if (::rename(tmp.c_str(), path.c_str()) != 0) fail("rename " + tmp);
  // And the rename must be durable, so a crash cannot roll the directory
  // back to a state that never saw the file.
  const std::string dir = parent_dir(path);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  const bool synced = dfd >= 0 && ::fsync(dfd) == 0;
  const std::string why = std::strerror(errno);
  if (dfd >= 0) ::close(dfd);
  if (!synced) {
    throw std::runtime_error("cannot write " + path + ": fsync directory " +
                             dir + ": " + why);
  }
}

std::string read_whole_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw std::runtime_error("cannot open " + path + ": " +
                             std::strerror(errno));
  }
  struct stat st;
  std::string out;
  // One spare byte, so a file of the size fstat reported ends in a read of 0.
  out.resize(::fstat(fd, &st) == 0 ? static_cast<std::size_t>(st.st_size) + 1
                                   : 4096);
  std::size_t got = 0;
  while (true) {
    if (got == out.size()) out.resize(2 * out.size());  // it grew meanwhile
    const ssize_t n = ::read(fd, out.data() + got, out.size() - got);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string why = std::strerror(errno);
      ::close(fd);
      throw std::runtime_error("cannot read " + path + ": " + why);
    }
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  out.resize(got);
  return out;
}

KeyValues::KeyValues(std::string_view text, std::string source)
    : source_(std::move(source)) {
  for (int lineno = 1; !text.empty(); ++lineno) {
    const std::size_t end = std::min(text.find('\n'), text.size());
    const std::string_view line = text.substr(0, end);
    text.remove_prefix(std::min(end + 1, text.size()));
    const std::size_t sp = line.find(' ');
    auto fail_line = [&](const std::string& what) {
      throw std::runtime_error(source_ + ": line " + std::to_string(lineno) +
                               ": " + what);
    };
    if (sp == std::string_view::npos || sp == 0 || sp + 1 == line.size()) {
      fail_line("expected 'key value', got '" + std::string(line) + "'");
    }
    const auto [it, fresh] = values_.try_emplace(
        std::string(line.substr(0, sp)),
        Value{std::string(line.substr(sp + 1)), lineno});
    if (!fresh) {
      fail_line("duplicate key '" + it->first + "' (first on line " +
                std::to_string(it->second.line) + ")");
    }
  }
}

const KeyValues::Value& KeyValues::find(std::string_view key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    throw std::runtime_error(source_ + ": missing key '" + std::string(key) +
                             "'");
  }
  return it->second;
}

bool KeyValues::has(std::string_view key) const {
  return values_.find(key) != values_.end();
}

const std::string& KeyValues::get(std::string_view key) const {
  return find(key).text;
}

int KeyValues::line(std::string_view key) const { return find(key).line; }

void KeyValues::fail(std::string_view key, const std::string& why) const {
  throw std::runtime_error(source_ + ": line " + std::to_string(line(key)) +
                           ": key '" + std::string(key) + "': " + why);
}

long long KeyValues::get_int(std::string_view key, long long lo,
                             long long hi) const {
  long long v = 0;
  std::string err;
  if (!cli::parse_int(get(key).c_str(), lo, hi, &v, &err)) fail(key, err);
  return v;
}

std::uint64_t KeyValues::get_u64(std::string_view key) const {
  std::uint64_t v = 0;
  std::string err;
  if (!cli::parse_u64(get(key).c_str(), &v, &err)) fail(key, err);
  return v;
}

bool KeyValues::get_bool(std::string_view key) const {
  const std::string& v = get(key);
  if (v != "0" && v != "1") fail(key, "expected 0 or 1, got '" + v + "'");
  return v == "1";
}

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
  const std::string sum = crc32_hex(crc32(body));
  write_file_atomically(path, body + kChecksumKey + ' ' + sum + '\n');
}

KeyValues load_manifest(const std::string& path, const std::string& source,
                        std::string* checksum) {
  const std::string content = read_whole_file(path);
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
    throw std::runtime_error(source +
                             ": missing trailing checksum line (truncated or "
                             "not written by save_manifest)");
  }
  std::string sum = content.substr(sum_at);
  while (!sum.empty() && (sum.back() == '\n' || sum.back() == '\r')) {
    sum.pop_back();
  }
  if (sum != crc32_hex(crc32(content.data(), body_len))) {
    throw std::runtime_error(source +
                             ": checksum mismatch (file truncated or "
                             "corrupted)");
  }
  if (checksum) *checksum = sum;
  return KeyValues(std::string_view(content).substr(0, body_len), source);
}

}  // namespace nettag
