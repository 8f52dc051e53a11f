#include "loadgen.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "core/nettag.hpp"
#include "netlist/io.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"

extern char** environ;

namespace benchkit {

namespace {

void sleep_ms(double ms) {
  std::this_thread::sleep_for(std::chrono::microseconds(
      static_cast<std::int64_t>(ms * 1000.0)));
}

/// A spawned child process, reaped on destruction (SIGKILL if still alive).
class Child {
 public:
  Child(const std::vector<std::string>& argv, bool pipes,
        const std::string& log_path, char* const* envp = environ) {
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    int in_pipe[2] = {-1, -1}, out_pipe[2] = {-1, -1};
    if (pipes) {
      if (::pipe(in_pipe) != 0 || ::pipe(out_pipe) != 0) {
        throw std::runtime_error("pipe: " + std::string(std::strerror(errno)));
      }
      posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
      posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
      for (int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1]}) {
        posix_spawn_file_actions_addclose(&actions, fd);
      }
    } else {
      posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
      posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
    }
    posix_spawn_file_actions_addopen(&actions, 2, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    const int rc = posix_spawn(&pid_, argv[0].c_str(), &actions, nullptr,
                               args.data(), envp);
    posix_spawn_file_actions_destroy(&actions);
    if (pipes) {
      ::close(in_pipe[0]);
      ::close(out_pipe[1]);
      in_fd_ = in_pipe[1];
      out_fd_ = out_pipe[0];
    }
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot spawn " + argv[0] + ": " +
                               std::strerror(rc));
    }
  }
  ~Child() {
    close_stdin();
    if (out_fd_ >= 0) ::close(out_fd_);
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  int pid() const { return pid_; }
  int in_fd() const { return in_fd_; }
  int out_fd() const { return out_fd_; }
  void close_stdin() {
    if (in_fd_ >= 0) ::close(in_fd_);
    in_fd_ = -1;
  }
  bool alive() {
    if (pid_ <= 0) return false;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      exit_status_ = status;
      return false;
    }
    return true;
  }
  /// Sends `sig` (0 = none) and waits up to `timeout_s`; SIGKILL after.
  /// Returns true when the child exited with status 0 on its own.
  bool stop(int sig, double timeout_s) {
    if (pid_ <= 0) return exit_status_ == 0;
    if (sig != 0) ::kill(pid_, sig);
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
    while (now_ns() < deadline) {
      if (!alive()) return WIFEXITED(exit_status_) && WEXITSTATUS(exit_status_) == 0;
      sleep_ms(1);
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
    return false;
  }

 private:
  int pid_ = -1;
  int in_fd_ = -1, out_fd_ = -1;
  int exit_status_ = -1;
};

/// Newline-framed request/response channel over one or two descriptors.
class LineChannel {
 public:
  LineChannel(int write_fd, int read_fd, bool owns)
      : wfd_(write_fd), rfd_(read_fd), owns_(owns) {}
  ~LineChannel() {
    if (owns_ && wfd_ >= 0) ::close(wfd_);
  }
  LineChannel(const LineChannel&) = delete;
  LineChannel& operator=(const LineChannel&) = delete;

  bool send(const std::string& line) {
    std::string data = line;
    data += '\n';
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::write(wfd_, data.data() + off, data.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool recv(std::string* line, int timeout_ms = 60000) {
    for (;;) {
      const std::size_t nl = buf_.find('\n', off_);
      if (nl != std::string::npos) {
        line->assign(buf_, off_, nl - off_);
        off_ = nl + 1;
        if (off_ > (1u << 20)) {
          buf_.erase(0, off_);
          off_ = 0;
        }
        return true;
      }
      pollfd p{rfd_, POLLIN, 0};
      const int pr = ::poll(&p, 1, timeout_ms);
      if (pr < 0 && errno == EINTR) continue;
      if (pr <= 0) return false;
      char chunk[65536];
      const ssize_t n = ::read(rfd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  bool request(const std::string& line, std::string* response) {
    return send(line) && recv(response);
  }

 private:
  int wfd_, rfd_;
  bool owns_;
  std::string buf_;
  std::size_t off_ = 0;
};

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// The `result` object of a rendered ok response (the bytes the result
/// cache stores), or "" when the line is not an ok response.
std::string result_bytes(const std::string& response) {
  const std::size_t status = response.find("\"status\":\"ok\"");
  if (status == std::string::npos) return "";
  const std::size_t key = response.find("\"result\":", status);
  if (key == std::string::npos || response.empty() || response.back() != '}') {
    return "";
  }
  const std::size_t begin = key + 9;
  return response.substr(begin, response.size() - 1 - begin);
}

struct Rec {
  std::int64_t t_send = 0, t_recv = 0;
  std::uint32_t item = 0;
  std::uint32_t bytes = 0;
  bool ok = false;
  bool too_busy = false;
  bool cached = false;
};

/// One connection's record of the run; merged after the clients join.
struct ClientLog {
  std::vector<Rec> recs;
  /// group -> (item of the first answer, its result bytes)
  std::unordered_map<int, std::pair<std::uint32_t, std::string>> first;
  std::uint64_t compared = 0, mismatches = 0, protocol_errors = 0;
  std::vector<std::string> errors;

  void error(const std::string& e) {
    ++protocol_errors;
    if (errors.size() < 5) errors.push_back(e);
  }
};

/// Sends one request and classifies its answer into `log`. False when the
/// channel is gone.
bool one_request(LineChannel& ch, const Inputs& inputs, std::size_t item,
                 const std::string& id, ClientLog* log) {
  const Item& it = inputs.items[item];
  std::string line = "{\"id\":\"";
  line += id;
  line += it.body;
  Rec rec;
  rec.item = static_cast<std::uint32_t>(item);
  std::string response;
  rec.t_send = now_ns();
  const bool alive = ch.request(line, &response);
  rec.t_recv = now_ns();
  if (!alive) {
    log->error("connection lost on request " + id);
    log->recs.push_back(rec);
    return false;
  }
  rec.bytes = static_cast<std::uint32_t>(response.size() + 1);
  if (response.find("\"id\":\"" + id + "\"") == std::string::npos) {
    log->error("response does not echo id " + id);
  } else if (response.find("\"code\":\"too_busy\"") != std::string::npos) {
    rec.too_busy = true;
  } else {
    std::string result = result_bytes(response);
    if (result.empty()) {
      log->error("not an ok response: " + response.substr(0, 200));
    } else {
      rec.ok = true;
      rec.cached = response.find("\"cached\":true") != std::string::npos;
      auto [pos, fresh] = log->first.try_emplace(
          it.group, rec.item, std::string());
      if (fresh) {
        pos->second.second = std::move(result);
      } else {
        ++log->compared;
        if (pos->second.second != result) {
          ++log->mismatches;
          if (log->errors.size() < 5) {
            log->errors.push_back("group " + std::to_string(it.group) +
                                  " answered with different bytes");
          }
        }
      }
    }
  }
  log->recs.push_back(rec);
  return true;
}

/// Compares one sampled response with the in-process model on the same
/// checkpoint. Returns the max abs difference, or -1 on a shape mismatch.
double compare_embedding(const nettag::NetTag& model, const Item& item,
                         const std::string& result, std::string* error) {
  nettag::serve::Json j;
  if (!nettag::serve::Json::parse(result, &j, error)) return -1;
  const nettag::Netlist nl = nettag::netlist_from_string(item.netlist);
  std::vector<std::pair<const char*, nettag::Mat>> expect;
  if (item.op == "embed_circuit") {
    expect.emplace_back("circuit", model.embed_circuit(nl, 120));
  } else {
    const nettag::NetTag::ConeEmbedding emb = model.embed(nl);
    expect.emplace_back("cls", emb.cls);
    if (item.op == "embed_gates") expect.emplace_back("nodes", emb.nodes);
  }
  double worst = 0;
  for (const auto& [field, want] : expect) {
    const nettag::serve::Json* f = j.find(field);
    nettag::Mat got;
    if (f == nullptr || !nettag::serve::mat_from_json(*f, &got) ||
        got.rows != want.rows || got.cols != want.cols) {
      *error = std::string("field '") + field + "' missing or misshapen";
      return -1;
    }
    for (std::size_t i = 0; i < got.v.size(); ++i) {
      worst = std::max(worst, static_cast<double>(std::fabs(got.v[i] - want.v[i])));
    }
  }
  return worst;
}

std::string stats_result(LineChannel& ch, const std::string& id) {
  std::string response;
  if (!ch.request("{\"id\":\"" + id + "\",\"op\":\"stats\"}", &response)) {
    return "";
  }
  return result_bytes(response);
}

/// A running nettag_serve and the channel that pinged it.
struct Running {
  std::unique_ptr<Child> child;
  std::unique_ptr<LineChannel> control;
};

/// Spawns nettag_serve and waits until it answers `ping`; the elapsed time
/// is one set-up sample. Any server still running under the same socket
/// must have been stopped first.
Running start_server(const std::vector<std::string>& argv, char* const* envp,
                     bool stdin_mode, const std::string& sock,
                     const std::string& log_path, double* setup_s) {
  ::unlink(sock.c_str());
  Running s;
  const std::int64_t t0 = now_ns();
  s.child = std::make_unique<Child>(argv, stdin_mode, log_path, envp);
  if (stdin_mode) {
    s.control = std::make_unique<LineChannel>(s.child->in_fd(), s.child->out_fd(),
                                              false);
  } else {
    const std::int64_t deadline = t0 + 60'000'000'000LL;
    int fd = -1;
    while ((fd = connect_unix(sock)) < 0) {
      if (!s.child->alive() || now_ns() > deadline) {
        throw std::runtime_error("nettag_serve did not start listening; see " +
                                 log_path);
      }
      sleep_ms(0.2);
    }
    s.control = std::make_unique<LineChannel>(fd, fd, true);
  }
  std::string pong;
  if (!s.control->request("{\"id\":\"setup\",\"op\":\"ping\"}", &pong) ||
      pong.find("\"pong\":true") == std::string::npos) {
    throw std::runtime_error("nettag_serve did not answer ping; see " + log_path);
  }
  *setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
  return s;
}

/// Closes stdin or sends SIGTERM; the server must drain and exit 0.
bool stop_server(Running* s, bool stdin_mode) {
  s->control.reset();
  if (stdin_mode) s->child->close_stdin();
  const bool clean = s->child->stop(stdin_mode ? 0 : SIGTERM, 30.0);
  s->child.reset();
  return clean;
}

nettag::serve::Json parse_stats(const std::string& text) {
  nettag::serve::Json j;
  std::string error;
  if (!nettag::serve::Json::parse(text, &j, &error)) j = nettag::serve::Json::object();
  return j;
}

}  // namespace

bool capture_output(const std::vector<std::string>& argv, const std::string& log_path,
                    std::string* out) {
  Child child(argv, true, log_path);
  child.close_stdin();
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::read(child.out_fd(), chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out->append(chunk, static_cast<std::size_t>(n));
  }
  return child.stop(0, 60.0);
}

double ServeRunResult::delta(std::initializer_list<const char*> path) const {
  double sum = 0;
  for (const auto& [before, after] : stats) {
    const nettag::serve::Json* a = &before;
    const nettag::serve::Json* b = &after;
    for (const char* key : path) {
      a = a ? a->find(key) : nullptr;
      b = b ? b->find(key) : nullptr;
    }
    sum += (b ? b->as_number() : 0.0) - (a ? a->as_number() : 0.0);
  }
  return sum;
}

ServeRunResult run_serve(const ServeRunConfig& config, const Inputs& inputs) {
  ::signal(SIGPIPE, SIG_IGN);
  const bool stdin_mode = config.use_stdin;
  ::mkdir(config.workdir.c_str(), 0755);
  const std::string sock = config.workdir + "/serve.sock";
  const std::string log_path = config.workdir + "/serve.log";
  std::vector<std::string> argv = {config.serve_bin, "--model",
                                   config.model_prefix};
  if (!stdin_mode) {
    argv.push_back("--listen");
    argv.push_back("unix:" + sock);
  }
  // The server's environment: this process's, with its own NETTAG_THREADS.
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "NETTAG_THREADS=", 15) != 0) env.emplace_back(*e);
  }
  env.push_back("NETTAG_THREADS=" + std::to_string(kServerThreads));
  std::vector<char*> envp;
  for (std::string& e : env) envp.push_back(e.data());
  envp.push_back(nullptr);

  ServeRunResult r;
  // Set-up is timed on every spawn; the last server takes the load.
  Running server;
  for (int k = 0; k < std::max(1, config.setup_spawns); ++k) {
    if (server.child && !stop_server(&server, stdin_mode)) {
      throw std::runtime_error("nettag_serve did not exit cleanly; see " + log_path);
    }
    double setup = 0;
    server = start_server(argv, envp.data(), stdin_mode, sock, log_path, &setup);
    r.setup_samples_s.push_back(setup);
  }

  // --- the closed loop: warm-up, then the measured windows --------------------
  // [ws, we) is the measured part; it starts when the warm-up is over.
  const int windows = std::max(1, config.windows);
  std::atomic<std::uint64_t> shared_counter{0};
  const std::int64_t t_start = now_ns();
  const std::int64_t warm_until =
      t_start + static_cast<std::int64_t>(config.warmup_seconds * 1e9);
  const std::int64_t warm_deadline = t_start + 90'000'000'000LL;
  auto warmed = [&](std::uint64_t sent) {
    const std::int64_t now = now_ns();
    return (sent >= config.warmup_requests && now >= warm_until) || now >= warm_deadline;
  };
  const std::int64_t measured_ns = static_cast<std::int64_t>(config.seconds * 1e9);
  std::int64_t ws = 0, we = 0;
  std::string before, after;
  std::vector<ClientLog> logs;
  if (stdin_mode) {
    logs.resize(1);
    RequestStream stream(inputs, 0);
    for (std::uint64_t seq = 0;; ++seq) {
      if (ws == 0 && warmed(seq)) {
        before = stats_result(*server.control, "stats-before");
        ws = now_ns();
        we = ws + measured_ns;
      }
      if (ws != 0 && now_ns() >= we) break;
      if (!one_request(*server.control, inputs, stream.next(0),
                       "0-" + std::to_string(seq), &logs[0])) {
        break;
      }
    }
    if (ws == 0) ws = we = now_ns();  // the server went away while warming
    after = stats_result(*server.control, "stats-after");
  } else {
    const int conns = std::max(1, config.connections);
    logs.resize(static_cast<std::size_t>(conns));
    std::atomic<bool> stop{false};
    std::vector<std::thread> clients;
    for (int c = 0; c < conns; ++c) {
      clients.emplace_back([&, c] {
        ClientLog& log = logs[static_cast<std::size_t>(c)];
        const int fd = connect_unix(sock);
        if (fd < 0) {
          log.error("connect failed");
          return;
        }
        LineChannel ch(fd, fd, true);
        RequestStream stream(inputs, c);
        for (std::uint64_t seq = 0; !stop.load(std::memory_order_relaxed); ++seq) {
          const std::size_t item = stream.next(shared_counter.fetch_add(1));
          if (!one_request(ch, inputs, item,
                           std::to_string(c) + "-" + std::to_string(seq), &log)) {
            return;
          }
        }
      });
    }
    while (!warmed(shared_counter.load())) sleep_ms(1);
    before = stats_result(*server.control, "stats-before");
    ws = now_ns();
    we = ws + measured_ns;
    sleep_ms(static_cast<double>(we - now_ns()) * 1e-6);
    after = stats_result(*server.control, "stats-after");
    stop.store(true);
    for (std::thread& t : clients) t.join();
  }
  r.peak_rss_mb = peak_rss_mb(server.child->pid());
  if (before.empty() || after.empty()) r.check_errors.push_back("stats op failed");
  r.stats.emplace_back(parse_stats(before), parse_stats(after));
  if (!stop_server(&server, stdin_mode)) {
    r.check_errors.push_back("nettag_serve did not drain and exit 0");
  }
  ::unlink(sock.c_str());
  r.window_s = static_cast<double>(we - ws) * 1e-9;
  r.warmup_s = static_cast<double>(ws - t_start) * 1e-9;

  // --- merge the client logs ------------------------------------------------
  // Per window k of [ws, we): completions received in it and latencies of
  // the requests sent in it.
  const double span_ns = static_cast<double>(we - ws) / windows;
  auto window_of = [&](std::int64_t t) {
    return std::min(windows - 1, static_cast<int>(static_cast<double>(t - ws) / span_ns));
  };
  std::vector<std::vector<double>> latencies(static_cast<std::size_t>(windows));
  std::vector<std::uint64_t> completed(static_cast<std::size_t>(windows), 0);
  std::vector<std::pair<std::int64_t, double>> by_send;  // (t_send, rtt)
  std::unordered_map<int, std::pair<std::uint32_t, std::string>> first;
  double gates = 0, regs = 0;
  for (ClientLog& log : logs) {
    r.protocol_errors += log.protocol_errors;
    r.identity_compared += log.compared;
    r.identity_mismatches += log.mismatches;
    for (const std::string& e : log.errors) {
      if (r.check_errors.size() < 10) r.check_errors.push_back(e);
    }
    for (const Rec& rec : log.recs) {
      if (rec.ok && rec.t_recv >= ws && rec.t_recv < we) {
        ++completed[static_cast<std::size_t>(window_of(rec.t_recv))];
      }
      if (rec.t_send < ws) ++r.warmup_requests;
      if (rec.t_send < ws || rec.t_send >= we) continue;
      ++r.attempted;
      const Item& it = inputs.items[rec.item];
      gates += it.gates;
      regs += it.registers;
      if (it.renamed) ++r.renamed_requests;
      if (rec.ok) {
        ++r.succeeded;
        const std::size_t k = static_cast<std::size_t>(window_of(rec.t_send));
        const double rtt = static_cast<double>(rec.t_recv - rec.t_send) * 1e-6;
        latencies[k].push_back(rtt);
        r.latencies_ms.push_back(rtt);
        by_send.emplace_back(rec.t_send, rtt);
        r.response_bytes += rec.bytes;
        if (rec.cached) ++r.cached_responses;
      } else {
        ++r.failed;
        if (rec.too_busy) ++r.too_busy;
      }
    }
    // Byte identity across connections: the first answers of one group must
    // agree too.
    for (auto& [group, entry] : log.first) {
      auto [pos, fresh] = first.try_emplace(group, entry);
      if (!fresh) {
        ++r.identity_compared;
        if (pos->second.second != entry.second) ++r.identity_mismatches;
      }
    }
  }
  for (std::size_t k = 0; k < static_cast<std::size_t>(windows); ++k) {
    const double window_s = span_ns * 1e-9;
    r.window_qps.push_back(static_cast<double>(completed[k]) / window_s);
    r.window_p50_ms.push_back(quantile(latencies[k], 0.5));
  }
  r.qps = median(r.window_qps);
  r.latency_p50_ms = median(r.window_p50_ms);
  // p99: the requests in send order, cut into runs of at least 1000 (each
  // holds 10 samples beyond its p99); the median of the runs' p99s is robust
  // to one stall of the host. With fewer than 1000 samples, over all.
  std::sort(by_send.begin(), by_send.end());
  r.p99_runs = by_send.size() / 1000;
  std::vector<double> run_p99;
  for (std::size_t c = 0; c < r.p99_runs; ++c) {
    std::vector<double> run;
    for (std::size_t i = c * by_send.size() / r.p99_runs;
         i < (c + 1) * by_send.size() / r.p99_runs; ++i) {
      run.push_back(by_send[i].second);
    }
    run_p99.push_back(quantile(run, 0.99));
  }
  r.latency_p99_ms = r.p99_runs > 0 ? median(run_p99) : quantile(r.latencies_ms, 0.99);
  r.wall_s = r.qps > 0 ? static_cast<double>(config.wall_batch) / r.qps : 0;
  r.failed += r.identity_mismatches;
  if (inputs.workload == Workload::kColdCircuits) {
    const std::uint64_t issued = shared_counter.load();
    r.wrapped_requests = issued > inputs.items.size() ? issued - inputs.items.size() : 0;
  }
  if (r.attempted > 0) {
    r.gates_per_request = gates / static_cast<double>(r.attempted);
    r.registers_per_request = regs / static_cast<double>(r.attempted);
  }

  // --- seeded sample of embeddings vs the in-process model -------------------
  std::vector<int> groups;
  for (const auto& [group, entry] : first) groups.push_back(group);
  std::sort(groups.begin(), groups.end());
  nettag::Rng pick(inputs.seed ^ 0xc0ffee);
  pick.shuffle(groups);
  if (groups.size() > kCheckSamples) {
    groups.resize(kCheckSamples);
  }
  if (!groups.empty()) {
    const std::unique_ptr<nettag::NetTag> model =
        nettag::load_checkpoint(config.model_prefix);
    for (int group : groups) {
      const auto& [item, result] = first.at(group);
      std::string error;
      const double diff =
          compare_embedding(*model, inputs.items[item], result, &error);
      ++r.embed_checked;
      if (diff < 0 || diff > kEmbedTolerance) {
        ++r.embed_failures;
        if (r.check_errors.size() < 10) {
          r.check_errors.push_back(
              "embedding of item " + std::to_string(item) + " differs from "
              "in-process NetTag (" + (diff < 0 ? error : std::to_string(diff)) + ")");
        }
      } else {
        r.embed_max_abs_diff = std::max(r.embed_max_abs_diff, diff);
      }
    }
  }
  r.failed += static_cast<std::uint64_t>(r.embed_failures);
  return r;
}

}  // namespace benchkit
