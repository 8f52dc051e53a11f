#include "net/daemon.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <utility>

namespace nettag::net {

namespace {

constexpr std::size_t kMaxConnections = 512;  ///< accepted beyond: closed
constexpr std::size_t kMaxLineBytes = 8u << 20;  ///< unterminated-line bound
/// Quiet connections with nothing in flight close after this long.
constexpr int kIdleTimeoutMs = 60000;

}  // namespace

Daemon::Daemon(serve::Server& server, DaemonConfig config)
    : server_(server), config_(std::move(config)) {}

Daemon::~Daemon() {
  // The stats extension captures `this`; it must not outlive the daemon.
  server_.set_stats_extension(nullptr);
  // Tear the worker pool down while the completion queue, its mutex, and the
  // wake pipe are still alive: pool teardown joins workers (an in-flight
  // task's done callback still fires) and answers leftover queued tasks, and
  // those callbacks lock completions_mu_, push into completions_, and write
  // wake_write_. Default member destruction runs in reverse declaration
  // order, which would destroy all three before pool_.
  pool_.reset();
  if (listener_.valid() &&
      config_.listen.kind == cli::ListenAddress::Kind::kUnix) {
    ::unlink(config_.listen.path.c_str());
  }
}

bool Daemon::start(std::string* error) {
  // Backlog sized for connection storms (the soak bench opens ~200 at
  // once); the kernel clamps to net.core.somaxconn.
  listener_ = listen_on(config_.listen, /*backlog=*/1024, error);
  if (!listener_.valid()) return false;
  if (config_.listen.kind == cli::ListenAddress::Kind::kTcp) {
    tcp_port_ = bound_tcp_port(listener_.get());
  }
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    if (error) *error = errno_string("pipe");
    return false;
  }
  wake_read_.reset(pipe_fds[0]);
  wake_write_.reset(pipe_fds[1]);
  std::string nb_error;
  if (!set_nonblocking(wake_read_.get(), &nb_error) ||
      !set_nonblocking(wake_write_.get(), &nb_error)) {
    if (error) *error = nb_error;
    return false;
  }
  pool_ = std::make_unique<ShardPool>(server_, config_.shards,
                                      config_.queue_depth);
  server_.set_stats_extension([this](serve::Json* j) {
    const TransportStats t = transport_stats();
    serve::Json transport = serve::Json::object();
    transport.set("accepts", static_cast<double>(t.accepts));
    transport.set("rejected", static_cast<double>(t.rejected));
    transport.set("connections", static_cast<double>(t.connections));
    transport.set("peak_connections",
                  static_cast<double>(t.peak_connections));
    transport.set("lines_in", static_cast<double>(t.lines_in));
    transport.set("responses_out", static_cast<double>(t.responses_out));
    transport.set("bytes_in", static_cast<double>(t.bytes_in));
    transport.set("bytes_out", static_cast<double>(t.bytes_out));
    transport.set("idle_closed", static_cast<double>(t.idle_closed));
    transport.set("oversize_closed",
                  static_cast<double>(t.oversize_closed));
    transport.set("slow_reader_closed",
                  static_cast<double>(t.slow_reader_closed));
    j->set("transport", std::move(transport));
    pool_->append_stats(j);
  });
  return true;
}

std::uint16_t Daemon::tcp_port() const { return tcp_port_; }

int Daemon::run(const std::atomic<bool>* stop) {
  while (!(stop && stop->load(std::memory_order_relaxed)) &&
         !server_.shutdown_requested()) {
    poll_once(config_.poll_interval_ms, /*accepting=*/true, /*reading=*/true);
  }
  drain();
  return 0;
}

void Daemon::wake_pipe_write() {
  const char byte = 1;
  // A full pipe still wakes the poll loop (a byte is already pending), so
  // EAGAIN is success here.
  (void)!::write(wake_write_.get(), &byte, 1);
}

void Daemon::poll_once(int timeout_ms, bool accepting, bool reading) {
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> conn_ids;
  fds.push_back(pollfd{wake_read_.get(), POLLIN, 0});
  const bool has_listener = accepting && listener_.valid();
  if (has_listener) fds.push_back(pollfd{listener_.get(), POLLIN, 0});
  const std::size_t base = fds.size();
  conn_ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) {
    short events = 0;
    if (reading && !conn->closing) events |= POLLIN;
    if (conn->woff < conn->wbuf.size()) events |= POLLOUT;
    fds.push_back(pollfd{conn->fd.get(), events, 0});
    conn_ids.push_back(id);
  }
  const int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                           timeout_ms);
  if (ready < 0) return;  // EINTR: the run loop re-checks its stop flag

  if (fds[0].revents & POLLIN) {
    char buf[256];
    while (::read(wake_read_.get(), buf, sizeof(buf)) > 0) {
    }
  }
  deliver_completions();
  if (has_listener && (fds[1].revents & (POLLIN | POLLERR))) {
    accept_new_connections();
  }

  const auto now = std::chrono::steady_clock::now();
  std::vector<std::uint64_t> dead;
  for (std::size_t i = 0; i < conn_ids.size(); ++i) {
    auto it = conns_.find(conn_ids[i]);
    if (it == conns_.end()) continue;
    Conn& conn = *it->second;
    const short revents = fds[base + i].revents;
    if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
      // POLLHUP with readable data still delivers the data first on Linux,
      // but a half-closed client cannot receive responses anyway — drop it.
      dead.push_back(conn.id);
      continue;
    }
    if ((revents & POLLIN) && !service_reads(conn)) {
      dead.push_back(conn.id);
      continue;
    }
    if ((revents & POLLOUT) && !flush_writes(conn)) {
      dead.push_back(conn.id);
      continue;
    }
    const auto idle =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            now - conn.last_activity)
            .count();
    if (!conn.closing && conn.in_flight == 0 &&
        conn.woff >= conn.wbuf.size() && conn.rbuf.pending_bytes() == 0 &&
        idle > kIdleTimeoutMs) {
      idle_closed_.fetch_add(1, std::memory_order_relaxed);
      dead.push_back(conn.id);
    } else if (conn.closing && conn.in_flight == 0 &&
               idle > kIdleTimeoutMs) {
      // A closing connection normally dies when its wbuf flushes; a peer
      // that never reads would keep it (and its buffered responses) pinned
      // forever, so the idle timeout drops it with its backlog unflushed.
      dead.push_back(conn.id);
    }
  }
  // Shed responses complete inline during service_reads and completions may
  // have landed while reading — push them into write buffers this tick, so
  // a fast client sees its response without waiting one poll interval.
  deliver_completions();
  for (const std::uint64_t id : dead) close_connection(id);
}

void Daemon::accept_new_connections() {
  for (;;) {
    bool would_block = false;
    std::string error;
    UniqueFd fd = accept_connection(listener_.get(), &would_block, &error);
    if (!fd.valid()) {
      if (!would_block && !error.empty()) {
        std::fprintf(stderr, "nettag_serve: %s\n", error.c_str());
      }
      return;
    }
    if (conns_.size() >= kMaxConnections) {
      // Over the cap the daemon closes immediately rather than queueing the
      // connection — request-level pushback is too_busy, connection-level
      // pushback is a refused session the client retries.
      rejected_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    accepts_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Conn>(std::move(fd), id, kMaxLineBytes);
    conn->last_activity = std::chrono::steady_clock::now();
    conns_.emplace(id, std::move(conn));
    const std::uint64_t gauge =
        connections_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::uint64_t peak = peak_connections_.load(std::memory_order_relaxed);
    while (gauge > peak &&
           !peak_connections_.compare_exchange_weak(
               peak, gauge, std::memory_order_relaxed)) {
    }
  }
}

bool Daemon::service_reads(Conn& conn) {
  char buf[64 * 1024];
  for (;;) {
    const long n = read_some(conn.fd.get(), buf, sizeof(buf));
    if (n < 0) return false;  // EOF or dead peer
    if (n == 0) break;        // drained the socket for now
    bytes_in_.fetch_add(static_cast<std::uint64_t>(n),
                        std::memory_order_relaxed);
    conn.last_activity = std::chrono::steady_clock::now();
    if (!conn.rbuf.feed(buf, static_cast<std::size_t>(n))) {
      // Unterminated oversized line: answer with the structured taxonomy
      // (no request id is recoverable from a poisoned buffer) and close
      // once the error is flushed.
      oversize_closed_.fetch_add(1, std::memory_order_relaxed);
      serve::Response response;
      response.error = serve::ErrorCode::kBadRequest;
      response.error_message =
          "request line exceeds " + std::to_string(kMaxLineBytes) +
          " bytes without a newline; closing connection";
      conn.wbuf += serve::render_response(response);
      conn.wbuf += '\n';
      conn.closing = true;
      return flush_writes(conn);
    }
    std::string line;
    while (conn.rbuf.next_line(&line)) {
      lines_in_.fetch_add(1, std::memory_order_relaxed);
      submit_line(conn, line);
    }
  }
  return true;
}

void Daemon::submit_line(Conn& conn, const std::string& line) {
  if (line.empty()) return;  // blank lines are keep-alive no-ops
  serve::Request request = serve::parse_request(line);
  request.t_start = std::chrono::steady_clock::now();
  ++conn.in_flight;
  const std::uint64_t conn_id = conn.id;
  pool_->submit(std::move(request), [this, conn_id](serve::Response r) {
    std::string rendered = serve::render_response(r);
    {
      std::lock_guard<std::mutex> lk(completions_mu_);
      completions_.emplace_back(conn_id, std::move(rendered));
    }
    wake_pipe_write();
  });
}

void Daemon::deliver_completions() {
  std::deque<std::pair<std::uint64_t, std::string>> batch;
  {
    std::lock_guard<std::mutex> lk(completions_mu_);
    batch.swap(completions_);
  }
  for (auto& [conn_id, rendered] : batch) {
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) continue;  // client left before its answer
    Conn& conn = *it->second;
    if (conn.in_flight > 0) --conn.in_flight;
    conn.wbuf += rendered;
    conn.wbuf += '\n';
    conn.last_activity = std::chrono::steady_clock::now();
    responses_out_.fetch_add(1, std::memory_order_relaxed);
    if (!conn.closing &&
        conn.wbuf.size() - conn.woff > config_.max_wbuf_bytes) {
      // The client keeps submitting but is not reading its responses: stop
      // reading from it (closing connections get no POLLIN) so the backlog
      // stays bounded, flush what we can, and close once it drains. Growth
      // past the bound is limited to responses already in flight.
      slow_reader_closed_.fetch_add(1, std::memory_order_relaxed);
      conn.closing = true;
    }
    if (!flush_writes(conn)) close_connection(conn_id);
  }
}

bool Daemon::flush_writes(Conn& conn) {
  while (conn.woff < conn.wbuf.size()) {
    const long n = send_some(conn.fd.get(), conn.wbuf.data() + conn.woff,
                             conn.wbuf.size() - conn.woff);
    if (n < 0) return false;  // peer gone
    if (n == 0) return true;  // kernel buffer full; POLLOUT resumes us
    conn.woff += static_cast<std::size_t>(n);
    bytes_out_.fetch_add(static_cast<std::uint64_t>(n),
                         std::memory_order_relaxed);
  }
  conn.wbuf.clear();
  conn.woff = 0;
  return !conn.closing;  // fully flushed: a closing connection ends now
}

void Daemon::close_connection(std::uint64_t id) {
  if (conns_.erase(id) > 0) {
    connections_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Daemon::drain() {
  listener_.reset();
  if (config_.listen.kind == cli::ListenAddress::Kind::kUnix) {
    ::unlink(config_.listen.path.c_str());
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(config_.drain_timeout_ms);
  for (;;) {
    bool waiting = pool_->pending() > 0;
    {
      std::lock_guard<std::mutex> lk(completions_mu_);
      waiting = waiting || !completions_.empty();
    }
    if (!waiting) {
      waiting = std::any_of(conns_.begin(), conns_.end(), [](const auto& kv) {
        return kv.second->woff < kv.second->wbuf.size();
      });
    }
    if (!waiting) break;
    if (std::chrono::steady_clock::now() >= deadline) {
      std::fprintf(stderr,
                   "nettag_serve: drain timed out after %dms; "
                   "dropping unflushed responses\n",
                   config_.drain_timeout_ms);
      break;
    }
    // No accepting, no reading: just pump completions and write flushes.
    poll_once(50, /*accepting=*/false, /*reading=*/false);
  }
  conns_.clear();
  connections_.store(0, std::memory_order_relaxed);
  // The final-metrics line: the complete `stats` object (requests, stages,
  // caches, transport, queue) as of the drained state.
  std::fprintf(stderr, "nettag_serve: drained; final metrics: %s\n",
               server_.stats_json().c_str());
}

Daemon::TransportStats Daemon::transport_stats() const {
  TransportStats t;
  t.accepts = accepts_.load(std::memory_order_relaxed);
  t.rejected = rejected_.load(std::memory_order_relaxed);
  t.connections = connections_.load(std::memory_order_relaxed);
  t.peak_connections = peak_connections_.load(std::memory_order_relaxed);
  t.lines_in = lines_in_.load(std::memory_order_relaxed);
  t.responses_out = responses_out_.load(std::memory_order_relaxed);
  t.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  t.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  t.idle_closed = idle_closed_.load(std::memory_order_relaxed);
  t.oversize_closed = oversize_closed_.load(std::memory_order_relaxed);
  t.slow_reader_closed = slow_reader_closed_.load(std::memory_order_relaxed);
  return t;
}

}  // namespace nettag::net
