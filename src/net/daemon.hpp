// The NetTAG-Serve socket daemon (docs/ARCHITECTURE.md §11).
//
// One poll()-based transport thread owns all sockets:
//   * accepts unix-domain or TCP connections (cli::ListenAddress),
//   * frames NDJSON lines per connection (net/framing.hpp) with bounded
//     read/write buffering and an idle timeout,
//   * decodes each request line (serve::parse_request; the netlist text is
//     parsed later, by admission on a worker) and enqueues it on the one
//     request queue (net/shard.hpp), and
//   * flushes completed responses back, in completion order — responses to
//     one connection may interleave across its in-flight requests, which is
//     why every request carries an `id` the response echoes.
//
// Workers hand finished responses back through a mutex-guarded completion
// queue plus a self-pipe byte, so the transport thread wakes from poll()
// immediately instead of on the next timeout tick.
//
// Shutdown: a SIGTERM/SIGINT (observed through the caller's stop flag) or a
// `shutdown` request triggers a graceful drain — close the listener (stop
// accepting), stop reading (no new requests), let the workers finish every
// queued and in-flight request, flush all write buffers, then emit one
// final-metrics line (the full `stats` JSON, transport and queue sections
// included) to stderr and return. Hot `reload` requests compose with all of
// this: they are just another op processed on a worker.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/framing.hpp"
#include "net/shard.hpp"
#include "net/socket.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"

namespace nettag::net {

struct DaemonConfig {
  cli::ListenAddress listen;
  std::size_t shards = 4;  ///< worker threads; at most ShardPool::kMaxShards
  /// Per worker, at most ShardPool::kMaxQueueDepth: the queue holds
  /// shards × queue_depth netlist ops; beyond it, they shed.
  std::size_t queue_depth = 64;
  /// Unwritten response bytes buffered per connection before the daemon
  /// stops reading from it and closes it once (if ever) the backlog
  /// flushes. Bounds the memory a client that submits requests but never
  /// reads responses can pin.
  std::size_t max_wbuf_bytes = 8u << 20;
  int poll_interval_ms = 200;        ///< poll() tick; bounds stop-flag latency
  int drain_timeout_ms = 10000;      ///< bound on the graceful-drain flush
};

class Daemon {
 public:
  Daemon(serve::Server& server, DaemonConfig config);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds the listener, builds the worker pool, and registers the
  /// transport/queue stats extension on the server. Returns false with
  /// *error on bind/config failure.
  bool start(std::string* error);

  /// The bound TCP port (resolves `--listen host:0` ephemeral binds).
  /// 0 for unix-domain listeners.
  std::uint16_t tcp_port() const;

  /// Serves until `*stop` becomes true (SIGTERM/SIGINT flag) or a `shutdown`
  /// request is processed, then drains gracefully (see file comment) and
  /// returns 0. `stop` may be null (shutdown requests only).
  int run(const std::atomic<bool>* stop);

  /// Test hook: the worker pool (pause/resume, stats).
  ShardPool* shard_pool() { return pool_.get(); }

  /// Transport counters, as appended to `stats` under "transport".
  struct TransportStats {
    std::uint64_t accepts = 0;
    std::uint64_t rejected = 0;       ///< closed at accept: connection cap
    std::uint64_t connections = 0;    ///< current gauge
    std::uint64_t peak_connections = 0;
    std::uint64_t lines_in = 0;
    std::uint64_t responses_out = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t idle_closed = 0;
    std::uint64_t oversize_closed = 0;
    std::uint64_t slow_reader_closed = 0;  ///< wbuf exceeded max_wbuf_bytes
  };
  TransportStats transport_stats() const;

 private:
  struct Conn {
    UniqueFd fd;
    std::uint64_t id = 0;
    LineBuffer rbuf;
    std::string wbuf;         ///< rendered response bytes not yet written
    std::size_t woff = 0;     ///< wbuf bytes already written
    std::chrono::steady_clock::time_point last_activity;
    std::size_t in_flight = 0;  ///< submitted, response not yet in wbuf
    bool closing = false;       ///< flush wbuf, then close

    Conn(UniqueFd fd_in, std::uint64_t id_in, std::size_t max_line_bytes)
        : fd(std::move(fd_in)), id(id_in), rbuf(max_line_bytes) {}
  };

  /// One poll() round: deliver completions, accept (when `accepting`), read
  /// + submit (when `reading`), flush writes, reap idle/dead connections.
  void poll_once(int timeout_ms, bool accepting, bool reading);
  void accept_new_connections();
  /// Reads everything available on `conn`; frames and submits lines.
  /// Returns false when the connection died (caller removes it).
  bool service_reads(Conn& conn);
  void submit_line(Conn& conn, const std::string& line);
  /// Writes as much buffered output as the socket takes. Returns false when
  /// the connection died.
  bool flush_writes(Conn& conn);
  void deliver_completions();
  void close_connection(std::uint64_t id);
  void drain();
  void wake_pipe_write();

  serve::Server& server_;
  DaemonConfig config_;
  std::unique_ptr<ShardPool> pool_;
  UniqueFd listener_;
  UniqueFd wake_read_, wake_write_;  ///< self-pipe: worker -> poll wakeup
  std::uint16_t tcp_port_ = 0;
  std::uint64_t next_conn_id_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;

  /// Completed (conn id, rendered line) pairs from workers.
  std::mutex completions_mu_;
  std::deque<std::pair<std::uint64_t, std::string>> completions_;

  // Counters are atomics: the poll thread writes, `stats` requests read from
  // worker threads.
  std::atomic<std::uint64_t> accepts_{0}, rejected_{0}, connections_{0},
      peak_connections_{0}, lines_in_{0}, responses_out_{0}, bytes_in_{0},
      bytes_out_{0}, idle_closed_{0}, oversize_closed_{0},
      slow_reader_closed_{0};
};

}  // namespace nettag::net
