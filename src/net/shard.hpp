// Request execution for the NetTAG-Serve daemon (docs/ARCHITECTURE.md §11.3).
//
// One bounded FIFO that W worker threads drain. Each worker takes the oldest
// request and runs it through Server::submit — the same call the stdin loop
// and in-process callers make — so every path shares the server's one
// ResultCache, and no request waits while a worker is idle.
//
// The queue is the backpressure point: it holds at most W × queue_depth
// netlist ops. A netlist op arriving at a full queue is *shed*: it gets an
// immediate `too_busy` error response and never queues, so the daemon's
// memory and latency stay bounded no matter how hard clients push. Control
// ops (ping, stats, shutdown, reload) are never shed — an operator must
// always be able to observe and drain a saturated daemon.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace nettag::net {

class ShardPool {
 public:
  /// Completion callback; runs on the worker thread (or inline on the
  /// submitting thread for shed requests). Must be cheap and thread-safe —
  /// the daemon's callback pushes onto a completion queue and wakes poll().
  using Done = std::function<void(serve::Response)>;

  /// Upper bounds on the worker count and the per-worker queue depth; they
  /// are also the limits of nettag_serve's --shards and --queue-depth. The
  /// queue keeps a workers × queue_depth + 1 bucket histogram, which every
  /// `stats` response lists.
  static constexpr std::size_t kMaxShards = 256;
  static constexpr std::size_t kMaxQueueDepth = 4096;

  /// `workers` and `queue_depth` clamp to [1, kMaxShards] and
  /// [1, kMaxQueueDepth]; the queue holds at most their product of netlist
  /// ops.
  ShardPool(serve::Server& server, std::size_t workers,
            std::size_t queue_depth);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  /// Enqueues `request`, or sheds it with `too_busy` when the queue is full
  /// (netlist ops only; control ops always queue). `done` is invoked exactly
  /// once either way.
  void submit(serve::Request request, Done done);

  /// Queued, in-flight and not yet delivered requests.
  std::size_t pending() const;

  // --- test hooks ---------------------------------------------------------
  /// Halts all workers before their next dequeue, so tests can fill the
  /// queue deterministically and observe the shed path. resume() restarts.
  void pause();
  void resume();

  struct QueueStats {
    std::size_t workers = 0;
    std::uint64_t submitted = 0;
    std::uint64_t processed = 0;
    std::uint64_t shed = 0;
    std::size_t queue_depth = 0;  ///< current: queued + in flight (unanswered)
    /// queue_depth_histogram[d] = number of submissions that found d
    /// requests already queued (d ranges 0..workers × queue_depth; a
    /// submission that found the queue full counts in the last bucket).
    std::vector<std::uint64_t> queue_depth_histogram;
  };
  QueueStats stats() const;

  /// Appends the {"queue":{...}} counters to a stats JSON object — wired
  /// into the server via Server::set_stats_extension.
  void append_stats(serve::Json* j) const;

 private:
  struct Task {
    serve::Request request;
    Done done;
  };

  void worker_loop();

  serve::Server& server_;
  /// Netlist ops the queue holds before it sheds: workers × queue_depth.
  const std::size_t capacity_;

  mutable std::mutex mu_;  ///< guards everything below but workers_
  std::condition_variable cv_;
  std::deque<Task> queue_;
  std::size_t in_flight_ = 0;   ///< dequeued, not yet answered
  std::size_t delivering_ = 0;  ///< answered, completion callback running
  std::uint64_t submitted_ = 0, processed_ = 0, shed_ = 0;
  std::vector<std::uint64_t> depth_hist_;  ///< sized capacity_ + 1
  bool paused_ = false;
  bool stopping_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace nettag::net
