// Shared fixed-size thread pool.
//
// One process-wide pool (no work stealing: a parallel region is a fixed set
// of index tasks drained from an atomic counter) spreads independent items
// over its lanes: register cones of one embed, texts of one encode batch,
// pretraining replica shards, Adam's parameters and per-design task loops.
// Tensor, GEMM and physical-flow kernels never fork; they run serially on
// whichever thread calls them. Determinism contract:
//
//   * Each item writes only its own outputs, so a region's results are
//     bit-identical to running its items in index order.
//   * Reductions that are order-sensitive (gradient accumulation across
//     data-parallel shards) use per-shard buffers reduced in a fixed shard
//     order, and the shard count does not depend on the width, so they too
//     are bit-identical at any width.
//   * At width 1 every call runs inline on the caller.
//
// Width resolution: the NETTAG_THREADS environment variable if set (>= 1),
// otherwise std::thread::hardware_concurrency(). Tests and benches may
// override at runtime with ThreadPool::set_width().
#pragma once

#include <cstddef>
#include <functional>
#include <string>

namespace nettag {

class ThreadPool {
 public:
  /// The process-wide pool (created on first use).
  static ThreadPool& instance();

  /// Number of parallel lanes (1 == fully serial, no worker threads).
  int width() const { return width_; }

  /// Re-sizes the pool (joins workers, respawns). Not thread-safe against
  /// concurrent run_indexed() calls; intended for tests and benches.
  void set_width(int width);

  /// Runs task(0) .. task(count-1), any order, blocking until all complete.
  /// The calling thread participates. The first exception thrown by any task
  /// is rethrown on the caller after the region drains. Runs inline when the
  /// pool is serial, count <= 1, or the caller is itself running a pool task,
  /// so regions may nest (a pretraining shard running encode_batch does not
  /// deadlock or oversubscribe). Threads outside the pool may call this
  /// concurrently: each drains its own region, and only the helper lanes are
  /// shared.
  void run_indexed(std::size_t count,
                   const std::function<void(std::size_t)>& task);

  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  explicit ThreadPool(int width);
  void start(int width);
  void stop_workers();
  void worker_loop();
  struct Job;
  void drain(Job* job);

  int width_ = 1;
  struct Impl;
  Impl* impl_;  // worker threads + sync primitives (see parallel.cpp)
};

/// Convenience accessor: ThreadPool::instance().width().
int parallel_width();

/// Parses a NETTAG_THREADS-style value. Returns the parsed width clamped to
/// [1, 256]; rejects 0, negatives, non-numeric, and trailing-garbage values
/// by returning `fallback` and, when `warning` is non-null, describing the
/// rejection there. Exposed for unit tests; the pool uses it at startup.
int parse_thread_count(const char* text, int fallback,
                       std::string* warning = nullptr);

}  // namespace nettag
