// Shared fixed-size thread pool and deterministic parallel-for.
//
// One process-wide pool (no work stealing: a parallel region is a fixed set
// of index tasks drained from an atomic counter) parallelizes the tensor
// kernels, the data-parallel pre-training steps, and the embarrassingly
// parallel node loops in the physical passes. Determinism contract:
//
//   * Every parallel kernel partitions its output by ownership (each element
//     is written by exactly one task), so kernel results are bit-identical
//     to the serial loop at ANY width.
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

  /// True while the calling thread is executing a pool task. Nested parallel
  /// regions detect this and run inline, so kernels may be freely composed
  /// (a data-parallel training shard calling a parallel matmul does not
  /// deadlock or oversubscribe).
  static bool in_worker();

  /// Number of parallel lanes (1 == fully serial, no worker threads).
  int width() const { return width_; }

  /// Re-sizes the pool (joins workers, respawns). Not thread-safe against
  /// concurrent run_indexed() calls; intended for tests and benches.
  void set_width(int width);

  /// Runs task(0) .. task(count-1), any order, blocking until all complete.
  /// The calling thread participates. The first exception thrown by any task
  /// is rethrown on the caller after the region drains. Runs inline when the
  /// pool is serial, the caller is already a worker, or count <= 1.
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

/// Splits [0, n) into at most width() contiguous chunks of at least `grain`
/// items and runs body(begin, end) for each, blocking. Chunk boundaries
/// depend only on (n, grain, width), so a fixed NETTAG_THREADS gives a fixed
/// partition. Runs body(0, n) inline when n <= grain or the pool is serial.
void parallel_for(std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body);

namespace par {
/// Minimum arithmetic ops per task for cheap (add/mul) kernels — below this
/// the dispatch overhead beats the win and the kernel stays serial.
constexpr std::size_t kMinOps = std::size_t{1} << 16;
/// Minimum ops per task for transcendental kernels (exp/tanh/log).
constexpr std::size_t kMinExpOps = std::size_t{1} << 12;

/// Grain (items per task) so that each task carries at least `min_ops` work
/// given a per-item cost.
inline std::size_t grain(std::size_t per_item_cost, std::size_t min_ops) {
  if (per_item_cost == 0) per_item_cost = 1;
  return (min_ops + per_item_cost - 1) / per_item_cost;
}
}  // namespace par

}  // namespace nettag
