#include "net/shard.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "serve/canonical.hpp"

namespace nettag::net {

namespace {

/// FNV-1a over raw bytes. Routes two things: the replica name (composed
/// into every netlist-op route so per-shard cache affinity holds *per
/// replica*) and — as a fallback — the raw text of netlist ops whose text
/// failed to parse (the shard reproduces the parse error; any stable shard
/// works, this just spreads bad traffic instead of pinning it to shard 0).
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::size_t shard_cache_entries(std::size_t total, std::size_t shards) {
  const std::size_t per = total / (shards ? shards : 1);
  return per == 0 ? 1 : per;
}

}  // namespace

ShardPool::ShardPool(serve::Server& server, std::size_t shards,
                     std::size_t queue_depth, std::size_t total_cache_entries)
    : server_(server),
      queue_depth_(std::clamp<std::size_t>(queue_depth, 1, kMaxQueueDepth)) {
  shards = std::clamp<std::size_t>(shards, 1, kMaxShards);
  const std::size_t per_cache = shard_cache_entries(total_cache_entries,
                                                    shards);
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(per_cache));
    shards_.back()->depth_hist.assign(queue_depth_ + 1, 0);
  }
  for (auto& s : shards_) {
    s->worker = std::thread([this, shard = s.get()] { worker_loop(*shard); });
  }
}

ShardPool::~ShardPool() {
  stopping_.store(true, std::memory_order_release);
  paused_.store(false, std::memory_order_release);
  for (auto& s : shards_) {
    std::lock_guard<std::mutex> lk(s->mu);
    s->cv.notify_all();
  }
  for (auto& s : shards_) {
    if (s->worker.joinable()) s->worker.join();
  }
  // Any tasks still queued at teardown get an internal-error response so the
  // transport can answer them (normal shutdown drains first; this is the
  // belt-and-braces path).
  for (auto& s : shards_) {
    for (Task& task : s->queue) {
      serve::Response response;
      response.id = task.request.id;
      response.op = task.request.op;
      response.error = serve::ErrorCode::kInternal;
      response.error_message = "shard pool destroyed with queued requests";
      if (task.done) task.done(std::move(response));
    }
    s->queue.clear();
  }
}

std::size_t ShardPool::route(const serve::Request& request) {
  const std::size_t n = shards_.size();
  if (n == 1) return 0;
  if (serve::is_netlist_op(request.op)) {
    // The replica name joins the route hash: cache keys are namespaced per
    // replica (serve/registry.hpp), so the same netlist addressed to two
    // replicas is two distinct cache entries — composing the name keeps
    // each entry pinned to one shard (affinity per replica), and spreads
    // one hot netlist served under many replica names across shards.
    const std::uint64_t name_hash =
        fnv1a(request.model.empty() ? std::string(serve::kDefaultModelName)
                                    : request.model);
    if (request.pre_parsed) {
      // Order-insensitive WL hash: renamed *and* reordered isomorphic
      // netlists route identically, which is what makes per-shard caches an
      // honest partition of the content-addressed cache.
      return static_cast<std::size_t>(
                 serve::structural_hash(*request.pre_parsed, 3, false) ^
                 name_hash) %
             n;
    }
    return static_cast<std::size_t>(fnv1a(request.netlist_text) ^ name_hash) %
           n;
  }
  return static_cast<std::size_t>(
             round_robin_.fetch_add(1, std::memory_order_relaxed)) %
         n;
}

void ShardPool::submit(serve::Request request, Done done) {
  Shard& shard = *shards_[route(request)];
  const bool sheddable = serve::is_netlist_op(request.op);
  {
    std::lock_guard<std::mutex> lk(shard.mu);
    ++shard.submitted;
    const std::size_t depth = shard.queue.size();
    shard.depth_hist[depth < queue_depth_ ? depth : queue_depth_] += 1;
    if (!(sheddable && depth >= queue_depth_)) {
      shard.queue.push_back(Task{std::move(request), std::move(done)});
      shard.cv.notify_one();
      return;
    }
    ++shard.shed;
  }
  // Shed path: answer inline with the structured taxonomy error. Counted as
  // an error request in the server metrics so operators see shed load in
  // the same requests_error / qps numbers as every other failure.
  serve::Response response;
  response.id = request.id;
  response.op = request.op;
  response.error = serve::ErrorCode::kTooBusy;
  response.error_message =
      "shard queue full (depth " + std::to_string(queue_depth_) +
      "); retry later";
  const double latency =
      request.t_start.time_since_epoch().count() == 0
          ? 0.0
          : std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          request.t_start)
                .count();
  server_.metrics().record_request(false, latency);
  if (done) done(std::move(response));
}

void ShardPool::worker_loop(Shard& shard) {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lk(shard.mu);
      shard.cv.wait(lk, [&] {
        return stopping_.load(std::memory_order_acquire) ||
               (!paused_.load(std::memory_order_acquire) &&
                !shard.queue.empty());
      });
      if (stopping_.load(std::memory_order_acquire)) return;
      task = std::move(shard.queue.front());
      shard.queue.pop_front();
      shard.in_flight = true;
    }
    serve::Response response = server_.process_on(task.request, &shard.cache);
    if (task.done) task.done(std::move(response));
    std::lock_guard<std::mutex> lk(shard.mu);
    shard.in_flight = false;
    ++shard.processed;
  }
}

std::size_t ShardPool::pending() const {
  std::size_t total = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lk(s->mu);
    total += s->queue.size() + (s->in_flight ? 1 : 0);
  }
  return total;
}

void ShardPool::pause() {
  paused_.store(true, std::memory_order_release);
}

void ShardPool::resume() {
  paused_.store(false, std::memory_order_release);
  for (auto& s : shards_) {
    std::lock_guard<std::mutex> lk(s->mu);
    s->cv.notify_all();
  }
}

std::vector<ShardPool::ShardStats> ShardPool::stats() const {
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (const auto& s : shards_) {
    ShardStats stats;
    {
      std::lock_guard<std::mutex> lk(s->mu);
      stats.submitted = s->submitted;
      stats.processed = s->processed;
      stats.shed = s->shed;
      stats.queue_depth = s->queue.size() + (s->in_flight ? 1 : 0);
      stats.queue_depth_histogram = s->depth_hist;
    }
    stats.cache = s->cache.stats();
    out.push_back(std::move(stats));
  }
  return out;
}

void ShardPool::append_stats(serve::Json* j) const {
  serve::Json arr = serve::Json::array();
  serve::ResultCache::Stats total;
  for (const ShardStats& s : stats()) {
    serve::Json shard = serve::Json::object();
    shard.set("submitted", static_cast<double>(s.submitted));
    shard.set("processed", static_cast<double>(s.processed));
    shard.set("shed", static_cast<double>(s.shed));
    shard.set("queue_depth", static_cast<double>(s.queue_depth));
    serve::Json hist = serve::Json::array();
    for (const std::uint64_t count : s.queue_depth_histogram) {
      hist.push_back(static_cast<double>(count));
    }
    shard.set("queue_depth_histogram", std::move(hist));
    shard.set("result_cache", serve::result_cache_json(s.cache));
    arr.push_back(std::move(shard));
    total += s.cache;
  }
  // Shards never touch the server's own cache, so the top-level section
  // reports the partitions as one cache.
  j->set("result_cache", serve::result_cache_json(total));
  j->set("shards", std::move(arr));
}

}  // namespace nettag::net
