#include "net/shard.hpp"

#include <algorithm>
#include <chrono>
#include <string>

namespace nettag::net {

ShardPool::ShardPool(serve::Server& server, std::size_t workers,
                     std::size_t queue_depth)
    : server_(server),
      capacity_(std::clamp<std::size_t>(workers, 1, kMaxShards) *
                std::clamp<std::size_t>(queue_depth, 1, kMaxQueueDepth)),
      depth_hist_(capacity_ + 1, 0) {
  workers = std::clamp<std::size_t>(workers, 1, kMaxShards);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ShardPool::~ShardPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  // Any tasks still queued at teardown get an internal-error response so the
  // transport can answer them (normal shutdown drains first; this is the
  // belt-and-braces path).
  for (Task& task : queue_) {
    serve::Response response;
    response.id = task.request.id;
    response.op = task.request.op;
    response.error = serve::ErrorCode::kInternal;
    response.error_message = "shard pool destroyed with queued requests";
    if (task.done) task.done(std::move(response));
  }
  queue_.clear();
}

void ShardPool::submit(serve::Request request, Done done) {
  const bool sheddable = serve::is_netlist_op(request.op);
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++submitted_;
    const std::size_t depth = queue_.size();
    depth_hist_[std::min(depth, capacity_)] += 1;
    if (!(sheddable && depth >= capacity_)) {
      queue_.push_back(Task{std::move(request), std::move(done)});
      cv_.notify_one();
      return;
    }
    ++shed_;
  }
  // Shed path: answer inline with the structured taxonomy error. Counted as
  // an error request in the server metrics so operators see shed load in
  // the same requests_error / qps numbers as every other failure.
  serve::Response response;
  response.id = request.id;
  response.op = request.op;
  response.error = serve::ErrorCode::kTooBusy;
  response.error_message = "request queue full (" +
                           std::to_string(capacity_) +
                           " queued); retry later";
  const double latency =
      request.t_start.time_since_epoch().count() == 0
          ? 0.0
          : std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          request.t_start)
                .count();
  server_.metrics().record_request(false, latency);
  if (done) done(std::move(response));
}

void ShardPool::worker_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_.wait(lk, [&] { return stopping_ || (!paused_ && !queue_.empty()); });
    if (stopping_) return;
    Task task = std::move(queue_.front());
    queue_.pop_front();
    ++in_flight_;
    lk.unlock();
    serve::Response response = server_.submit(std::move(task.request));
    // Counted before delivery, so a client that reads its answer and sends
    // `stats` at once sees the request processed and out of queue_depth.
    lk.lock();
    --in_flight_;
    ++processed_;
    ++delivering_;
    lk.unlock();
    if (task.done) task.done(std::move(response));
    lk.lock();
    --delivering_;
  }
}

std::size_t ShardPool::pending() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.size() + in_flight_ + delivering_;
}

void ShardPool::pause() {
  std::lock_guard<std::mutex> lk(mu_);
  paused_ = true;
}

void ShardPool::resume() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

ShardPool::QueueStats ShardPool::stats() const {
  QueueStats stats;
  stats.workers = workers_.size();
  std::lock_guard<std::mutex> lk(mu_);
  stats.submitted = submitted_;
  stats.processed = processed_;
  stats.shed = shed_;
  stats.queue_depth = queue_.size() + in_flight_;
  stats.queue_depth_histogram = depth_hist_;
  return stats;
}

void ShardPool::append_stats(serve::Json* j) const {
  const QueueStats s = stats();
  serve::Json queue = serve::Json::object();
  queue.set("workers", static_cast<double>(s.workers));
  queue.set("submitted", static_cast<double>(s.submitted));
  queue.set("processed", static_cast<double>(s.processed));
  queue.set("shed", static_cast<double>(s.shed));
  queue.set("queue_depth", static_cast<double>(s.queue_depth));
  serve::Json hist = serve::Json::array();
  for (const std::uint64_t count : s.queue_depth_histogram) {
    hist.push_back(static_cast<double>(count));
  }
  queue.set("queue_depth_histogram", std::move(hist));
  j->set("queue", std::move(queue));
}

}  // namespace nettag::net
