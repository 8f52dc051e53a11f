#include "util/parallel.hpp"

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace nettag {

namespace {

thread_local bool t_in_pool_task = false;

int hardware_width() {
  const unsigned hc = std::thread::hardware_concurrency();
  if (hc == 0) return 1;
  return hc > 256 ? 256 : static_cast<int>(hc);
}

int resolve_width_from_env() {
  const int fallback = hardware_width();
  const char* s = std::getenv("NETTAG_THREADS");
  if (s == nullptr) return fallback;
  std::string warning;
  const int width = parse_thread_count(s, fallback, &warning);
  if (!warning.empty()) {
    std::fprintf(stderr, "nettag: %s\n", warning.c_str());
  }
  return width;
}

}  // namespace

int parse_thread_count(const char* text, int fallback, std::string* warning) {
  auto reject = [&](const std::string& why) {
    if (warning != nullptr) {
      *warning = "ignoring NETTAG_THREADS='" + std::string(text) + "': " +
                 why + "; falling back to " + std::to_string(fallback) +
                 " (hardware concurrency)";
    }
    return fallback;
  };
  if (text == nullptr || *text == '\0') return reject("empty value");
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0') return reject("not an integer");
  if (errno == ERANGE) return reject("out of range");
  if (v < 1) return reject("thread count must be >= 1");
  return v > 256 ? 256 : static_cast<int>(v);
}

/// One parallel region: a fixed task count drained via an atomic cursor.
struct ThreadPool::Job {
  const std::function<void(std::size_t)>* task = nullptr;
  std::size_t count = 0;
  std::atomic<std::size_t> cursor{0};  ///< next unclaimed task index
  std::size_t finished = 0;            ///< guarded by Impl::mu
  std::size_t busy = 0;                ///< workers inside drain(), guarded by mu
  std::exception_ptr error;            ///< first failure, guarded by Impl::mu
};

struct ThreadPool::Impl {
  std::vector<std::thread> workers;
  std::mutex mu;
  std::condition_variable work_cv;   ///< wakes workers when a job is posted
  std::condition_variable done_cv;   ///< wakes the caller when a job drains
  Job* job = nullptr;                ///< guarded by mu
  bool stopping = false;             ///< guarded by mu
};

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool(resolve_width_from_env());
  return pool;
}

int parallel_width() { return ThreadPool::instance().width(); }

ThreadPool::ThreadPool(int width) : impl_(new Impl) { start(width); }

ThreadPool::~ThreadPool() {
  stop_workers();
  delete impl_;
}

void ThreadPool::start(int width) {
  width_ = width < 1 ? 1 : width;
  // width_ lanes = the caller plus width_-1 workers.
  for (int i = 1; i < width_; ++i) {
    impl_->workers.emplace_back([this] { worker_loop(); });
  }
}

void ThreadPool::stop_workers() {
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->stopping = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& t : impl_->workers) t.join();
  impl_->workers.clear();
  impl_->stopping = false;
}

void ThreadPool::set_width(int width) {
  stop_workers();
  start(width);
}

/// Claims and runs tasks from a drain cursor; records the first exception.
void ThreadPool::drain(Job* job) {
  for (;;) {
    const std::size_t i = job->cursor.fetch_add(1, std::memory_order_relaxed);
    if (i >= job->count) return;
    std::exception_ptr err;
    try {
      (*job->task)(i);
    } catch (...) {
      err = std::current_exception();
    }
    std::lock_guard<std::mutex> lk(impl_->mu);
    if (err && !job->error) job->error = err;
    if (++job->finished == job->count) impl_->done_cv.notify_all();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lk(impl_->mu);
      impl_->work_cv.wait(lk, [&] {
        return impl_->stopping ||
               (impl_->job &&
                impl_->job->cursor.load(std::memory_order_relaxed) <
                    impl_->job->count);
      });
      if (impl_->stopping) return;
      job = impl_->job;
      // Pin the job while this worker drains it: the caller only destroys
      // the (stack-allocated) job once finished == count AND busy == 0.
      ++job->busy;
    }
    t_in_pool_task = true;
    drain(job);
    t_in_pool_task = false;
    {
      std::lock_guard<std::mutex> lk(impl_->mu);
      if (--job->busy == 0 && job->finished == job->count) {
        impl_->done_cv.notify_all();
      }
    }
  }
}

void ThreadPool::run_indexed(std::size_t count,
                             const std::function<void(std::size_t)>& task) {
  if (count == 0) return;
  if (width_ <= 1 || t_in_pool_task || count == 1) {
    for (std::size_t i = 0; i < count; ++i) task(i);
    return;
  }
  Job job;
  job.task = &task;
  job.count = count;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->job = &job;
  }
  impl_->work_cv.notify_all();
  // The caller is a lane too.
  t_in_pool_task = true;
  drain(&job);
  t_in_pool_task = false;
  {
    std::unique_lock<std::mutex> lk(impl_->mu);
    impl_->done_cv.wait(
        lk, [&] { return job.finished == job.count && job.busy == 0; });
    // Another outside caller may have posted its own job over this one;
    // clearing that would leave its remaining tasks without helper lanes.
    if (impl_->job == &job) impl_->job = nullptr;
  }
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace nettag
