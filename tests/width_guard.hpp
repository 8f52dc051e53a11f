// RAII override of the shared thread pool's width for tests.
#pragma once

#include "util/parallel.hpp"

namespace nettag {

/// Sets the pool width for one scope and restores the previous width on
/// exit, so a failing test cannot leak its width into the rest of the suite.
class WidthGuard {
 public:
  explicit WidthGuard(int width) : prev_(ThreadPool::instance().width()) {
    ThreadPool::instance().set_width(width);
  }
  ~WidthGuard() { ThreadPool::instance().set_width(prev_); }

  WidthGuard(const WidthGuard&) = delete;
  WidthGuard& operator=(const WidthGuard&) = delete;

 private:
  int prev_;
};

}  // namespace nettag
