// Inert remains of the deleted arena memory planner. Nothing in the library
// includes this header: only the repository benchmark still names the API
// (benchmark/src/replay.cpp and benchmark/src/train.cpp). Scopes do nothing
// and every counter reads 0. Delete it once the benchmark calls the library
// instead of its own copies (ROADMAP item 1).
#pragma once

#include <string>

#include "nn/tensor.hpp"

namespace nettag::plan {

struct Stats {
  unsigned long long tapes_recorded = 0, plans_installed = 0,
                     verifier_rejects = 0, replays = 0, divergences = 0,
                     mallocs_avoided = 0, heap_mat_allocs = 0;
};

inline Stats stats_snapshot() { return {}; }

struct PlanScope {
  explicit PlanScope(const std::string&) {}
};

inline void keep_alive(const Tensor&) {}

}  // namespace nettag::plan
