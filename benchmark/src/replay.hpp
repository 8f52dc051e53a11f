// The traced serve run: replays a workload's request sequence in-process
// against the same checkpoint, calling the public functions Server, the
// daemon transport and NetTag call, in the same order, with a span around
// each call. Combined with the `stats` counter deltas of the end-to-end run
// it yields the serve-side per-layer metrics.
#pragma once

#include <string>

#include "common.hpp"
#include "inputs.hpp"
#include "loadgen.hpp"

namespace benchkit {

struct ReplayConfig {
  std::string model_prefix;
  double warm_seconds = 0.7;  ///< untimed warm-up of each pass
  double pass_seconds = 1.2;  ///< measured time budget of the reference pass
  bool daemon_layout = true;  ///< route span, 4 shards x 64-entry caches
  std::string spans_path;     ///< NDJSON span dump ("" = none)
};

struct LayerReport {
  Metrics metrics;
  JsonObj detail;  ///< self-time table, coverage, overhead, properties
  bool ok = true;  ///< replay fidelity and response checks
  std::vector<std::string> errors;
};

/// Serve-side per-layer metrics for one workload: the traced in-process
/// replay, the untraced replay it is compared with, side timings of layers
/// that run inside another layer's call, and counter deltas from the `stats`
/// snapshots of `e2e` (the end-to-end run of the same workload).
LayerReport serve_layers(const ReplayConfig& config, const Inputs& inputs,
                         const ServeRunResult& e2e);

}  // namespace benchkit
