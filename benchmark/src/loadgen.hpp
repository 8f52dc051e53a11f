// End-to-end serve runs against the shipped `nettag_serve` binary: process
// spawn, set-up timing, the closed-loop clients and the output checks.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "serve/json.hpp"

namespace benchkit {

struct ServeRunConfig {
  std::string serve_bin;     ///< path to nettag_serve
  std::string model_prefix;  ///< checkpoint prefix
  std::string workdir;       ///< relative scratch directory (socket, logs)
  bool use_stdin = false;    ///< pipe requests into one stdin server
  /// Warm-up before measuring: at least this long, and until this many
  /// requests have been sent (one pass over the distinct requests fills the
  /// text cache and the memory plans as a long-running server has them).
  double warmup_seconds = 1.5;
  std::size_t warmup_requests = 0;
  double seconds = 12.0;     ///< measured, split into `windows` windows
  int windows = 6;           ///< per-window figures are medians over these
  int connections = 4;       ///< socket connections (stdin: always 1)
  int setup_spawns = 5;      ///< set-up is timed this many times; median
  std::size_t wall_batch = 1000;  ///< requests wall_s is the time for
};

/// One run on one server: qps and p50 are medians over the measured windows
/// (robust to a short stall of the host); the p99 is the median over runs of
/// 1000 requests. wall_s is the time to serve wall_batch requests at the
/// median rate.
struct ServeRunResult {
  std::vector<double> setup_samples_s;
  std::vector<double> latencies_ms;  ///< requests sent inside the windows
  std::uint64_t attempted = 0;       ///< requests sent inside the windows
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::uint64_t too_busy = 0;
  std::uint64_t protocol_errors = 0;
  double window_s = 0;           ///< summed over windows
  double warmup_s = 0;           ///< spent warming up
  std::uint64_t warmup_requests = 0;  ///< sent while warming up
  double qps = 0;
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
  /// Runs of >= 1000 requests the p99 is the median over (0 = pooled).
  std::size_t p99_runs = 0;
  double wall_s = 0;             ///< wall_batch / qps
  double peak_rss_mb = 0;        ///< server VmHWM
  std::vector<double> window_qps, window_p50_ms;
  /// Parsed `stats` results before and after each window.
  std::vector<std::pair<nettag::serve::Json, nettag::serve::Json>> stats;
  /// Counter delta at a path of object keys, summed over windows.
  double delta(std::initializer_list<const char*> path) const;
  std::uint64_t response_bytes = 0;       ///< in-window response bytes
  std::uint64_t cached_responses = 0;
  std::uint64_t renamed_requests = 0;
  double gates_per_request = 0, registers_per_request = 0;
  std::uint64_t wrapped_requests = 0;  ///< cold designs requested again

  // Output checks.
  std::uint64_t identity_compared = 0;  ///< repeat answers byte-compared
  std::uint64_t identity_mismatches = 0;
  int embed_checked = 0;
  double embed_max_abs_diff = 0;
  int embed_failures = 0;
  std::vector<std::string> check_errors;
};

/// Runs one end-to-end serve workload: times set-up, runs the closed loop
/// for the warm-up and then `seconds` on one server, snapshots `stats`
/// around the measured part and drains the server. Checks every response, and compares
/// a seeded sample of embeddings with an in-process NetTag on the same
/// checkpoint. Throws on a set-up failure.
ServeRunResult run_serve(const ServeRunConfig& config, const Inputs& inputs);

/// Runs a program to completion and collects its standard output (stderr
/// goes to `log_path`). True when it exited 0.
bool capture_output(const std::vector<std::string>& argv, const std::string& log_path,
                    std::string* out);

/// NETTAG_THREADS of every spawned server. Serial kernels: on the socket its
/// four shard workers already fill a 4-core host, and a 4-wide pool under
/// each of them oversubscribes it, which then measures the scheduler.
inline constexpr int kServerThreads = 1;

/// Responses per run compared with in-process embeddings, and the tolerance
/// of that comparison (max abs diff).
inline constexpr std::size_t kCheckSamples = 12;
inline constexpr double kEmbedTolerance = 1e-5;

}  // namespace benchkit
