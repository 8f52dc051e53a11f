// Workload inputs, generated from the workload seed with the repository's own
// design generator (rtlgen). The program under test only ever sees the NDJSON
// request lines built here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace benchkit {

enum class Workload { kColdCircuits, kHotCones, kStdinCones, kTrain };

bool parse_workload(const std::string& name, Workload* out);
const char* workload_name(Workload w);
bool is_serve(Workload w);

/// One distinct request body.
struct Item {
  std::string op;       ///< embed_circuit | embed_cone | embed_gates
  std::string netlist;  ///< netlist/io.hpp text
  /// Request line minus its opening `{"id":"<id>` — append to the id.
  std::string body;
  /// Items of one group must receive byte-identical results.
  int group = 0;
  int gates = 0;
  int registers = 0;
  bool renamed = false;  ///< instance names permuted from the group's original
};

/// Sizing knobs (the smoke mode shrinks them).
struct InputSize {
  int cold_designs = 3200;  ///< distinct designs for serve_cold_circuits
  int hot_cones = 160;      ///< distinct cones in the hot pool
  int stdin_cones = 1000;   ///< distinct cones for serve_stdin_cones
};

/// Size bands (gates per request). Each seed draws a different sample, and
/// the bands keep the per-request work of every seed alike.
inline constexpr int kColdMinGates = 120, kColdMaxGates = 280;
inline constexpr int kHotMinGates = 10, kHotMaxGates = 32;
inline constexpr int kStdinMinGates = 40, kStdinMaxGates = 120;

/// Hot-pool cones that share a WL cache key with a different fingerprint,
/// in pairs at these Zipf ranks (searched for over at most
/// kMaxPoolDesigns designs).
inline constexpr int kCollisionPairs = 4;
inline constexpr std::size_t kCollisionRanks[4] = {8, 32, 56, 80};
inline constexpr int kMaxPoolDesigns = 4000;

struct Inputs {
  Workload workload = Workload::kColdCircuits;
  std::uint64_t seed = 0;
  std::vector<Item> items;
  std::vector<nettag::Netlist> designs;  ///< the generated source designs
  std::size_t designs_generated = 0;  ///< including designs out of band
  std::size_t hot_main_cones = 0;     ///< hot pool cones before the pairs
  double generate_ms_total = 0;  ///< rtlgen wall time over all generated
  double extract_us_total = 0;   ///< extract_register_cones wall time
  std::size_t cones_extracted = 0;
};

Inputs make_inputs(Workload w, std::uint64_t seed, const InputSize& size);

/// Deterministic request stream of one client connection.
///   serve_cold_circuits: every connection draws from one shared counter over
///     the distinct designs (see next_shared), wrapping when exhausted;
///   serve_hot_cones: a private Zipf(1.1) stream over the cone pool;
///   serve_stdin_cones: the cone list in order, cycling.
class RequestStream {
 public:
  RequestStream(const Inputs& inputs, int connection);
  /// Index into inputs.items of the next request; `shared_counter` is used
  /// by serve_cold_circuits only.
  std::size_t next(std::uint64_t shared_counter_value);

 private:
  const Inputs& inputs_;
  nettag::Rng rng_;
  std::vector<double> zipf_cdf_;
  std::vector<std::size_t> rank_to_cone_;
  std::size_t cursor_ = 0;
};

/// Hot-pool traffic mix.
inline constexpr double kZipfAlpha = 1.1;
inline constexpr double kGatesShare = 0.10;    ///< embed_gates share
inline constexpr double kRenamedShare = 0.15;  ///< permuted-name resubmissions

}  // namespace benchkit
