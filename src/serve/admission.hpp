// Admission gate for NetTAG-Serve netlist ops (docs/ARCHITECTURE.md §7.3).
//
// The first pipeline stage of every netlist request, split out of Server so
// dispatch / registry / admission are separate concerns: parse the netlist
// text, enforce the size bound, and run the src/analysis lint gate.
// Rejections are structured error responses (parse_error / too_large /
// lint_rejected), never exceptions.
// Admission is replica-independent — it runs before a model is touched, so
// its verdicts are identical for every replica.
#pragma once

#include <cstddef>

#include "netlist/netlist.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"

namespace nettag::serve {

struct AdmissionConfig {
  /// Netlists above this many gates get kTooLarge.
  std::size_t max_gates = 20000;
  /// Strict admission: reject on lint *warnings* too (errors always reject).
  /// The lint itself runs with default LintOptions.
  bool reject_warnings = false;
};

class Admission {
 public:
  Admission(const AdmissionConfig& config, ServeMetrics* metrics)
      : config_(config), metrics_(metrics) {}

  /// Parses, bounds, and lints one request's netlist. Returns the admitted
  /// netlist — *local filled by parsing request.netlist_text, or
  /// request.pre_parsed when the caller parsed it already (only
  /// benchmark/src/replay.cpp does) — or nullptr with response's
  /// error/error_message/detail fields set. Thread-safe.
  const Netlist* admit(const Request& request, Netlist* local,
                       Response* response) const;

  const AdmissionConfig& config() const { return config_; }

 private:
  AdmissionConfig config_;
  ServeMetrics* metrics_;
};

}  // namespace nettag::serve
