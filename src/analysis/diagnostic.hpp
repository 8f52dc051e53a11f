// Diagnostic type and report container for NetTAG-Lint (src/analysis).
//
// A Diagnostic is one finding of one rule against one object (a gate, a TAG
// node, a cone, a design). Rules append to a LintReport; the report renders
// either as human-readable text (one line per finding, sorted by severity)
// or as machine JSON for CI gates (`nettag_lint --json`). Severity policy:
//
//   kError   — structurally invalid data; consuming it would poison training
//              or crash downstream passes. Pipeline seams throw on these and
//              `nettag_lint` exits nonzero.
//   kWarning — suspicious but consumable (e.g. fanout above the lint bound,
//              dead combinational logic the cleanup pass should have swept).
//   kInfo    — observations; never gate anything.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace nettag {

enum class Severity { kInfo, kWarning, kError };

/// "info" / "warning" / "error".
const char* severity_name(Severity s);

/// One lint finding.
struct Diagnostic {
  std::string rule;     ///< rule id, e.g. "NL001"
  Severity severity = Severity::kInfo;
  std::string object;   ///< located object, e.g. "gate U3" or "cone b0/r12"
  std::string message;  ///< what is wrong and why it matters
};

/// Ordered collection of findings from one or more lint passes.
class LintReport {
 public:
  void add(std::string rule, Severity severity, std::string object,
           std::string message);

  /// Appends all of `other`, prefixing each object with "<context>: " so
  /// per-netlist findings stay attributable after corpus-level aggregation.
  void merge(const LintReport& other, const std::string& context = "");

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  std::size_t count(Severity severity) const;
  bool has_errors() const { return count(Severity::kError) > 0; }
  bool empty() const { return diags_.empty(); }
  std::size_t size() const { return diags_.size(); }

 private:
  std::vector<Diagnostic> diags_;
};

/// Human-readable rendering: "error [NL001] gate U3: ..." lines, errors
/// first, followed by a one-line summary. Empty string for an empty report.
std::string to_text(const LintReport& report);

/// Machine rendering: {"diagnostics":[...],"summary":{...}}.
std::string to_json(const LintReport& report);

/// JSON string escaping (quotes, backslashes, control characters).
std::string json_escape(const std::string& s);

/// Throws std::runtime_error carrying the rendered report when `report`
/// contains error-severity findings. The pipeline-seam guard: generation,
/// physical implementation, and corpus assembly all refuse to hand broken
/// structures downstream.
void enforce_clean(const LintReport& report, const std::string& context);

}  // namespace nettag
