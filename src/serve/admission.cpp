#include "serve/admission.hpp"

#include <string>

#include "analysis/diagnostic.hpp"
#include "analysis/lint.hpp"
#include "netlist/io.hpp"
#include "util/timer.hpp"

namespace nettag::serve {

const Netlist* Admission::admit(const Request& request, Netlist* local,
                                Response* response) const {
  // Stage 1: parse the structural netlist text — unless the caller passed a
  // parse along in pre_parsed (benchmark/src/replay.cpp, its only user,
  // times that parse itself).
  Timer t;
  const Netlist* nl = request.pre_parsed.get();
  if (nl == nullptr) {
    try {
      *local = netlist_from_string(request.netlist_text);
    } catch (const std::exception& e) {
      metrics_->record_stage(Stage::kParse, t.seconds());
      response->error = ErrorCode::kParseError;
      response->error_message = e.what();
      return nullptr;
    }
    metrics_->record_stage(Stage::kParse, t.seconds());
    nl = local;
  }

  // Stage 2: admission gate — size bound, then src/analysis lint.
  if (nl->size() > config_.max_gates) {
    response->error = ErrorCode::kTooLarge;
    response->error_message =
        "netlist has " + std::to_string(nl->size()) + " gates, limit is " +
        std::to_string(config_.max_gates);
    return nullptr;
  }
  t.reset();
  const LintReport lint = lint_netlist(*nl);
  metrics_->record_stage(Stage::kLint, t.seconds());
  const bool rejected =
      lint.has_errors() ||
      (config_.reject_warnings && lint.count(Severity::kWarning) > 0);
  if (rejected) {
    response->error = ErrorCode::kLintRejected;
    response->error_message =
        "admission lint found " + std::to_string(lint.count(Severity::kError)) +
        " error(s), " + std::to_string(lint.count(Severity::kWarning)) +
        " warning(s)" + (config_.reject_warnings ? " (strict mode)" : "");
    for (const Diagnostic& d : lint.diagnostics()) {
      if (response->detail.size() >= 8) {
        response->detail.push_back(
            "... (" + std::to_string(lint.size() - 8) + " more)");
        break;
      }
      response->detail.push_back(std::string(severity_name(d.severity)) +
                                 " [" + d.rule + "] " + d.object + ": " +
                                 d.message);
    }
    return nullptr;
  }
  return nl;
}

}  // namespace nettag::serve
