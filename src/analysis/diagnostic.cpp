#include "analysis/diagnostic.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace nettag {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
    case Severity::kInfo: return "info";
  }
  return "unknown";
}

void LintReport::add(std::string rule, Severity severity, std::string object,
                     std::string message) {
  Diagnostic d;
  d.rule = std::move(rule);
  d.severity = severity;
  d.object = std::move(object);
  d.message = std::move(message);
  diags_.push_back(std::move(d));
}

void LintReport::merge(const LintReport& other, const std::string& context) {
  diags_.reserve(diags_.size() + other.diags_.size());
  for (const Diagnostic& d : other.diags_) {
    Diagnostic copy = d;
    if (!context.empty()) copy.object = context + ": " + copy.object;
    diags_.push_back(std::move(copy));
  }
}

std::size_t LintReport::count(Severity severity) const {
  std::size_t n = 0;
  for (const Diagnostic& d : diags_) {
    if (d.severity == severity) ++n;
  }
  return n;
}

std::string to_text(const LintReport& report) {
  if (report.empty()) return "";
  // Stable sort by descending severity; ties keep discovery order.
  std::vector<const Diagnostic*> sorted;
  sorted.reserve(report.size());
  for (const Diagnostic& d : report.diagnostics()) sorted.push_back(&d);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Diagnostic* a, const Diagnostic* b) {
                     return static_cast<int>(a->severity) >
                            static_cast<int>(b->severity);
                   });
  std::ostringstream out;
  for (const Diagnostic* d : sorted) {
    out << severity_name(d->severity) << " [" << d->rule << "] " << d->object
        << ": " << d->message << "\n";
  }
  out << report.count(Severity::kError) << " error(s), "
      << report.count(Severity::kWarning) << " warning(s), "
      << report.count(Severity::kInfo) << " info(s)\n";
  return out.str();
}

std::string json_escape(const std::string& s) {
  std::ostringstream out;
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr const char* hex = "0123456789abcdef";
          out << "\\u00" << hex[(c >> 4) & 0xF] << hex[c & 0xF];
        } else {
          out << c;
        }
    }
  }
  return out.str();
}

std::string to_json(const LintReport& report) {
  std::ostringstream out;
  out << "{\"diagnostics\":[";
  bool first = true;
  for (const Diagnostic& d : report.diagnostics()) {
    if (!first) out << ",";
    first = false;
    out << "{\"rule\":\"" << json_escape(d.rule) << "\",\"severity\":\""
        << severity_name(d.severity) << "\",\"object\":\""
        << json_escape(d.object) << "\",\"message\":\""
        << json_escape(d.message) << "\"}";
  }
  out << "],\"summary\":{\"errors\":" << report.count(Severity::kError)
      << ",\"warnings\":" << report.count(Severity::kWarning)
      << ",\"infos\":" << report.count(Severity::kInfo) << "}}";
  return out.str();
}

void enforce_clean(const LintReport& report, const std::string& context) {
  if (!report.has_errors()) return;
  throw std::runtime_error("lint failed (" + context + "):\n" +
                           to_text(report));
}

}  // namespace nettag
