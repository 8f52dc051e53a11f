#include "serve/protocol.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>

#include "analysis/diagnostic.hpp"  // json_escape

namespace nettag::serve {

const char* op_name(Op op) {
  switch (op) {
    case Op::kInvalid: return "invalid";
    case Op::kPing: return "ping";
    case Op::kStats: return "stats";
    case Op::kShutdown: return "shutdown";
    case Op::kReload: return "reload";
    case Op::kModelLoad: return "model_load";
    case Op::kModelUnload: return "model_unload";
    case Op::kModelList: return "model_list";
    case Op::kEmbedGates: return "embed_gates";
    case Op::kEmbedCone: return "embed_cone";
    case Op::kEmbedCircuit: return "embed_circuit";
    case Op::kPredict: return "predict";
  }
  return "invalid";
}

bool is_netlist_op(Op op) {
  switch (op) {
    case Op::kEmbedGates:
    case Op::kEmbedCone:
    case Op::kEmbedCircuit:
    case Op::kPredict:
      return true;
    default:
      return false;
  }
}

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone: return "none";
    case ErrorCode::kBadJson: return "bad_json";
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kParseError: return "parse_error";
    case ErrorCode::kTooLarge: return "too_large";
    case ErrorCode::kLintRejected: return "lint_rejected";
    case ErrorCode::kUnknownTask: return "unknown_task";
    case ErrorCode::kUnknownModel: return "unknown_model";
    case ErrorCode::kReloadFailed: return "reload_failed";
    case ErrorCode::kTooBusy: return "too_busy";
    case ErrorCode::kInternal: return "internal";
  }
  return "internal";
}

namespace {

bool op_from_name(const std::string& name, Op* out) {
  for (Op op : {Op::kPing, Op::kStats, Op::kShutdown, Op::kReload,
                Op::kModelLoad, Op::kModelUnload, Op::kModelList,
                Op::kEmbedGates, Op::kEmbedCone, Op::kEmbedCircuit,
                Op::kPredict}) {
    if (name == op_name(op)) {
      *out = op;
      return true;
    }
  }
  return false;
}

constexpr std::uint32_t op_bit(Op op) {
  return 1u << static_cast<unsigned>(op);
}

constexpr std::uint32_t kNetlistOps = op_bit(Op::kEmbedGates) |
                                      op_bit(Op::kEmbedCone) |
                                      op_bit(Op::kEmbedCircuit) |
                                      op_bit(Op::kPredict);

/// One wire field: its name, which ops accept it, the bad_request message a
/// mistyped/out-of-range value earns, and the typed validate-and-store step.
/// parse_request is entirely driven by this table — adding a field is one
/// row, and any field the table does not map to the request's op is a
/// structured error, never silently ignored.
struct FieldSpec {
  const char* name;
  std::uint32_t ops;     ///< op_bit mask of ops that accept the field
  const char* type_msg;  ///< error message when apply() rejects the value
  bool (*apply)(const Json& value, Request* out);
};

const FieldSpec kFieldSpecs[] = {
    {"netlist", kNetlistOps, "'netlist' must be a string",
     [](const Json& v, Request* out) {
       if (!v.is_string()) return false;
       out->netlist_text = v.as_string();
       return true;
     }},
    {"k_hop", kNetlistOps, "'k_hop' must be an integer in [0,16]",
     [](const Json& v, Request* out) {
       const double d = v.as_number(-1.0);
       if (!v.is_number() || d != std::floor(d) || d < 0 || d > 16) {
         return false;
       }
       out->k_hop = static_cast<int>(d);
       return true;
     }},
    {"max_cone_gates", kNetlistOps, "'max_cone_gates' must be an integer >= 1",
     [](const Json& v, Request* out) {
       const double d = v.as_number(0.0);
       if (!v.is_number() || d != std::floor(d) || d < 1) return false;
       out->max_cone_gates = static_cast<std::size_t>(v.as_int());
       return true;
     }},
    {"task", op_bit(Op::kPredict), "'task' must be a string",
     [](const Json& v, Request* out) {
       if (!v.is_string()) return false;
       out->task = v.as_string();
       return true;
     }},
    {"model",
     kNetlistOps | op_bit(Op::kReload) | op_bit(Op::kModelLoad) |
         op_bit(Op::kModelUnload),
     "'model' must be a non-empty string",
     [](const Json& v, Request* out) {
       if (!v.is_string() || v.as_string().empty()) return false;
       out->model = v.as_string();
       return true;
     }},
    {"model_prefix", op_bit(Op::kReload) | op_bit(Op::kModelLoad),
     "'model_prefix' must be a non-empty string",
     [](const Json& v, Request* out) {
       if (!v.is_string() || v.as_string().empty()) return false;
       out->model_prefix = v.as_string();
       return true;
     }},
};

/// Required fields, checked after the per-field pass: (ops mask, request
/// member emptiness probe, field name for the error message).
struct RequiredSpec {
  std::uint32_t ops;
  bool (*missing)(const Request& req);
  const char* name;
};

const RequiredSpec kRequiredSpecs[] = {
    {kNetlistOps, [](const Request& r) { return r.netlist_text.empty(); },
     "netlist"},
    {op_bit(Op::kPredict), [](const Request& r) { return r.task.empty(); },
     "task"},
    {op_bit(Op::kModelLoad) | op_bit(Op::kModelUnload),
     [](const Request& r) { return r.model.empty(); }, "model"},
    {op_bit(Op::kModelLoad),
     [](const Request& r) { return r.model_prefix.empty(); }, "model_prefix"},
};

}  // namespace

Request parse_request(const std::string& line) {
  Request req;
  Json doc;
  std::string error;
  if (!Json::parse(line, &doc, &error)) {
    req.parse_error = ErrorCode::kBadJson;
    req.parse_message = "request line is not valid JSON: " + error;
    return req;
  }
  if (!doc.is_object()) {
    req.parse_error = ErrorCode::kBadJson;
    req.parse_message = "request must be a JSON object";
    return req;
  }
  if (const Json* id = doc.find("id")) {
    // Clients commonly send numeric ids; echo those back textually too.
    req.id = id->is_string() ? id->as_string() : id->dump();
  }
  const Json* op = doc.find("op");
  if (!op || !op->is_string()) {
    req.parse_error = ErrorCode::kBadRequest;
    req.parse_message = "missing string field 'op'";
    return req;
  }
  if (!op_from_name(op->as_string(), &req.op)) {
    req.op = Op::kInvalid;
    req.parse_error = ErrorCode::kBadRequest;
    req.parse_message = "unknown op '" + op->as_string() + "'";
    return req;
  }
  // Single table-driven pass over the request's fields. A field the table
  // does not know, or knows but not for this op, is a client error naming
  // the field — a typo like "khop" must not silently run with defaults (and
  // cache that result). A present-but-mistyped value likewise never
  // defaults: {"k_hop":"3"} is rejected, not run with k_hop=0.
  const std::uint32_t bit = op_bit(req.op);
  for (const auto& member : doc.members()) {
    if (member.first == "id" || member.first == "op") continue;
    const FieldSpec* spec = nullptr;
    for (const FieldSpec& candidate : kFieldSpecs) {
      if (member.first == candidate.name) {
        spec = &candidate;
        break;
      }
    }
    if (spec == nullptr) {
      req.parse_error = ErrorCode::kBadRequest;
      req.parse_message = "unknown field '" + member.first + "' for op '" +
                          op_name(req.op) + "'";
      return req;
    }
    if ((spec->ops & bit) == 0) {
      req.parse_error = ErrorCode::kBadRequest;
      req.parse_message = "field '" + member.first +
                          "' is not accepted by op '" + op_name(req.op) + "'";
      return req;
    }
    if (!spec->apply(member.second, &req)) {
      req.parse_error = ErrorCode::kBadRequest;
      req.parse_message = spec->type_msg;
      return req;
    }
  }
  for (const RequiredSpec& required : kRequiredSpecs) {
    if ((required.ops & bit) != 0 && required.missing(req)) {
      req.parse_error = ErrorCode::kBadRequest;
      req.parse_message = std::string("op '") + op_name(req.op) +
                          "' requires field '" + required.name + "'";
      return req;
    }
  }
  return req;
}

std::string render_response(const Response& response) {
  std::string out;
  out.reserve(64 + response.result_json.size());
  out += "{\"id\":\"";
  out += json_escape(response.id);
  out += "\",\"op\":\"";
  out += op_name(response.op);
  out += "\"";
  if (response.ok()) {
    out += ",\"status\":\"ok\",\"cached\":";
    out += response.cached ? "true" : "false";
    out += ",\"result\":";
    out += response.result_json.empty() ? "{}" : response.result_json;
  } else {
    out += ",\"status\":\"error\",\"error\":{\"code\":\"";
    out += error_code_name(response.error);
    out += "\",\"message\":\"";
    out += json_escape(response.error_message);
    out += "\"";
    if (!response.detail.empty()) {
      out += ",\"detail\":[";
      for (std::size_t i = 0; i < response.detail.size(); ++i) {
        if (i) out += ',';
        out += '"';
        out += json_escape(response.detail[i]);
        out += '"';
      }
      out += ']';
    }
    out += "}";
  }
  out += "}";
  return out;
}

std::string mat_to_json(const Mat& m) {
  std::string out;
  out.reserve(16 + m.v.size() * 12);
  out += "{\"rows\":";
  out += std::to_string(m.rows);
  out += ",\"cols\":";
  out += std::to_string(m.cols);
  out += ",\"data\":[";
  char buf[40];
  for (std::size_t i = 0; i < m.v.size(); ++i) {
    if (i) out += ',';
    std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(m.v[i]));
    out += buf;
  }
  out += "]}";
  return out;
}

bool mat_from_json(const Json& j, Mat* out) {
  const Json* rows = j.find("rows");
  const Json* cols = j.find("cols");
  const Json* data = j.find("data");
  if (!rows || !cols || !data || !rows->is_number() || !cols->is_number() ||
      !data->is_array()) {
    return false;
  }
  const long long rl = rows->as_int(-1);
  const long long cl = cols->as_int(-1);
  if (rl < 0 || cl < 0 || rl > std::numeric_limits<int>::max() ||
      cl > std::numeric_limits<int>::max()) {
    return false;
  }
  const int r = static_cast<int>(rl);
  const int c = static_cast<int>(cl);
  if (r < 0 || c < 0 ||
      data->items().size() != static_cast<std::size_t>(r) * static_cast<std::size_t>(c)) {
    return false;
  }
  *out = Mat(r, c);
  for (std::size_t i = 0; i < data->items().size(); ++i) {
    if (!data->items()[i].is_number()) return false;
    out->v[i] = static_cast<float>(data->items()[i].as_number());
  }
  return true;
}

}  // namespace nettag::serve
