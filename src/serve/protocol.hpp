// NetTAG-Serve wire protocol v2: newline-delimited JSON requests/responses
// (docs/ARCHITECTURE.md §7.1 gives the grammar, §12 the replica registry).
//
// Request line:
//   {"id":"r1","op":"embed_gates","netlist":"module m ...\n...endmodule\n",
//    "k_hop":2,"max_cone_gates":120,"model":"default","task":"task2"}
//
//   op ∈ ping | stats | shutdown | reload | model_load | model_unload
//        | model_list | embed_gates | embed_cone | embed_circuit | predict.
//
//   Fields (all optional unless an op requires them; every field is typed
//   and op-scoped by the kFieldSpecs table in protocol.cpp, and an unknown
//   field on a known op is rejected as bad_request naming the field):
//     id             any op        echoed back verbatim
//     netlist        netlist ops*  netlist/io.hpp structural format in one
//                                  JSON string (required)
//     k_hop          netlist ops   expression depth, integer in [0,16]
//                                  (0 = model default)
//     max_cone_gates netlist ops   embed_circuit cone cap, integer >= 1
//                                  (absent = server default, see `stats`
//                                  "defaults" and ServerConfig)
//     task           predict       registered head name (required)
//     model          netlist ops, reload, model_load, model_unload —
//                                  target replica name; absent = "default".
//                                  Unknown names answer `unknown_model`.
//     model_prefix   reload, model_load — checkpoint prefix (required for
//                                  model_load; reload falls back to the
//                                  replica's own startup/load prefix)
//   (*netlist ops = embed_gates | embed_cone | embed_circuit | predict)
//
//   Admin ops: `model_load` registers/replaces a named replica from a
//   checkpoint prefix, `model_unload` removes one (in-flight and queued
//   requests for it answer `unknown_model`), `model_list` reports every
//   replica. `reload` hot-swaps one replica (absent `model` = "default") —
//   a v1 line without `model` behaves exactly as the v1 single-model server.
//
// Response line (ok):
//   {"id":"r1","op":"embed_gates","status":"ok","cached":false,"result":{...}}
// Response line (error):
//   {"id":"r1","op":"embed_gates","status":"error",
//    "error":{"code":"lint_rejected","message":"...","detail":[...]}}
//
// Embedding results are *name-free* (matrices only): the result cache is
// content-addressed over the canonical structural hash, so an isomorphic
// resubmission under different instance names replays the identical bytes.
// Each replica's cache keys carry its name and weights CRC, so replicas
// never replay each other's results.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.hpp"
#include "serve/json.hpp"

namespace nettag {
class Netlist;
}

namespace nettag::serve {

enum class Op {
  kInvalid,  ///< unparseable line or unknown op; carries the parse error
  kPing,
  kStats,
  kShutdown,
  kReload,       ///< hot-swap one replica from a checkpoint prefix, no downtime
  kModelLoad,    ///< register (or replace) a named replica from a checkpoint
  kModelUnload,  ///< remove a named replica; its requests answer unknown_model
  kModelList,    ///< list the registered replicas
  kEmbedGates,
  kEmbedCone,
  kEmbedCircuit,
  kPredict,
};

const char* op_name(Op op);

/// True for the ops that carry a netlist and run model work (embed_gates /
/// embed_cone / embed_circuit / predict). These are the sheddable ops: the
/// daemon may answer them `too_busy` when its request queue is full
/// (src/net/shard.cpp).
bool is_netlist_op(Op op);

/// Structured error taxonomy (docs/ARCHITECTURE.md §7.3). Every failure is a
/// per-request status — the daemon itself never exits nonzero on bad input.
enum class ErrorCode {
  kNone,
  kBadJson,       ///< line is not a JSON object
  kBadRequest,    ///< JSON fine; missing/unknown op or missing fields
  kParseError,    ///< netlist text failed to parse (unknown cells included)
  kTooLarge,      ///< netlist exceeds the admission gate size bound
  kLintRejected,  ///< src/analysis admission gate found errors
  kUnknownTask,   ///< predict against an unregistered task head
  kUnknownModel,  ///< request named a replica the registry does not hold
  kReloadFailed,  ///< reload/model_load checkpoint missing/corrupt; no swap
  kTooBusy,       ///< request queue full — load shed, retry later (src/net)
  kInternal,      ///< unexpected exception (bug) — reported, not fatal
};

const char* error_code_name(ErrorCode code);

/// The replica every v1 request (no "model" field) targets.
inline constexpr const char* kDefaultModelName = "default";

struct Request {
  std::string id;
  Op op = Op::kInvalid;
  std::string netlist_text;        ///< netlist/io.hpp structural format
  int k_hop = 0;                   ///< 0 = model default
  std::size_t max_cone_gates = 0;  ///< embed_circuit cone cap; 0 = the
                                   ///< default, kMaxConeGates (netlist/cone)
  std::string task;                ///< predict: registered head name
  std::string model;               ///< target replica; "" = kDefaultModelName
  std::string model_prefix;        ///< reload/model_load: checkpoint prefix
  /// Filled by parse_request when the line itself is bad; process() echoes
  /// these back instead of doing work.
  ErrorCode parse_error = ErrorCode::kNone;
  std::string parse_message;
  /// Stamped at submission; request latency = completion - t_start.
  std::chrono::steady_clock::time_point t_start{};
  /// Never on the wire: an already-parsed netlist that admission uses
  /// instead of parsing netlist_text. Every shipped path leaves it null;
  /// benchmark/src/replay.cpp, which times the parse as its own span, is its
  /// only remaining user.
  std::shared_ptr<const Netlist> pre_parsed;
};

struct Response {
  std::string id;
  Op op = Op::kInvalid;
  ErrorCode error = ErrorCode::kNone;
  std::string error_message;
  std::vector<std::string> detail;  ///< e.g. lint diagnostics, one per line
  /// Rendered result object ("{"..."}") for ok responses; exactly these
  /// bytes are stored in / replayed from the result cache.
  std::string result_json;
  bool cached = false;

  bool ok() const { return error == ErrorCode::kNone; }
};

/// Parses one NDJSON line. Never fails hard: malformed lines come back with
/// op == kInvalid and parse_error/parse_message set, so the one request path
/// (Server::process_on) also carries the error responses.
Request parse_request(const std::string& line);

/// Renders one response line (no trailing newline).
std::string render_response(const Response& response);

/// Renders a matrix as {"rows":R,"cols":C,"data":[...]} with float-exact
/// numbers (%.9g round-trips every float).
std::string mat_to_json(const Mat& m);

/// Parses mat_to_json output back into a Mat (testing / client side).
/// Returns false on shape/data mismatch.
bool mat_from_json(const Json& j, Mat* out);

}  // namespace nettag::serve
