#include "serve/server.hpp"

#include <chrono>
#include <utility>

#include "analysis/diagnostic.hpp"
#include "netlist/cone.hpp"
#include "nn/gemm.hpp"
#include "serve/canonical.hpp"
#include "util/checksum.hpp"
#include "util/timer.hpp"

namespace nettag::serve {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

Json replica_info_json(const ReplicaInfo& info) {
  Json j = Json::object();
  j.set("name", info.name);
  j.set("prefix", info.prefix);
  j.set("weights_crc32", crc32_hex(info.params_crc));
  j.set("reloads", static_cast<double>(info.reloads));
  j.set("requests", static_cast<double>(info.requests));
  j.set("cache_hits", static_cast<double>(info.cache_hits));
  j.set("cache_misses", static_cast<double>(info.cache_misses));
  return j;
}

/// The replica a request targets: absent "model" = the v1 default.
const std::string& replica_name(const Request& request) {
  static const std::string kDefault = kDefaultModelName;
  return request.model.empty() ? kDefault : request.model;
}

Response unknown_model_response(const Request& request) {
  Response response;
  response.id = request.id;
  response.op = request.op;
  response.error = ErrorCode::kUnknownModel;
  response.error_message =
      "no model loaded under '" + replica_name(request) + "'";
  return response;
}

Response internal_response(const Request& request, std::string message) {
  Response response;
  response.id = request.id;
  response.op = request.op;
  response.error = ErrorCode::kInternal;
  response.error_message = std::move(message);
  return response;
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      registry_(config_.text_cache_entries),
      admission_(AdmissionConfig{config_.max_gates, config_.reject_warnings},
                 &metrics_),
      cache_(config_.cache_entries) {}

Server::Server(ServerConfig config, std::unique_ptr<NetTag> model)
    : Server(std::move(config)) {
  registry_.add(kDefaultModelName, std::move(model), config_.model_prefix);
}

Server::~Server() = default;

std::shared_ptr<const NetTag> Server::model_snapshot(
    const std::string& name) const {
  ReplicaSnapshot snap;
  if (!registry_.snapshot(name, &snap)) return nullptr;
  return snap.model;
}

bool Server::load_model(const std::string& name, const std::string& prefix,
                        int, std::string* error) {
  return registry_.load(name, prefix, error);
}

void Server::register_task(const std::string& name, TaskFn fn) {
  std::lock_guard<std::mutex> lk(tasks_mu_);
  tasks_[name] = std::move(fn);
}

Response Server::submit(Request request) {
  if (request.t_start == std::chrono::steady_clock::time_point{}) {
    request.t_start = std::chrono::steady_clock::now();
  }
  return process_on(request, &cache_);
}

std::future<Response> Server::submit_line_async(const std::string& line) {
  std::promise<Response> done;
  done.set_value(submit(parse_request(line)));
  return done.get_future();
}

std::string Server::handle_line(const std::string& line) {
  return render_response(submit(parse_request(line)));
}

bool Server::shutdown_requested() const {
  return shutdown_.load(std::memory_order_relaxed);
}

void Server::set_stats_extension(StatsExtension fn) {
  std::lock_guard<std::mutex> lk(stats_ext_mu_);
  stats_ext_ = std::move(fn);
}

std::string Server::stats_json() const {
  Json j = snapshot_to_json(metrics_.snapshot());
  j.set("result_cache", result_cache_json(cache_.stats()));
  j.set("reloads", static_cast<double>(registry_.total_reloads()));
  // The v1 top-level fields reflect the "default" replica (byte-compatible
  // with the single-model server); the "models" array covers every replica.
  ReplicaSnapshot def;
  if (registry_.snapshot(kDefaultModelName, &def)) {
    j.set("weights_crc32", crc32_hex(def.params_crc));
  }
  j.set("simd", simd_backend_name());
  const std::shared_ptr<TextEmbeddingCache> tc_ptr = registry_.text_cache();
  if (tc_ptr) {
    const TextEmbeddingCache& tc = *tc_ptr;
    Json text = Json::object();
    text.set("entries", static_cast<double>(tc.size()));
    text.set("capacity", static_cast<double>(tc.capacity()));
    text.set("hits", static_cast<double>(tc.hits()));
    text.set("misses", static_cast<double>(tc.misses()));
    text.set("evictions", static_cast<double>(tc.evictions()));
    const double total = static_cast<double>(tc.hits() + tc.misses());
    text.set("hit_rate",
             total > 0 ? static_cast<double>(tc.hits()) / total : 0.0);
    j.set("text_cache", std::move(text));
  }
  Json models = Json::array();
  for (const ReplicaInfo& info : registry_.list()) {
    models.push_back(replica_info_json(info));
  }
  j.set("models", std::move(models));
  // Effective request defaults, so clients can see what an absent field
  // resolves to without reading the server's flags.
  Json defaults = Json::object();
  defaults.set("max_gates", static_cast<double>(config_.max_gates));
  defaults.set("max_cone_gates", static_cast<double>(kMaxConeGates));
  defaults.set("reject_warnings", config_.reject_warnings);
  j.set("defaults", std::move(defaults));
  {
    std::lock_guard<std::mutex> lk(stats_ext_mu_);
    if (stats_ext_) stats_ext_(&j);
  }
  return j.dump();
}

Response Server::process_on(const Request& request, ResultCache* cache) {
  // One poisoned input or a throwing task head answers `internal`; it never
  // unwinds into a caller — least of all a daemon worker.
  Response response;
  try {
    response = dispatch(request, cache ? cache : &cache_);
  } catch (const std::exception& e) {
    response = internal_response(request, e.what());
  } catch (...) {
    response = internal_response(request, "unknown exception");
  }
  metrics_.record_request(response.ok(), seconds_since(request.t_start));
  return response;
}

Response Server::dispatch(const Request& request, ResultCache* cache) {
  Response response;
  response.id = request.id;
  response.op = request.op;
  // A request-level parse/validation error short-circuits everything, even
  // when the op itself was recognized (e.g. a mistyped or out-of-range
  // field on an embed request must never reach the cache or the model).
  if (request.parse_error != ErrorCode::kNone) {
    response.error = request.parse_error;
    response.error_message = request.parse_message;
    return response;
  }
  switch (request.op) {
    case Op::kInvalid:
      response.error = ErrorCode::kBadRequest;
      response.error_message = request.parse_message;
      break;
    case Op::kPing:
      response.result_json = "{\"pong\":true}";
      break;
    case Op::kStats:
      response.result_json = stats_json();
      break;
    case Op::kShutdown:
      shutdown_.store(true, std::memory_order_relaxed);
      response.result_json = "{\"shutting_down\":true}";
      break;
    case Op::kReload:
      response = process_reload(request);
      break;
    case Op::kModelLoad:
    case Op::kModelUnload:
    case Op::kModelList:
      response = process_model_admin(request);
      break;
    default: {
      // Pin this request to one replica generation: a concurrent reload or
      // unload swaps the registry's state but never the model in-flight
      // work computes with. Resolution happens here — at processing time —
      // so a model_unload ahead of queued requests drains them with
      // unknown_model instead of crashing into a dangling replica.
      ReplicaSnapshot replica;
      if (!registry_.snapshot(replica_name(request), &replica)) {
        response = unknown_model_response(request);
        break;
      }
      response = process_netlist_op(request, replica, cache);
      break;
    }
  }
  return response;
}

Response Server::process_reload(const Request& request) {
  Response response;
  response.id = request.id;
  response.op = request.op;
  const ReloadOutcome outcome =
      registry_.reload(replica_name(request), request.model_prefix);
  if (!outcome.ok) {
    response.error = outcome.error;
    response.error_message = outcome.message;
    return response;
  }
  response.result_json =
      "{\"reloaded\":true,\"prefix\":\"" + json_escape(outcome.prefix) +
      "\",\"params_changed\":" + (outcome.params_changed ? "true" : "false") +
      ",\"weights_crc32\":\"" + crc32_hex(outcome.params_crc) + "\"}";
  return response;
}

Response Server::process_model_admin(const Request& request) {
  Response response;
  response.id = request.id;
  response.op = request.op;
  switch (request.op) {
    case Op::kModelLoad: {
      const bool replaced = registry_.has(request.model);
      std::string error;
      if (!registry_.load(request.model, request.model_prefix, &error)) {
        response.error = ErrorCode::kReloadFailed;
        response.error_message = error;
        return response;
      }
      ReplicaSnapshot snap;
      registry_.snapshot(request.model, &snap);
      response.result_json =
          "{\"loaded\":true,\"model\":\"" + json_escape(request.model) +
          "\",\"prefix\":\"" + json_escape(request.model_prefix) +
          "\",\"weights_crc32\":\"" + crc32_hex(snap.params_crc) +
          "\",\"replaced\":" + (replaced ? "true" : "false") + "}";
      return response;
    }
    case Op::kModelUnload: {
      if (!registry_.unload(request.model)) {
        return unknown_model_response(request);
      }
      response.result_json = "{\"unloaded\":true,\"model\":\"" +
                             json_escape(request.model) + "\"}";
      return response;
    }
    case Op::kModelList:
    default: {
      std::string out = "{\"models\":[";
      bool first = true;
      for (const ReplicaInfo& info : registry_.list()) {
        if (!first) out += ',';
        first = false;
        out += replica_info_json(info).dump();
      }
      out += "]}";
      response.result_json = std::move(out);
      return response;
    }
  }
}

Response Server::process_netlist_op(const Request& request,
                                    const ReplicaSnapshot& replica,
                                    ResultCache* cache) {
  Response response;
  response.id = request.id;
  response.op = request.op;
  const NetTag& model = *replica.model;
  replica.counters->requests.fetch_add(1, std::memory_order_relaxed);

  // Stages 1+2: parse, size bound, lint gate (serve/admission.hpp).
  Netlist local_nl;
  const Netlist* nl_ptr = admission_.admit(request, &local_nl, &response);
  if (nl_ptr == nullptr) return response;
  const Netlist& nl = *nl_ptr;

  // Predict needs a registered head; resolve before touching the cache so an
  // unknown task never occupies an entry.
  TaskFn task_fn;
  if (request.op == Op::kPredict) {
    std::lock_guard<std::mutex> lk(tasks_mu_);
    auto it = tasks_.find(request.task);
    if (it == tasks_.end()) {
      response.error = ErrorCode::kUnknownTask;
      response.error_message = "no task head registered under '" +
                               request.task + "'";
      return response;
    }
    task_fn = it->second;
  }

  // An absent max_cone_gates resolves to the default here — before the
  // cache key and the model call — so explicit-120 and absent requests
  // share one entry.
  const std::size_t max_cone_gates = request.max_cone_gates != 0
                                         ? request.max_cone_gates
                                         : kMaxConeGates;

  // Stage 3: content-addressed cache. embed_gates returns one row per gate
  // in declaration order, so its key and fingerprint are declaration-order
  // sensitive — a reordered isomorphic netlist recomputes instead of
  // receiving rows assigned to the wrong gates. The pinned replica's name
  // and weights CRC join the key (ReplicaSnapshot::cache_tag): a hot reload
  // with new weights strands the old entries instead of replaying them, a
  // reload of identical weights keeps every entry live, and no replica can
  // answer for another.
  CacheKey key =
      cache_key(nl, op_name(request.op), request.k_hop, max_cone_gates,
                request.task,
                /*per_node_output=*/request.op == Op::kEmbedGates);
  key.key += replica.cache_tag();
  std::string payload;
  if (cache->lookup(key.key, key.fingerprint, &payload)) {
    replica.counters->cache_hits.fetch_add(1, std::memory_order_relaxed);
    response.result_json = std::move(payload);
    response.cached = true;
    return response;
  }
  replica.counters->cache_misses.fetch_add(1, std::memory_order_relaxed);

  // Stage 4: model work, with per-stage timing fed back into metrics.
  EmbedTiming timing;
  switch (request.op) {
    case Op::kEmbedGates: {
      const NetTag::ConeEmbedding emb = model.embed(nl, request.k_hop, &timing);
      payload = "{\"dim\":" + std::to_string(model.embedding_dim()) +
                ",\"nodes\":" + mat_to_json(emb.nodes) +
                ",\"cls\":" + mat_to_json(emb.cls) + "}";
      break;
    }
    case Op::kEmbedCone: {
      const NetTag::ConeEmbedding emb = model.embed(nl, request.k_hop, &timing);
      payload = "{\"dim\":" + std::to_string(model.embedding_dim()) +
                ",\"cls\":" + mat_to_json(emb.cls) + "}";
      break;
    }
    case Op::kEmbedCircuit: {
      const Mat circuit = model.embed_circuit(nl, max_cone_gates, &timing);
      payload = "{\"dim\":" + std::to_string(model.embedding_dim()) +
                ",\"registers\":" + std::to_string(nl.registers().size()) +
                ",\"circuit\":" + mat_to_json(circuit) + "}";
      break;
    }
    case Op::kPredict: {
      Timer task_timer;
      const std::vector<double> scores = task_fn(model, nl);
      // Head time is dominated by the embed inside task_fn; attribute it to
      // the TAGFormer stage (the head itself is a few matmuls).
      timing.tagformer.fetch_add(task_timer.seconds());
      payload = "{\"task\":\"" + json_escape(request.task) + "\",\"scores\":[";
      for (std::size_t i = 0; i < scores.size(); ++i) {
        if (i) payload += ',';
        payload += json_number(scores[i]);
      }
      payload += "]}";
      break;
    }
    default:
      return internal_response(request, "unhandled op in process_netlist_op");
  }
  metrics_.record_stage(Stage::kTagBuild,
                        timing.tag_build.load(std::memory_order_relaxed));
  metrics_.record_stage(Stage::kTextEncode,
                        timing.text_encode.load(std::memory_order_relaxed));
  metrics_.record_stage(Stage::kTagFormer,
                        timing.tagformer.load(std::memory_order_relaxed));

  cache->insert(key.key, key.fingerprint, payload);
  response.result_json = std::move(payload);
  response.cached = false;
  return response;
}

}  // namespace nettag::serve
