// NetTAG-Serve: the inference server (docs/ARCHITECTURE.md §7, §12).
//
// Dispatches requests over a registry of named NetTag replicas through three
// coordinated pieces:
//   * registry  — N independently hot-reloadable models behind one process
//     (serve/registry.hpp); every request pins a replica snapshot, so
//     reload/unload of one replica never stalls another's traffic;
//   * admission — parse + size bound + src/analysis lint gate
//     (serve/admission.hpp); rejected inputs become structured error
//     responses, never crashes;
//   * caching   — a bounded content-addressed result cache keyed by the
//     canonical structural hash (serve/canonical.hpp) namespaced per
//     replica+weights, so isomorphic resubmissions replay
//     byte-identical results without model work and replicas never replay
//     each other's entries.
//
// Every request runs through process_on, synchronously on the calling
// thread, against the server's one result cache: the in-process C++ client
// API, the NDJSON stdin/stdout loop of tools/nettag_serve (submit /
// handle_line) and the socket daemon's workers (src/net, through submit).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/nettag.hpp"
#include "serve/admission.hpp"
#include "serve/cache.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"

namespace nettag::serve {

struct ServerConfig {
  /// Admission bound: netlists above this many gates get kTooLarge.
  std::size_t max_gates = 20000;
  /// Result cache bound (entries; each entry is one rendered result).
  std::size_t cache_entries = 256;
  /// Strict admission: reject on lint *warnings* too (errors always reject).
  bool reject_warnings = false;
  /// Capacity, in entries, of the one frozen-text-embedding cache. The
  /// registry creates it when the first replica loads; every replica,
  /// reload and model_load shares it (serve/registry.hpp).
  std::size_t text_cache_entries = TextEmbeddingCache::kDefaultEntries;
  /// Ignored. Kept only because benchmark/src/replay.cpp still sets it;
  /// delete it when the next change to benchmark/ drops that line.
  std::size_t text_cache_partitions = 0;
  /// Default checkpoint prefix for `reload` requests that carry no
  /// `model_prefix` of their own (typically the prefix the server was
  /// started from); it becomes the "default" replica's stored prefix.
  /// Empty: such requests are rejected.
  std::string model_prefix;
};

class Server {
 public:
  /// Starts with an empty registry — replicas arrive via load_model /
  /// `model_load` (tools/nettag_serve builds its servers this way, one
  /// load_model per --model flag). Netlist requests before the first load
  /// answer unknown_model; control ops work immediately.
  explicit Server(ServerConfig config);
  /// Takes ownership of a constructed (typically checkpoint-loaded) model,
  /// registered as the "default" replica (the one every v1 request targets)
  /// with config.model_prefix as its reload target.
  Server(ServerConfig config, std::unique_ptr<NetTag> model);
  ~Server();

  /// Owning snapshot of one replica's current model (null: no replica under
  /// that name). Safe to hold across reloads/unloads — the snapshot keeps
  /// serving the generation it pinned; drop it to release the weights.
  std::shared_ptr<const NetTag> model_snapshot(
      const std::string& name = kDefaultModelName) const;

  /// Registers (or replaces) a named replica from a checkpoint prefix — the
  /// startup-time twin of the `model_load` op (tools/nettag_serve wires
  /// repeated --model flags through this). False with *error set on a bad
  /// checkpoint. The unnamed int is ignored: it stays only because
  /// benchmark/src/replay.cpp still passes -1 there.
  bool load_model(const std::string& name, const std::string& prefix, int,
                  std::string* error);

  const ModelRegistry& registry() const { return registry_; }
  const ServerConfig& config() const { return config_; }
  /// Number of successful `reload` ops since startup (all replicas).
  std::uint64_t reloads() const { return registry_.total_reloads(); }

  /// Fine-tuned task head hook: `fn` maps (shared model, admitted netlist)
  /// to a score vector. Registered heads answer `predict` requests; results
  /// are cached under the task name. `fn` must be thread-safe (heads only
  /// read their trained weights). No shipped tool registers a head; the
  /// tests do.
  using TaskFn =
      std::function<std::vector<double>(const NetTag&, const Netlist&)>;
  void register_task(const std::string& name, TaskFn fn);

  // --- in-process client API ----------------------------------------------
  /// process_on against the server's own result cache, stamping t_start
  /// when the caller left it unset. The socket daemon's workers call this
  /// too.
  Response submit(Request request);

  // --- wire API (NDJSON lines) --------------------------------------------
  /// Parses one request line and processes it; malformed lines resolve to
  /// structured error responses through the same path. The returned future
  /// is already satisfied.
  std::future<Response> submit_line_async(const std::string& line);
  /// Convenience: parse, process, render one line.
  std::string handle_line(const std::string& line);

  /// The one request path: runs `request` to completion on the calling
  /// thread against `cache` (null = the server's own cache). Every shipped
  /// caller goes through submit; benchmark/src/replay.cpp is the only caller
  /// that passes a cache of its own, and the argument stays only for it.
  /// Thread-safe; any number of threads may call concurrently (the model's
  /// inference API is const, the metrics and caches are internally
  /// synchronized). An exception from any stage becomes an `internal` error
  /// response.
  Response process_on(const Request& request, ResultCache* cache);

  /// Appends daemon-owned sections (transport/queue counters) to the JSON a
  /// `stats` request returns. Set once, before traffic (src/net wires this
  /// at daemon start); the hook runs under the same snapshot as the rest of
  /// the stats object and must be thread-safe.
  using StatsExtension = std::function<void(Json*)>;
  void set_stats_extension(StatsExtension fn);

  /// The `stats` result object as a string (also the final-metrics line the
  /// daemon emits on drain).
  std::string stats_json() const;

  /// Set once a shutdown request is processed; the stdio loop exits cleanly.
  bool shutdown_requested() const;

  ServeMetrics& metrics() { return metrics_; }
  ResultCache& cache() { return cache_; }

 private:
  /// Replica resolution, admission, cache and model work for one request;
  /// process_on wraps it with the exception guard and the request metrics.
  Response dispatch(const Request& request, ResultCache* cache);
  /// The model-work stage against an explicit replica snapshot — the
  /// snapshot's name and weights CRC namespace the cache keys, so entries
  /// computed by one replica (or one weight generation) can never answer
  /// for another; a reload that lands the *same* weights keeps every entry
  /// valid, while new weights strand the old ones (they age out via LRU).
  Response process_netlist_op(const Request& request,
                              const ReplicaSnapshot& replica,
                              ResultCache* cache);
  Response process_reload(const Request& request);
  Response process_model_admin(const Request& request);

  ServerConfig config_;
  ModelRegistry registry_;
  ServeMetrics metrics_;
  Admission admission_;
  ResultCache cache_;

  mutable std::mutex tasks_mu_;
  std::map<std::string, TaskFn> tasks_;

  mutable std::mutex stats_ext_mu_;
  StatsExtension stats_ext_;

  std::atomic<bool> shutdown_{false};
};

}  // namespace nettag::serve
