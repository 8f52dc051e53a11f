// Model replica registry for NetTAG-Serve (docs/ARCHITECTURE.md §12).
//
// One serving process hosts N named NetTag replicas, each loaded from its
// own checkpoint prefix, each hot-reloadable independently. Per replica the
// registry tracks the checkpoint prefix (the default `reload` target), the
// params CRC (namespacing its result-cache keys) and per-replica counters.
// All replicas share:
//   * one text-embedding cache — created by the registry when the first
//     replica is added and attached to every load and reload, with each
//     replica's keys salted by its weights CRC so replicas of the same
//     checkpoint share entries while different weights can never replay
//     each other's rows;
//   * the process thread pool and the per-shape-signature memory plans
//     (plans depend on tensor shapes only, never on weights, so replicas
//     with equal architecture reuse them safely).
//
// Requests pin a ReplicaSnapshot: reload/unload swap the registry's state
// but never the model an in-flight request computes with, so reloading or
// unloading replica A cannot stall or corrupt replica B's traffic (or even
// A's own in-flight work).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/nettag.hpp"
#include "serve/protocol.hpp"

namespace nettag::serve {

/// Per-replica monotonic counters, shared between the registry entry and the
/// snapshots pinned by in-flight requests (so a request finishing after its
/// replica was replaced still counts against the name it served under).
struct ReplicaCounters {
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> cache_misses{0};
  std::atomic<std::uint64_t> reloads{0};
};

/// What one request computes with: an owning handle on the model plus the
/// key-namespace facts. Valid for as long as the caller holds it, across any
/// number of reloads/unloads.
struct ReplicaSnapshot {
  std::string name;
  std::shared_ptr<const NetTag> model;
  std::uint32_t params_crc = 0;
  std::shared_ptr<ReplicaCounters> counters;

  /// Result-cache key namespace: replica name + weights CRC. Two replicas
  /// (or two weight generations of one replica) never share keys.
  std::string cache_tag() const;
};

/// Point-in-time registry row for `stats` / `model_list`.
struct ReplicaInfo {
  std::string name;
  std::string prefix;
  std::uint32_t params_crc = 0;
  std::uint64_t reloads = 0;
  std::uint64_t requests = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

/// Result of a per-replica hot reload.
struct ReloadOutcome {
  bool ok = false;
  ErrorCode error = ErrorCode::kNone;  ///< kUnknownModel / kBadRequest /
                                       ///< kReloadFailed when !ok
  std::string message;
  std::string prefix;          ///< the prefix actually (re)loaded
  bool params_changed = false;
  std::uint32_t params_crc = 0;
};

class ModelRegistry {
 public:
  /// `text_cache_entries` is the capacity of the shared text-embedding
  /// cache, created when the first replica is added.
  explicit ModelRegistry(std::size_t text_cache_entries);
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Registers an already-constructed model under `name`, replacing any
  /// existing replica of that name, and attaches it to the shared
  /// text-embedding cache (creating that cache on the first call).
  /// `prefix` becomes the replica's default reload target ("" = reload must
  /// carry model_prefix).
  void add(const std::string& name, std::unique_ptr<NetTag> model,
           const std::string& prefix);

  /// `model_load`: loads `prefix` and registers it under `name` (replacing
  /// an existing replica). On failure returns false with *error set and the
  /// registry unchanged. The checkpoint load runs outside the registry
  /// mutex — concurrent requests keep serving.
  bool load(const std::string& name, const std::string& prefix,
            std::string* error);

  /// `model_unload`: removes `name`. False if not present. In-flight work
  /// pinned to the replica finishes normally; later requests for the name
  /// answer unknown_model.
  bool unload(const std::string& name);

  /// `reload`: hot-swaps `name` from `prefix_override` (empty = the
  /// replica's stored prefix). One reload per replica at a time; reloads of
  /// different replicas proceed concurrently. The checkpoint load runs
  /// outside the registry mutex; only the pointer swap synchronizes with
  /// snapshot(). A replica unloaded mid-reload stays unloaded (the fresh
  /// model is dropped, outcome kUnknownModel).
  ReloadOutcome reload(const std::string& name,
                       const std::string& prefix_override);

  /// Pins `name` for one request. False (out untouched) if not registered.
  bool snapshot(const std::string& name, ReplicaSnapshot* out) const;

  bool has(const std::string& name) const;
  std::size_t size() const;
  /// Rows sorted by name (std::map order) — stable for stats/model_list.
  std::vector<ReplicaInfo> list() const;

  /// Successful reloads across all replicas since startup.
  std::uint64_t total_reloads() const {
    return total_reloads_.load(std::memory_order_relaxed);
  }

  /// The shared text cache (null until the first add()).
  std::shared_ptr<TextEmbeddingCache> text_cache() const;

 private:
  struct Replica {
    std::string name;
    std::string prefix;
    std::shared_ptr<NetTag> model;
    std::uint32_t params_crc = 0;
    std::shared_ptr<ReplicaCounters> counters =
        std::make_shared<ReplicaCounters>();
    /// Serializes whole reload operations for this replica only.
    std::mutex reload_mu;
  };

  /// Fingerprints and attaches the shared cache (salted by CRC). Returns the
  /// CRC. Must run before the model is published to snapshots.
  std::uint32_t prepare(NetTag& model) const;

  std::shared_ptr<Replica> find(const std::string& name) const;

  const std::size_t text_cache_entries_;
  mutable std::mutex mu_;  ///< guards replicas_ and text_cache_ pointers
  std::map<std::string, std::shared_ptr<Replica>> replicas_;
  std::shared_ptr<TextEmbeddingCache> text_cache_;
  std::atomic<std::uint64_t> total_reloads_{0};
};

}  // namespace nettag::serve
