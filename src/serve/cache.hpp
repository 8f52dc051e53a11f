// Bounded content-addressed result cache for the serving layer.
//
// Keys are canonical-hash cache keys (serve/canonical.hpp); values are the
// *rendered result bytes* of the original miss, so a hit replays a
// byte-identical response (serving determinism contract) with zero model
// work. Because the key is a lossy WL hash, every entry also stores the
// exact canonical fingerprint of the netlist that produced it; a key hit
// whose fingerprint differs is a hash collision and is served as a miss
// (counted separately) rather than replaying the wrong circuit's result.
// LRU-bounded: embeddings for circuits nobody resubmits age out under
// sustained traffic instead of growing the daemon without limit.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "serve/json.hpp"
#include "util/lru.hpp"

namespace nettag::serve {

class ResultCache {
 public:
  struct Stats {
    std::size_t entries = 0;
    std::size_t capacity = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t collisions = 0;  ///< key hits rejected by fingerprint
    double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0.0;
    }
  };

  explicit ResultCache(std::size_t max_entries) : map_(max_entries) {}

  /// Copies the cached payload into *payload and promotes the entry — but
  /// only when the stored fingerprint matches exactly; a mismatched key hit
  /// is a WL collision and counts as a miss (plus the collision counter).
  bool lookup(const std::string& key, const std::string& fingerprint,
              std::string* payload) {
    std::lock_guard<std::mutex> lk(mu_);
    if (const Entry* hit = map_.get(key)) {
      if (hit->fingerprint == fingerprint) {
        ++hits_;
        *payload = hit->payload;
        return true;
      }
      ++collisions_;
    }
    ++misses_;
    return false;
  }

  void insert(const std::string& key, std::string fingerprint,
              std::string payload) {
    std::lock_guard<std::mutex> lk(mu_);
    evictions_ += map_.put(key, Entry{std::move(fingerprint),
                                      std::move(payload)});
  }

  void clear() {
    std::lock_guard<std::mutex> lk(mu_);
    map_.clear();
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lk(mu_);
    return Stats{map_.size(), map_.capacity(), hits_,
                 misses_,     evictions_,      collisions_};
  }

 private:
  struct Entry {
    std::string fingerprint;
    std::string payload;
  };

  mutable std::mutex mu_;
  LruMap<std::string, Entry> map_;
  std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0, collisions_ = 0;
};

/// The `result_cache` object of a `stats` response.
inline Json result_cache_json(const ResultCache::Stats& s) {
  Json j = Json::object();
  j.set("entries", static_cast<double>(s.entries));
  j.set("capacity", static_cast<double>(s.capacity));
  j.set("hits", static_cast<double>(s.hits));
  j.set("misses", static_cast<double>(s.misses));
  j.set("evictions", static_cast<double>(s.evictions));
  j.set("collisions", static_cast<double>(s.collisions));
  j.set("hit_rate", s.hit_rate());
  return j;
}

}  // namespace nettag::serve
