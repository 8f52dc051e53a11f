// Bounded least-recently-used map.
//
// Shared by the frozen-text-embedding cache (model/text_encoder) and the
// serving result cache (serve/cache): both face unbounded key spaces under
// sustained traffic and need O(1) lookup/insert with eviction of the coldest
// entry. Not thread-safe by itself — wrappers add their own mutex so the
// locking granularity stays with the owning cache.
#pragma once

#include <cstddef>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

namespace nettag {

template <typename K, typename V, typename Hash = std::hash<K>>
class LruMap {
 public:
  explicit LruMap(std::size_t capacity) : capacity_(capacity ? capacity : 1) {}

  /// Pointer to the value (entry becomes most-recent), nullptr on miss.
  /// The pointer is invalidated by the next put()/clear().
  V* get(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  /// Inserts or overwrites (entry becomes most-recent), then evicts
  /// least-recent entries beyond capacity. Returns the number evicted.
  std::size_t put(K key, V value) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return 0;
    }
    order_.emplace_front(std::move(key), std::move(value));
    index_.emplace(order_.front().first, order_.begin());
    std::size_t evicted = 0;
    while (order_.size() > capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
      ++evicted;
    }
    return evicted;
  }

  void clear() {
    order_.clear();
    index_.clear();
  }

  std::size_t size() const { return order_.size(); }
  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  /// Front = most recently used; pairs own the keys the index points at.
  std::list<std::pair<K, V>> order_;
  std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator, Hash>
      index_;
};

}  // namespace nettag
