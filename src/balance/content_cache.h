// cellbalance: content-addressed LRU cache with a byte budget.
//
// Maps an image-bytes digest (balance::content_digest over the ENCODED
// carrier) to the full analysis value the cold path produced, so
// repeated and duplicated uploads skip decode + extraction + detection
// entirely. The template keeps the cache below the engine in the
// dependency order: the engine instantiates it with its own result type
// and charges the simulated costs at its call sites.
//
// Eviction is strict LRU under a byte budget: inserting past the budget
// evicts least-recently-used entries first; a value larger than the whole
// budget is not cached at all. A budget of 0 disables the cache (every
// lookup misses, nothing is stored) so legacy paths stay untouched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

namespace cellport::balance {

template <typename V>
class ContentCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  explicit ContentCache(std::size_t byte_budget) : budget_(byte_budget) {}

  bool enabled() const { return budget_ > 0; }
  std::size_t budget() const { return budget_; }
  std::size_t bytes() const { return bytes_; }
  std::size_t entries() const { return lru_.size(); }
  const Stats& stats() const { return stats_; }

  /// The cached value for `key`, freshened to most-recently-used, or null
  /// on a miss. The pointer stays valid until the next insert.
  const V* find(std::uint64_t key) {
    if (!enabled()) {
      ++stats_.misses;
      return nullptr;
    }
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.hits;
    return &it->second->value;
  }

  /// Stores `value` under `key`, charging `cost` bytes against the
  /// budget and evicting LRU entries to make room. A re-insert under an
  /// existing key replaces the entry. Values over the whole budget are
  /// dropped (never worth evicting everything else for).
  void insert(std::uint64_t key, V value, std::size_t cost) {
    if (!enabled() || cost > budget_) return;
    auto it = index_.find(key);
    if (it != index_.end()) {
      bytes_ -= it->second->cost;
      lru_.erase(it->second);
      index_.erase(it);
    }
    while (bytes_ + cost > budget_ && !lru_.empty()) {
      index_.erase(lru_.back().key);
      bytes_ -= lru_.back().cost;
      lru_.pop_back();
      ++stats_.evictions;
    }
    lru_.push_front(Entry{key, std::move(value), cost});
    index_[key] = lru_.begin();
    bytes_ += cost;
  }

 private:
  struct Entry {
    std::uint64_t key;
    V value;
    std::size_t cost;
  };

  std::size_t budget_;
  std::size_t bytes_ = 0;
  Stats stats_;
  std::list<Entry> lru_;
  std::unordered_map<std::uint64_t, typename std::list<Entry>::iterator>
      index_;
};

}  // namespace cellport::balance
