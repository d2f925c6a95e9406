#include "sse/core/search_cache.h"

#include <iterator>
#include <utility>

namespace sse::core {

namespace {

std::string_view View(BytesView bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

}  // namespace

SearchCache::SearchCache(size_t max_entries, const std::string& metric_prefix,
                         const std::string& what)
    : max_entries_(max_entries),
      evictions_counter_(obs::MetricsRegistry::Global().GetCounter(
          metric_prefix + "_evictions_total",
          what + " entries dropped by the LRU bound")),
      registration_(obs::MetricsRegistry::Global().RegisterGauge(
          metric_prefix + "_entries",
          [this] { return static_cast<double>(entries()); },
          what + " entries held")) {}

SearchCache::Entry SearchCache::Find(BytesView key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_key_.find(View(key));
  if (it == by_key_.end()) return {};
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->entry;
}

void SearchCache::Remember(uint64_t generation, BytesView key, uint64_t count,
                           const index::DocIdList& ids, BytesView superseded,
                           uint64_t superseded_count) {
  Entry entry{count, std::make_shared<const index::DocIdList>(ids)};
  std::lock_guard<std::mutex> lock(mu_);
  if (generation != generation_) return;
  if (!superseded.empty()) {
    auto it = by_key_.find(View(superseded));
    if (it != by_key_.end() && it->second->entry.count == superseded_count) {
      EraseLocked(it->second);
    }
  }
  auto it = by_key_.find(View(key));
  if (it != by_key_.end()) {
    it->second->entry = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Node{std::string(View(key)), std::move(entry)});
    by_key_.emplace(lru_.front().key, lru_.begin());
  }
  while (max_entries_ > 0 && lru_.size() > max_entries_) {
    EraseLocked(std::prev(lru_.end()));
    evictions_.fetch_add(1, std::memory_order_relaxed);
    evictions_counter_->Add();
  }
}

void SearchCache::EraseLocked(Lru::iterator node) {
  by_key_.erase(node->key);
  lru_.erase(node);
}

void SearchCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  by_key_.clear();
  lru_.clear();
  ++generation_;
}

uint64_t SearchCache::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

size_t SearchCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace sse::core
