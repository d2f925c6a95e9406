#ifndef SSE_CORE_SEARCH_CACHE_H_
#define SSE_CORE_SEARCH_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "sse/index/posting.h"
#include "sse/obs/metrics_registry.h"
#include "sse/util/bytes.h"

namespace sse::core {

/// Optimization 1 (paper §5.6; DESIGN.md §13): the server remembers what a
/// search revealed, so a repeat search opens only what was added since.
///
/// An LRU of answers keyed by the bytes that name a search: Scheme 2's
/// keyword token f_{k_w}(w), or Scheme 3's trapdoor start address f'(k_c).
/// Each entry holds a count (the segments it covers, or the trapdoor's
/// counter c) and the merged ids. Soft state: never serialized, journaled
/// or shipped. Thread-safe: one mutex, held per lookup or insert and never
/// across a chain step, so searches that share a shard lock share the
/// cache too.
class SearchCache {
 public:
  struct Entry {
    uint64_t count = 0;
    std::shared_ptr<const index::DocIdList> ids;  // null: no entry
  };

  /// Keeps at most `max_entries` answers, dropping the least recently used
  /// one first (0 = unbounded). Reports as `<metric_prefix>_entries` (a
  /// gauge, summed over instances) and `<metric_prefix>_evictions_total`
  /// (a process-wide counter); `what` names the cache in their help text.
  SearchCache(size_t max_entries, const std::string& metric_prefix,
              const std::string& what);

  SearchCache(const SearchCache&) = delete;
  SearchCache& operator=(const SearchCache&) = delete;

  /// The entry under `key`, or one with null ids. A hit becomes the most
  /// recently used entry.
  Entry Find(BytesView key);

  /// Remembers `ids` under `key` as the answer covering `count`, as the
  /// most recently used entry. A non-empty `superseded` names the entry
  /// the search resumed from under another key; it is dropped if it still
  /// covers `superseded_count`. Ignored when Clear() ran after
  /// `generation` was read.
  void Remember(uint64_t generation, BytesView key, uint64_t count,
                const index::DocIdList& ids, BytesView superseded = {},
                uint64_t superseded_count = 0);

  /// Drops every entry and voids searches already under way (their
  /// answers are not remembered): the index they read was replaced.
  void Clear();

  uint64_t generation() const;
  size_t entries() const;
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct Node {
    std::string key;
    Entry entry;
  };
  using Lru = std::list<Node>;

  /// Drops `node`'s entry; the caller holds mu_.
  void EraseLocked(Lru::iterator node);

  const size_t max_entries_;
  obs::MetricsRegistry::Counter* const evictions_counter_;
  mutable std::mutex mu_;
  Lru lru_;  // most recently used first
  // Keyed by views of Node::key, which lives as long as its list node.
  std::unordered_map<std::string_view, Lru::iterator> by_key_;
  uint64_t generation_ = 0;
  std::atomic<uint64_t> evictions_{0};
  obs::MetricsRegistry::Registration registration_;
};

}  // namespace sse::core

#endif  // SSE_CORE_SEARCH_CACHE_H_
