#ifndef SSE_CORE_SCHEME2_SERVER_H_
#define SSE_CORE_SCHEME2_SERVER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <vector>

#include "sse/core/options.h"
#include "sse/core/persistable.h"
#include "sse/core/scheme2_messages.h"
#include "sse/core/token_map.h"
#include "sse/index/posting.h"
#include "sse/obs/metrics_registry.h"
#include "sse/storage/document_store.h"

namespace sse::core {

/// The honest-but-curious server of Scheme 2.
///
/// Per unique keyword it stores the paper's growing list
///   S(w) = (f_{k_w}(w), E_{k_1}(I_1(w)), f'(k_1), ..., E_{k_j}(I_j(w)), f'(k_j))
/// — one encrypted posting segment per update, each tagged with the public
/// image f'(k_j) of its chain key. On a search the server receives the
/// newest usable chain element and walks the chain *forward*, matching tags
/// to recover each older segment key (Fig. 4); it can never walk backward
/// to keys of future updates.
///
/// Optimization 1 (paper §5.6): once a search decrypted a keyword's
/// segments, the union of ids is cached in plaintext, so the next search
/// only decrypts segments added since. The cache is soft state (never
/// serialized) — it reflects information the server has legitimately
/// learned through the access pattern.
class Scheme2Server : public PersistableHandler {
 public:
  explicit Scheme2Server(const SchemeOptions& options);

  Result<net::Message> Handle(const net::Message& request) override;

  Result<Bytes> SerializeState() const override;
  Status RestoreState(BytesView data) override;
  bool IsMutating(uint16_t msg_type) const override;

  size_t unique_keywords() const { return index_.size(); }
  size_t document_count() const { return docs_.size(); }
  uint64_t stored_index_bytes() const { return index_bytes_; }
  uint64_t index_comparisons() const { return index_.comparisons(); }
  void ResetIndexStats() { index_.ResetStats(); }

  /// Total chain steps walked across all searches (Table 1's l/2x term).
  uint64_t total_chain_steps() const { return total_chain_steps_; }
  uint64_t total_segments_decrypted() const {
    return total_segments_decrypted_;
  }

  /// Keywords currently holding a decrypted posting-list cache, and how
  /// many such caches the LRU bound has dropped (see
  /// SchemeOptions::plaintext_cache_max_entries).
  size_t plaintext_cache_entries() const {
    return cache_entries_.load(std::memory_order_relaxed);
  }
  uint64_t plaintext_cache_evictions() const {
    return cache_evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    std::vector<S2Segment> segments;
    // Optimization 1 cache (soft state): ids decrypted so far and how many
    // segments they cover.
    index::DocIdList cached_ids;
    size_t cached_segments = 0;
  };

  Result<net::Message> HandleUpdate(const net::Message& msg);
  Result<net::Message> HandleSearch(const net::Message& msg);
  Result<net::Message> HandleFetchAll(const net::Message& msg);
  Result<net::Message> HandleReinit(const net::Message& msg);

  /// Marks `token` most-recently-searched in the plaintext-cache LRU and
  /// evicts over-bound victims (clearing their Entry cache fields). No-op
  /// when the bound is off.
  void TouchPlaintextCache(const Bytes& token);
  /// Forgets all LRU bookkeeping (index rebuilt: reinit/restore).
  void ResetPlaintextCacheLru();

  SchemeOptions options_;
  TokenMap<Entry> index_;
  storage::DocumentStore docs_;
  uint64_t index_bytes_ = 0;
  uint64_t total_chain_steps_ = 0;
  uint64_t total_segments_decrypted_ = 0;

  // LRU over tokens with a live plaintext cache, MRU at the front. The
  // atomics mirror sizes for the metrics scrape thread; all structural
  // mutation happens under the owner's handler serialization.
  std::list<Bytes> cache_lru_;
  std::map<Bytes, std::list<Bytes>::iterator> cache_pos_;
  std::atomic<size_t> cache_entries_{0};
  std::atomic<uint64_t> cache_evictions_{0};
  std::vector<obs::MetricsRegistry::Registration> registrations_;
};

}  // namespace sse::core

#endif  // SSE_CORE_SCHEME2_SERVER_H_
