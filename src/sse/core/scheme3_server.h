#ifndef SSE_CORE_SCHEME3_SERVER_H_
#define SSE_CORE_SCHEME3_SERVER_H_

#include <atomic>
#include <cstdint>

#include "sse/core/options.h"
#include "sse/core/persistable.h"
#include "sse/core/scheme3_messages.h"
#include "sse/core/token_map.h"
#include "sse/storage/document_store.h"

namespace sse::core {

/// The honest-but-curious server of Scheme 3 (forward-private dynamic SSE,
/// after Etemad–Küpçü).
///
/// The index is a flat map from unlinkable addresses f'(k_j) to encrypted
/// posting deltas E_{k_j}(I_j(w)) — there is no per-keyword structure the
/// server could correlate updates through. A search trapdoor (k_c, c)
/// releases the newest chain key; the server walks the chain FORWARD
/// (toward older keys), probing f'(position) against the index at each of
/// the c positions and decrypting every hit. It can never derive the key
/// (or address) of an update made after the trapdoor was released — that
/// is the forward-privacy guarantee.
///
/// Unlike Scheme 2 there is no plaintext result cache: searches touch no
/// server state (the stat counters are relaxed atomics), so the engine
/// runs them under a shared lock.
class Scheme3Server : public PersistableHandler {
 public:
  explicit Scheme3Server(const SchemeOptions& options);

  Result<net::Message> Handle(const net::Message& request) override;

  Result<Bytes> SerializeState() const override;
  Status RestoreState(BytesView data) override;
  bool IsMutating(uint16_t msg_type) const override;

  /// Index entries — one per counted update. The server cannot know how
  /// many unique keywords they cover; this is the closest analogue the
  /// shard interface's `unique_keywords` can have for this scheme.
  size_t unique_keywords() const { return index_.size(); }
  size_t document_count() const { return docs_.size(); }
  uint64_t stored_index_bytes() const { return index_bytes_; }
  uint64_t index_comparisons() const { return index_.comparisons(); }
  void ResetIndexStats() { index_.ResetStats(); }

  /// Total chain steps walked / entries decrypted across all searches.
  uint64_t total_chain_steps() const {
    return total_chain_steps_.load(std::memory_order_relaxed);
  }
  uint64_t total_entries_decrypted() const {
    return total_entries_decrypted_.load(std::memory_order_relaxed);
  }

 private:
  Result<net::Message> HandleUpdate(const net::Message& msg);
  Result<net::Message> HandleSearch(const net::Message& msg) const;

  SchemeOptions options_;
  TokenMap<Bytes> index_;  // f'(k_j) -> E_{k_j}(delta id list)
  storage::DocumentStore docs_;
  uint64_t index_bytes_ = 0;
  // Search-path stats; relaxed atomics because searches run concurrently
  // under the engine's shared shard lock.
  mutable std::atomic<uint64_t> total_chain_steps_{0};
  mutable std::atomic<uint64_t> total_entries_decrypted_{0};
};

}  // namespace sse::core

#endif  // SSE_CORE_SCHEME3_SERVER_H_
