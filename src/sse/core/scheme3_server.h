#ifndef SSE_CORE_SCHEME3_SERVER_H_
#define SSE_CORE_SCHEME3_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "sse/core/options.h"
#include "sse/core/persistable.h"
#include "sse/core/scheme3_messages.h"
#include "sse/core/search_cache.h"
#include "sse/index/posting.h"

namespace sse::core {

/// One walk of a trapdoor (k_c, c) toward older keys (see WalkTrapdoor).
/// Position i is the chain key k_i and the address f'(k_i) an update with
/// that key was filed under.
struct S3Walk {
  /// The probes (f'(k_i), k_i) for i = c, c-1, ..., resumed_at + 1,
  /// newest first: where the updates made before the trapdoor was
  /// released and after the resumed search live, and no later ones.
  std::vector<S3Probe> probes;
  /// Chain steps taken: positions visited minus one.
  uint64_t chain_steps = 0;
  /// The trapdoor's counter c and its start address f'(k_c).
  uint32_t counter = 0;
  crypto::Sha256Digest start{};
  /// The position r at which the walk found an earlier search's answer
  /// (0: it walked down to position 1), that position's address, and the
  /// ids of positions r..1 remembered there.
  uint32_t resumed_at = 0;
  crypto::Sha256Digest resumed_address{};
  std::shared_ptr<const index::DocIdList> resumed_ids;
  /// The cache's generation when the walk read it.
  uint64_t generation = 0;
};

/// The resume cache that `options` ask for (SchemeOptions::
/// server_plaintext_cache, bounded by plaintext_cache_max_entries), or null.
/// Scheme 3's Optimization 1 (DESIGN.md §13): an entry is keyed by a
/// trapdoor's start address f'(k_c) and holds c and the merged ids of
/// positions c..1. A walk resumes only from an entry recorded for the
/// position it reached, so a request (k_c, c') with c' != c is never
/// resumed from. A search is remembered only when every position it probed
/// opened an entry, so no entry covers a position whose update has not
/// arrived (a burned counter, a held-back request); a later walk passes
/// through it again.
std::unique_ptr<SearchCache> NewResumeCache(const SchemeOptions& options);

/// Walks trapdoor `req` = (k_c, c) toward older keys and returns the
/// probes of the positions left to open. With a `cache`, the walk stops at
/// the first position holding an entry recorded for it; without one, it
/// probes all c positions. Fails with INVALID_ARGUMENT when k_c is not a
/// 32-byte chain element or c exceeds `chain_length`; a counter of 0
/// yields no probes.
Result<S3Walk> WalkTrapdoor(const S3SearchRequest& req, uint32_t chain_length,
                            SearchCache* cache = nullptr);

/// Completes a search from its walk and from what the walk's probes
/// opened (`result`: canonical ids, entries decrypted): reports the
/// walk's chain steps, unions in the ids the walk resumed from and, when
/// every probed position opened an entry, remembers the answer in `cache`
/// (if any).
void FinishWalk(const S3Walk& walk, SearchCache* cache,
                S3SearchResult& result);

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
/// With SchemeOptions::server_plaintext_cache, the server keeps one resume
/// cache (NewResumeCache), so a repeat search walks and opens only the
/// updates made since the keyword's last search. The cache has its own
/// lock, so a search only reads the index (the stat counters are relaxed
/// atomics) and the engine runs probes under a shared lock. An engine
/// shard never sees a trapdoor, only a kMsgS3ProbeRequest: the probes of
/// the engine's one walk that land on it. The engine's adapter keeps the
/// resume cache, so shards are built without one.
class Scheme3Server : public TokenIndexServer<Bytes> {
 public:
  explicit Scheme3Server(const SchemeOptions& options);

  Result<net::Message> Handle(const net::Message& request) override;
  Status RestoreState(BytesView data) override;

  /// Opens the index entries at `probes` (ids and entries decrypted);
  /// both a search and a probe request end here.
  Result<S3SearchResult> Probe(const std::vector<S3Probe>& probes) const;

  /// The resume cache; null when SchemeOptions::server_plaintext_cache is
  /// off.
  const SearchCache* resume_cache() const { return resume_.get(); }

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
  uint64_t IndexBytes(const Bytes& address,
                      const Bytes& ciphertext) const override;

  SchemeOptions options_;
  std::unique_ptr<SearchCache> resume_;
  // Search-path stats; relaxed atomics because searches run concurrently
  // under the engine's shared shard lock.
  mutable std::atomic<uint64_t> total_chain_steps_{0};
  mutable std::atomic<uint64_t> total_entries_decrypted_{0};
};

}  // namespace sse::core

#endif  // SSE_CORE_SCHEME3_SERVER_H_
