#ifndef SSE_CORE_SCHEME2_SERVER_H_
#define SSE_CORE_SCHEME2_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "sse/core/options.h"
#include "sse/core/persistable.h"
#include "sse/core/scheme2_messages.h"
#include "sse/core/search_cache.h"

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
/// Optimization 1 (paper §5.6): with SchemeOptions::server_plaintext_cache
/// the server keeps one SearchCache, keyed by token, of the ids a search
/// decrypted and how many segments they cover, so the next search of the
/// keyword only decrypts segments added since. The cache is soft state
/// (never serialized) — it reflects information the server has
/// legitimately learned through the access pattern. It has its own lock,
/// so a search only reads the index (the stat counters are relaxed
/// atomics) and an engine shard runs searches under a shared lock.
class Scheme2Server : public TokenIndexServer<std::vector<S2Segment>> {
 public:
  explicit Scheme2Server(const SchemeOptions& options);

  Result<net::Message> Handle(const net::Message& request) override;
  Status RestoreState(BytesView data) override;

  /// Total chain steps walked across all searches (Table 1's l/2x term).
  uint64_t total_chain_steps() const {
    return total_chain_steps_.load(std::memory_order_relaxed);
  }
  uint64_t total_segments_decrypted() const {
    return total_segments_decrypted_.load(std::memory_order_relaxed);
  }

 private:
  Result<net::Message> HandleUpdate(const net::Message& msg);
  Result<net::Message> HandleSearch(const net::Message& msg) const;
  Result<net::Message> HandleFetchAll(const net::Message& msg) const;
  Result<net::Message> HandleReinit(const net::Message& msg);
  uint64_t IndexBytes(const Bytes& token,
                      const std::vector<S2Segment>& segments) const override;

  SchemeOptions options_;
  std::unique_ptr<SearchCache> cache_;  // null: server_plaintext_cache off
  mutable std::atomic<uint64_t> total_chain_steps_{0};
  mutable std::atomic<uint64_t> total_segments_decrypted_{0};
};

}  // namespace sse::core

#endif  // SSE_CORE_SCHEME2_SERVER_H_
