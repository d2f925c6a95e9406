#ifndef SSE_ENGINE_SCHEME3_ADAPTER_H_
#define SSE_ENGINE_SCHEME3_ADAPTER_H_

#include <memory>

#include "sse/core/options.h"
#include "sse/core/scheme3_server.h"
#include "sse/engine/scheme_shard.h"

namespace sse::engine {

/// Sharding policy for Scheme 3 (forward-private dynamic SSE).
///
/// Updates scatter their entries by address — addresses are pseudo-random
/// and unlinkable, so this doubles as load balancing. A search trapdoor
/// carries no keyword token the router could hash, and the entries of one
/// keyword land on arbitrary shards. So the router walks the trapdoor's
/// chain once (core::WalkTrapdoor) and routes each probe (f'(k_i), k_i)
/// by its address exactly as the update that filed it was routed; each
/// shard opens only its own probes and the merge unions the decrypted
/// deltas.
///
/// With SchemeOptions::server_plaintext_cache the adapter keeps the
/// engine's one resume cache (core::NewResumeCache, bounded by
/// plaintext_cache_max_entries): Route walks only down to the position an
/// earlier search of the keyword stopped at and probes the positions added
/// since, and Merge unions in the remembered ids and remembers the new
/// answer. The cache has its own lock and probes only read their shard, so
/// probes take the shared lock like every other non-mutating message —
/// concurrent searches proceed in parallel on every shard. RestoreState's
/// swap empties the cache.
class Scheme3Adapter : public SchemeAdapter {
 public:
  explicit Scheme3Adapter(const core::SchemeOptions& options);

  std::string_view name() const override { return "scheme3"; }
  std::unique_ptr<SchemeShard> CreateShard() const override;
  bool IsMutating(uint16_t msg_type) const override;
  Result<RequestPlan> Route(const net::Message& request,
                            size_t num_shards) const override;
  Result<net::Message> Merge(const net::Message& request,
                             const RequestPlan& plan,
                             std::vector<net::Message> replies,
                             const DocumentFetcher& fetch_docs) const override;
  void OnStateRestored() override;

  /// The engine's resume cache; null when server_plaintext_cache is off.
  const core::SearchCache* resume_cache() const { return resume_.get(); }

 private:
  core::SchemeOptions options_;
  std::unique_ptr<core::SearchCache> resume_;
};

}  // namespace sse::engine

#endif  // SSE_ENGINE_SCHEME3_ADAPTER_H_
