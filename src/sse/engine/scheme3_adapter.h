#ifndef SSE_ENGINE_SCHEME3_ADAPTER_H_
#define SSE_ENGINE_SCHEME3_ADAPTER_H_

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
/// Searches touch no shard state (Scheme 3 keeps no plaintext cache), so
/// probes run under a shared lock — concurrent searches proceed in
/// parallel on every shard.
class Scheme3Adapter : public SchemeAdapter {
 public:
  explicit Scheme3Adapter(const core::SchemeOptions& options)
      : options_(options) {}

  std::string_view name() const override { return "scheme3"; }
  std::unique_ptr<SchemeShard> CreateShard() const override;
  bool IsMutating(uint16_t msg_type) const override;
  LockMode LockModeFor(uint16_t msg_type) const override;
  Result<RequestPlan> Route(const net::Message& request,
                            size_t num_shards) const override;
  Result<net::Message> Merge(const net::Message& request,
                             const RequestPlan& plan,
                             std::vector<net::Message> replies,
                             const DocumentFetcher& fetch_docs) const override;

 private:
  core::SchemeOptions options_;
};

}  // namespace sse::engine

#endif  // SSE_ENGINE_SCHEME3_ADAPTER_H_
