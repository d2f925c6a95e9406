#ifndef SSE_ENGINE_SCHEME1_ADAPTER_H_
#define SSE_ENGINE_SCHEME1_ADAPTER_H_

#include "sse/core/options.h"
#include "sse/core/scheme1_server.h"
#include "sse/engine/scheme_shard.h"

namespace sse::engine {

/// Sharding policy for Scheme 1 (paper §5.2).
///
/// Token-keyed messages route to the token's shard; the batched two-round
/// update (Fig. 1) scatters: nonce requests and update entries are split by
/// token, documents go to the engine store, and acks/nonce replies are
/// merged back into the client's expected order. Searches are single-shard
/// and read-only — the whole point of sharding this scheme.
class Scheme1Adapter : public SchemeAdapter {
 public:
  explicit Scheme1Adapter(const core::SchemeOptions& options)
      : options_(options) {}

  std::string_view name() const override { return "scheme1"; }
  std::unique_ptr<SchemeShard> CreateShard() const override;
  bool IsMutating(uint16_t msg_type) const override;
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

#endif  // SSE_ENGINE_SCHEME1_ADAPTER_H_
